#ifndef QUAESTOR_INVALIDB_RELIABLE_QUEUE_H_
#define QUAESTOR_INVALIDB_RELIABLE_QUEUE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"

namespace quaestor::invalidb {

/// At-least-once delivery settings for one transport queue direction.
struct ReliableOptions {
  /// First retransmit after this long without an ack; doubles per retry.
  Micros retransmit_timeout = 200 * kMicrosPerMilli;
  Micros max_backoff = 5 * kMicrosPerSecond;
  /// Uniform jitter fraction added to every backoff (decorrelates
  /// retransmit storms).
  double jitter = 0.2;
  uint64_t seed = 1;
};

/// A receiver sends its owed acks at most once per this interval: every
/// envelope delivered inside one interval shares one cumulative ack.
inline constexpr Micros kAckInterval = 5 * kMicrosPerMilli;

/// Ships `message` on the named queue: over sockets one frame, in process
/// an append to a LoopbackLink. fault::FaultySend wraps one to inject
/// channel faults.
using QueueSend =
    std::function<void(const std::string& queue, std::string message)>;

/// Wire helpers for the sequence-numbered envelope (exposed for tests and
/// the transport fuzzer). An envelope is a one-line header and an opaque
/// payload:
///   <seq> <checksum> <sender>\n<payload>
/// with seq and checksum in decimal. Acks travel on "<queue>:acks" as
///   <floor> <sender>
/// where floor is the highest seq the receiver delivered contiguously.
/// The checksum covers sender, seq and payload, so a corrupted envelope is
/// rejected (and never acked) instead of delivering mutated bytes.
namespace reliable {

struct Envelope {
  std::string sender;
  uint64_t seq = 0;  // an ack's floor
  std::string payload;
};

std::string Encode(const std::string& sender, uint64_t seq,
                   const std::string& payload);
/// Corruption when `message` is not an envelope or fails the checksum.
Result<Envelope> Decode(std::string_view message);

std::string EncodeAck(const std::string& sender, uint64_t floor);
Result<Envelope> DecodeAck(std::string_view message);  // payload unused

}  // namespace reliable

/// The sending half: stamps every payload with a per-sender sequence
/// number, keeps it buffered until a cumulative ack covers it, and
/// retransmits with exponential backoff + seeded jitter. Thread-safe (a
/// pump or loop timer ticks the sender while callers send and acks
/// arrive).
class ReliableSender {
 public:
  ReliableSender(Clock* clock, QueueSend send, std::string queue,
                 std::string sender_id, ReliableOptions options);

  ReliableSender(const ReliableSender&) = delete;
  ReliableSender& operator=(const ReliableSender&) = delete;

  /// Ships one payload in an envelope; it stays buffered until acked.
  void Send(std::string payload);

  /// Takes one message from the ack queue ("<queue>:acks") and retires
  /// every message up to its floor. Foreign or malformed acks are ignored.
  void OnAck(std::string_view message);

  /// Retransmits every unacked message once the oldest one's deadline
  /// passed, and returns how many were re-sent. An idle tick is O(1): it
  /// compares the clock with that one deadline.
  size_t Tick();

  const std::string& ack_queue() const { return ack_queue_; }

  size_t unacked() const;
  uint64_t redeliveries() const;
  /// Ticks that found the deadline passed and re-sent the unacked run.
  uint64_t retransmit_scans() const;

 private:
  Micros JitteredLocked(Micros backoff);
  /// Arms the retransmit timer for the current oldest message.
  void RestartTimerLocked(Micros now);

  Clock* clock_;
  QueueSend send_;
  std::string queue_;
  std::string ack_queue_;
  std::string sender_id_;
  ReliableOptions options_;

  static constexpr Micros kNoDeadline = std::numeric_limits<Micros>::max();

  mutable std::mutex mu_;
  Rng rng_;
  uint64_t next_seq_ = 1;
  /// The unacked payloads in send order; the front carries first_seq_.
  /// Cumulative acks retire a prefix, so they stay one contiguous run.
  std::deque<std::string> unacked_;
  uint64_t first_seq_ = 1;
  /// The oldest unacked message's retransmit deadline (kNoDeadline when
  /// nothing is unacked) and the backoff that set it. An ack that retires
  /// messages re-arms it at retransmit_timeout for the new oldest one.
  Micros deadline_ = kNoDeadline;
  Micros backoff_ = 0;
  uint64_t redeliveries_ = 0;
  uint64_t retransmit_scans_ = 0;
};

/// The receiving half. It drops already-delivered sequence numbers and
/// buffers out-of-order arrivals until the gap fills, so the handler sees
/// each sender's payloads exactly once, in send order. Every envelope it
/// takes in, a duplicate included (its earlier ack may have been lost),
/// leaves its sender owed an ack; SendAcks pays them.
class ReliableReceiver {
 public:
  using Handler = std::function<void(const std::string& payload)>;

  /// Acks leave through `send` on "<queue>:acks", spaced on `clock`.
  ReliableReceiver(Clock* clock, QueueSend send, std::string queue);

  ReliableReceiver(const ReliableReceiver&) = delete;
  ReliableReceiver& operator=(const ReliableReceiver&) = delete;

  /// Processes one message that arrived on the queue, invoking `handler`
  /// for every payload it makes deliverable (none, one, or a released
  /// run of parked ones). Returns how many payloads reached the handler,
  /// or Corruption when the message is no envelope or fails its checksum
  /// (it is dropped and owes no ack).
  Result<size_t> Accept(std::string_view message, const Handler& handler);

  /// Sends one ack per sender owed one, carrying its contiguous floor,
  /// unless acks went out less than kAckInterval ago. Returns how many
  /// acks it sent.
  size_t SendAcks();

  uint64_t duplicates_dropped() const;
  /// Out-of-order payloads currently parked waiting for a gap to fill.
  size_t pending() const;

 private:
  struct SenderState {
    uint64_t floor = 0;  // highest contiguously delivered seq
    bool ack_owed = false;
    std::map<uint64_t, std::string> pending;
  };

  Clock* clock_;
  QueueSend send_;
  std::string ack_queue_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, SenderState> senders_;
  /// When SendAcks last sent any ack.
  Micros acks_sent_at_ = std::numeric_limits<Micros>::min();
  uint64_t duplicates_dropped_ = 0;
};

}  // namespace quaestor::invalidb

#endif  // QUAESTOR_INVALIDB_RELIABLE_QUEUE_H_
