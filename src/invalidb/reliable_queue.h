#ifndef QUAESTOR_INVALIDB_RELIABLE_QUEUE_H_
#define QUAESTOR_INVALIDB_RELIABLE_QUEUE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"

namespace quaestor::invalidb {

/// At-least-once delivery settings for one transport queue direction.
struct ReliableOptions {
  /// The link's mode, which its sender and receiver share. Off (the
  /// default), every message is pushed and handed on raw; on, every
  /// message is an envelope, and the receiver drops anything else.
  bool enabled = false;
  /// First retransmit after this long without an ack; doubles per retry.
  Micros retransmit_timeout = 200 * kMicrosPerMilli;
  Micros max_backoff = 5 * kMicrosPerSecond;
  /// Uniform jitter fraction added to every backoff (decorrelates
  /// retransmit storms).
  double jitter = 0.2;
  uint64_t seed = 1;
};

/// Ships `message` on the named queue: over sockets one frame, in process
/// an append to a LoopbackLink. fault::FaultySend wraps one to inject
/// channel faults.
using QueueSend =
    std::function<void(const std::string& queue, std::string message)>;

/// Wire helpers for the sequence-numbered envelope (exposed for tests and
/// the transport fuzzer). An envelope wraps an opaque payload string:
///   {"rs": sender, "rn": seq, "rc": checksum, "rp": payload}
/// Acks travel on "<queue>:acks" as {"rs": sender, "ra": seq}.
/// The checksum covers sender+seq+payload, so a corrupted envelope is
/// rejected (and never acked) instead of delivering mutated bytes. Only a
/// reliable link's receiver decodes, so every message it sees must be an
/// envelope.
namespace reliable {

struct Envelope {
  std::string sender;
  uint64_t seq = 0;
  std::string payload;
};

std::string Encode(const std::string& sender, uint64_t seq,
                   const std::string& payload);
/// Corruption when `message` is not an envelope or fails the checksum.
Result<Envelope> Decode(const std::string& message);

std::string EncodeAck(const std::string& sender, uint64_t seq);
Result<Envelope> DecodeAck(const std::string& message);  // payload unused

}  // namespace reliable

/// The sending half: stamps every payload with a per-sender sequence
/// number, keeps it buffered until acked, and retransmits with
/// exponential backoff + seeded jitter. Thread-safe (a pump or loop timer
/// ticks the sender while callers send and acks arrive).
class ReliableSender {
 public:
  ReliableSender(Clock* clock, QueueSend send, std::string queue,
                 std::string sender_id, ReliableOptions options);

  ReliableSender(const ReliableSender&) = delete;
  ReliableSender& operator=(const ReliableSender&) = delete;

  /// Ships one payload. Raw push when the reliable layer is disabled;
  /// otherwise the payload stays buffered until acked.
  void Send(std::string payload);

  /// Takes one message from the ack queue ("<queue>:acks") and forgets
  /// the message it acks. Foreign or malformed acks are ignored.
  void OnAck(const std::string& message);

  /// Retransmits every message whose ack deadline passed. Returns how
  /// many were re-sent. Early-outs without touching the unacked map when
  /// no deadline has passed (the earliest deadline is tracked on Send and
  /// recomputed after each real scan), so idle ticks are O(1).
  size_t RetransmitDue();

  /// RetransmitDue when the reliable layer is on (call from any pump loop
  /// or timer).
  void Tick() {
    if (options_.enabled) RetransmitDue();
  }

  const std::string& ack_queue() const { return ack_queue_; }

  size_t unacked() const;
  uint64_t redeliveries() const;
  /// Full scans of the unacked map performed by RetransmitDue (ticks that
  /// early-out on the deadline check do not count).
  uint64_t retransmit_scans() const;
  const ReliableOptions& options() const { return options_; }

 private:
  struct Pending {
    std::string payload;
    Micros next_retransmit = 0;
    Micros backoff = 0;
  };

  Micros JitteredLocked(Micros backoff);

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
  std::map<uint64_t, Pending> unacked_;
  uint64_t redeliveries_ = 0;
  /// Every unacked message's next_retransmit, kept exactly in sync with
  /// unacked_ (inserted on Send, erased on ack, replaced on retransmit).
  /// *begin() is the earliest deadline, so the idle-tick early-out never
  /// goes stale: acking the message that held the minimum removes its
  /// deadline here too, instead of leaving a stale-low cached minimum
  /// that would trigger a needless full scan on the next tick.
  std::multiset<Micros> deadlines_;
  uint64_t retransmit_scans_ = 0;
};

/// The receiving half. On a reliable link it acks every envelope
/// (duplicates included — the original ack may have been lost), drops
/// already-delivered sequence numbers, and buffers out-of-order arrivals
/// until the gap fills, so the handler sees each sender's payloads exactly
/// once, in send order. On a raw link it hands every message to the
/// handler as it is.
class ReliableReceiver {
 public:
  using Handler = std::function<void(const std::string& payload)>;

  /// Acks leave through `send` on "<queue>:acks". `enabled` is the link's
  /// ReliableOptions::enabled, the value its sender runs with.
  ReliableReceiver(QueueSend send, std::string queue, bool enabled);

  ReliableReceiver(const ReliableReceiver&) = delete;
  ReliableReceiver& operator=(const ReliableReceiver&) = delete;

  /// Processes one message that arrived on the queue, invoking `handler`
  /// for every payload it makes deliverable (none, one, or a released
  /// run of parked ones). Returns how many payloads reached the handler,
  /// or Corruption when a reliable link dropped the message unacked
  /// because it is no envelope or fails its checksum.
  Result<size_t> Accept(const std::string& message, const Handler& handler);

  uint64_t duplicates_dropped() const;
  /// Out-of-order payloads currently parked waiting for a gap to fill.
  size_t pending() const;

 private:
  struct SenderState {
    uint64_t floor = 0;  // highest contiguously delivered seq
    std::map<uint64_t, std::string> pending;
  };

  QueueSend send_;
  std::string ack_queue_;
  const bool enabled_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, SenderState> senders_;
  uint64_t duplicates_dropped_ = 0;
};

}  // namespace quaestor::invalidb

#endif  // QUAESTOR_INVALIDB_RELIABLE_QUEUE_H_
