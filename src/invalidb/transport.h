#ifndef QUAESTOR_INVALIDB_TRANSPORT_H_
#define QUAESTOR_INVALIDB_TRANSPORT_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "db/document.h"
#include "db/query.h"
#include "invalidb/cluster.h"
#include "invalidb/notification.h"
#include "invalidb/pipeline.h"
#include "invalidb/reliable_queue.h"
#include "obs/metrics.h"

namespace quaestor::invalidb {

/// Message-queue transport between Quaestor and InvaliDB (§4.1:
/// "Communication between QUAESTOR and InvaliDB is handled through Redis
/// message queues"). Requests (query activations/deactivations, change-
/// stream events) travel on one queue; notifications travel back on
/// another. Messages are self-describing JSON.
///
/// Queue names (namespaced by `prefix`): <prefix>:requests and
/// <prefix>:notifications. Each direction also uses "<queue>:acks" for
/// the reliable layer's cumulative delivery confirmations.
namespace transport {

/// The open and close bytes of one batch envelope kind; the inner specs
/// go between them, comma-separated. The encoders, StagedEnvelope, the
/// decoders and the worker's dispatch all read them from here.
struct BatchFraming {
  std::string_view open;
  std::string_view close;
};
/// A commit-ordered slice of the change stream:
/// {"events":[<change event spec>,...],"op":"change_batch"}.
inline constexpr BatchFraming kChangeBatch{R"({"events":[)",
                                           R"(],"op":"change_batch"})"};
/// Every notification of one dispatch:
/// {"notifications":[<notification spec>,...],"op":"notify_batch"}.
inline constexpr BatchFraming kNotifyBatch{R"({"notifications":[)",
                                           R"(],"op":"notify_batch"})"};

/// Serialized message builders / parsers (exposed for tests). All
/// encoders emit canonical JSON in a single append pass — keys in sorted
/// order, no whitespace, byte-identical to serializing the equivalent
/// db::Value tree. Change events and notifications only travel inside
/// batch envelopes.
std::string EncodeChangeBatch(const std::vector<db::ChangeEvent>& events);
std::string EncodeRegister(const db::Query& query,
                           const std::vector<db::Document>& initial_result,
                           Micros evaluated_at);
std::string EncodeDeregister(const std::string& query_key);
std::string EncodeResize(size_t query_partitions, size_t object_partitions);
std::string EncodeNotificationBatch(const std::vector<Notification>& batch);

/// Streaming element appenders: one inner spec of a batch envelope,
/// appended to an accumulating buffer. The endpoints stage outgoing
/// batches as pre-encoded bytes (one append per event, no deep copies of
/// buffered events), so the flush just closes the envelope and sends.
void AppendChangeEventSpec(std::string* out, const db::ChangeEvent& event);
void AppendNotificationSpec(std::string* out, const Notification& n);

/// Decodes a document spec of a register request's initial result.
Result<db::Document> DecodeDocument(const db::Value& spec);
/// The batch decoders read the canonical layout the encoders above and
/// StagedEnvelope write, the only producers of batch envelopes. Any
/// deviation from it (a torn envelope, reordered keys, whitespace outside
/// a document body, a mistyped field) is Corruption, and the whole batch
/// is rejected: a torn batch must not be half-applied.
Result<std::vector<db::ChangeEvent>> DecodeChangeBatch(
    const std::string& message);
Result<std::vector<Notification>> DecodeNotificationBatch(
    const std::string& message);

}  // namespace transport

/// Write-path batching: change events stage at the sending endpoint and
/// ship as one change_batch envelope per flush, and the worker ships each
/// dispatch's notifications inside a notify_batch envelope. The default
/// (1) sends every change at once and every dispatch at once; larger
/// values trade latency for fewer, bigger envelopes.
struct BatchOptions {
  /// Flush as soon as this many events (notifications, at the worker) are
  /// staged.
  size_t max_batch = 1;
  /// Flush once the oldest buffered event is this old (checked in the
  /// remote's Tick, so the pump or timer cadence bounds the age).
  Micros flush_interval = 1 * kMicrosPerMilli;
};

/// Transport configuration: both queue directions share the reliable-
/// delivery settings. Every message travels in a reliable envelope, and a
/// receiver drops every message that is not one.
struct TransportOptions {
  ReliableOptions reliable;
  BatchOptions batching;
};

/// Delivery-quality counters for one transport endpoint.
struct TransportStats {
  /// Messages dropped as corrupt: an envelope that fails its checksum, a
  /// message that is no envelope, or a payload whose decode returned
  /// Status::Corruption.
  uint64_t decode_errors = 0;
  /// Envelopes discarded because their sequence number was already
  /// delivered (at-least-once duplicates).
  uint64_t duplicates_dropped = 0;
  /// Retransmissions this endpoint's sender performed.
  uint64_t redeliveries = 0;
  /// Batch envelopes sent and the events/notifications they carried.
  uint64_t batches_sent = 0;
  uint64_t batch_events = 0;
  /// Why each flush fired: the buffer filled (size), the oldest event
  /// aged out (interval), a non-change request needed ordering (barrier),
  /// or an explicit FlushChanges / pump-cycle flush (manual).
  uint64_t flushes_size = 0;
  uint64_t flushes_interval = 0;
  uint64_t flushes_barrier = 0;
  uint64_t flushes_manual = 0;

  /// Adds these totals into `transport_*` registry counters. Labels
  /// conventionally carry {"endpoint","remote"|"worker"}; flush reasons
  /// export as transport_batch_flushes with an extra {"reason",...}.
  void ExportTo(obs::MetricsRegistry* registry,
                const obs::Labels& labels = {}) const;
};

/// One endpoint's outgoing batch, staged as pre-encoded envelope bytes:
/// the framing's open bytes plus one spec per item, so no staged event is
/// deep copied. Ship closes the envelope and sends it as one message.
/// Thread-safe: callers append from any thread while a pump ships.
class StagedEnvelope {
 public:
  StagedEnvelope(Clock* clock, ReliableSender* sender,
                 transport::BatchFraming framing)
      : clock_(clock), sender_(sender), framing_(framing) {}

  /// Appends one spec per item with `append_spec`, under one lock.
  template <typename Range, typename AppendSpec>
  void Append(const Range& items, AppendSpec append_spec) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& item : items) {
      if (count_ == 0) {
        oldest_ = clock_->NowMicros();
        json_ = framing_.open;
      } else {
        json_ += ',';
      }
      append_spec(&json_, item);
      ++count_;
    }
  }

  /// Ships the staged envelope if it holds at least `min_count` items (at
  /// least one) and its oldest is at least `min_age` old, counting the
  /// flush under `reason`. Returns how many items shipped.
  size_t Ship(std::atomic<uint64_t>* reason, size_t min_count,
              Micros min_age = 0);

  /// Items staged and not yet shipped.
  size_t size() const;
  uint64_t batches_sent() const { return batches_sent_.load(); }
  uint64_t batch_events() const { return batch_events_.load(); }

 private:
  Clock* clock_;
  ReliableSender* sender_;
  const transport::BatchFraming framing_;
  mutable std::mutex mu_;
  std::string json_;
  size_t count_ = 0;
  /// NowMicros when the staged run started.
  Micros oldest_ = 0;
  std::atomic<uint64_t> batches_sent_{0};
  std::atomic<uint64_t> batch_events_{0};
};

/// What InvalidbRemote and InvalidbWorker share: a reliable sender behind
/// a staged batch envelope on the outgoing queue, a reliable receiver on
/// the incoming one, and one receive path for everything that arrives.
/// The medium is the endpoint's QueueSend; whatever carries the messages
/// (src/net's event-loop threads, a LoopbackLink's Pump) calls Receive
/// for every arrival and Tick at the end of each pump cycle.
class TransportEndpoint {
 public:
  TransportEndpoint(const TransportEndpoint&) = delete;
  TransportEndpoint& operator=(const TransportEndpoint&) = delete;

  /// The receive path for one message that arrived on `queue`: an ack
  /// retires this endpoint's sends up to its floor; a message on the
  /// incoming queue goes through the reliable receiver (decode, dedup and
  /// reorder; its ack waits for Tick) to the endpoint's handler, and a
  /// message the receiver drops counts in decode_errors(). Returns how
  /// many notifications (remote) or requests (worker) were handled.
  size_t Receive(const std::string& queue, const std::string& message);

  /// Ends one pump cycle: retransmits what is due, ships what is staged
  /// (see the overrides) and sends the owed acks, at most once per
  /// kAckInterval. Loop timers and LoopbackLink::Pump call it.
  virtual void Tick() = 0;

  uint64_t decode_errors() const { return decode_errors_.load(); }
  TransportStats stats() const;

 protected:
  TransportEndpoint(Clock* clock, QueueSend send, TransportOptions options,
                    std::string outgoing, std::string incoming,
                    std::string sender_id, ReliableOptions reliable,
                    transport::BatchFraming outgoing_framing);
  ~TransportEndpoint() = default;

  /// Handles one delivered payload; returns what Receive counts for it.
  virtual size_t Handle(const std::string& payload) = 0;

  const TransportOptions options_;
  const std::string incoming_;
  ReliableSender sender_;
  ReliableReceiver receiver_;
  /// The outgoing batch envelope being staged.
  StagedEnvelope staged_;
  std::atomic<uint64_t> decode_errors_{0};
  std::atomic<uint64_t> flushes_size_{0};
  std::atomic<uint64_t> flushes_interval_{0};
  std::atomic<uint64_t> flushes_barrier_{0};
  std::atomic<uint64_t> flushes_manual_{0};
};

/// The Quaestor-side stub: the Pipeline over a message queue. Ships every
/// call through the request queue, and hands every notify_batch envelope
/// that Receive takes in to the sink.
class InvalidbRemote : public TransportEndpoint, public Pipeline {
 public:
  InvalidbRemote(Clock* clock, QueueSend send, std::string prefix,
                 NotificationBatchSink sink,
                 TransportOptions options = TransportOptions());
  ~InvalidbRemote() override;

  /// Always OK: the worker's answer travels back asynchronously.
  Status RegisterQuery(const db::Query& query,
                       const std::vector<db::Document>& initial_result,
                       Micros evaluated_at = -1) override;
  void DeregisterQuery(const std::string& query_key) override;
  void OnChange(const db::ChangeEvent& event) override;
  /// Always true: a silent worker is not detected yet.
  bool Healthy() const override { return true; }

  /// Requests a live repartition of the worker's cluster (elastic
  /// scale-out). The worker resizes via direct state handoff — it has no
  /// database access for re-evaluation — so the request assumes a healthy
  /// grid. Queue order guarantees every change sent before this call is
  /// matched on the old grid and everything after on the new one.
  void Resize(size_t query_partitions, size_t object_partitions);

  /// Ships the buffered change batch now (no-op when the buffer is empty).
  /// Register/Deregister/Resize flush implicitly — a buffered change must
  /// never be reordered after a control request.
  void FlushChanges();

  /// Ships the change batch once its oldest event is flush_interval old,
  /// retransmits the requests whose ack is overdue and acks notifications.
  void Tick() override;

  /// Request messages awaiting a worker ack.
  size_t unacked_requests() const { return sender_.unacked(); }
  /// Out-of-order notifications parked until their gap fills.
  size_t pending_notifications() const { return receiver_.pending(); }
  /// Change events currently buffered awaiting a flush.
  size_t buffered_changes() const { return staged_.size(); }

 private:
  size_t Handle(const std::string& payload) override;

  NotificationBatchSink sink_;
};

/// The InvaliDB-side worker: owns a cluster, handles the requests that
/// Receive takes in (a malformed one is counted in decode_errors() and
/// skipped), and publishes notifications back. Notifications stage until
/// max_batch or the end of a pump cycle (Tick).
class InvalidbWorker : public TransportEndpoint {
 public:
  InvalidbWorker(Clock* clock, QueueSend send, std::string prefix,
                 InvalidbOptions options = InvalidbOptions(),
                 TransportOptions transport_options = TransportOptions());
  ~InvalidbWorker();

  /// The worker's pump cycle, the same on every medium: retransmits the
  /// notifications whose ack is overdue, waits for the cluster's in-flight
  /// matching (threaded mode), ships the staged notifications and acks
  /// requests.
  void Tick() override;

  InvalidbCluster& cluster() { return *cluster_; }
  /// Notification messages awaiting a remote ack.
  size_t unacked_notifications() const { return sender_.unacked(); }

 private:
  /// Every request counts as handled, a malformed one included.
  size_t Handle(const std::string& message) override {
    HandleMessage(message);
    return 1;
  }
  void HandleMessage(const std::string& message);

  std::unique_ptr<InvalidbCluster> cluster_;
};

/// The in-process medium, for deterministic tests and benches: one
/// direction between two endpoints. Its sender appends (queue, message)
/// to a FIFO, and nothing moves until Pump or Drain hands the queued
/// messages on. Thread-safe: any thread may send while one pumps.
class LoopbackLink {
 public:
  /// Takes one message; returns what it counts as handled.
  using Receiver = std::function<size_t(const std::string& queue,
                                        const std::string& message)>;

  LoopbackLink() = default;
  LoopbackLink(const LoopbackLink&) = delete;
  LoopbackLink& operator=(const LoopbackLink&) = delete;

  void Send(const std::string& queue, std::string message);
  /// A QueueSend onto this link; the link must outlive its users.
  QueueSend sender() {
    return [this](const std::string& queue, std::string message) {
      Send(queue, std::move(message));
    };
  }

  /// The endpoint Pump delivers to.
  void Attach(TransportEndpoint* peer) { peer_ = peer; }

  /// One pump cycle of the attached peer: Receive for every queued
  /// message, then the peer's Tick. Returns how many notifications or
  /// requests Receive handled.
  size_t Pump();

  /// Hands every queued message, those sent while it runs included, to
  /// `receive` in send order. Returns the sum of what `receive` returned.
  size_t Drain(const Receiver& receive);

  /// Messages queued on `queue`, or on every queue when it is empty.
  size_t pending(std::string_view queue = {}) const;

 private:
  mutable std::mutex mu_;
  std::deque<std::pair<std::string, std::string>> fifo_;
  TransportEndpoint* peer_ = nullptr;
};

}  // namespace quaestor::invalidb

#endif  // QUAESTOR_INVALIDB_TRANSPORT_H_
