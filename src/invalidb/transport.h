#ifndef QUAESTOR_INVALIDB_TRANSPORT_H_
#define QUAESTOR_INVALIDB_TRANSPORT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "db/document.h"
#include "db/query.h"
#include "invalidb/cluster.h"
#include "invalidb/notification.h"
#include "invalidb/reliable_queue.h"
#include "kv/kv_store.h"
#include "obs/metrics.h"

namespace quaestor::invalidb {

/// Message-queue transport between Quaestor and InvaliDB (§4.1:
/// "Communication between QUAESTOR and InvaliDB is handled through Redis
/// message queues"). Requests (query activations/deactivations, change-
/// stream events) travel on one queue; notifications travel back on
/// another. Messages are self-describing JSON.
///
/// Queue names (namespaced by `prefix`): <prefix>:requests and
/// <prefix>:notifications. With the reliable layer enabled each direction
/// additionally uses "<queue>:acks" for delivery confirmations.
namespace transport {

/// Serialized message builders / parsers (exposed for tests). All
/// encoders emit canonical JSON in a single append pass — keys in sorted
/// order, byte-identical to serializing the equivalent db::Value tree.
/// Change events and notifications only travel inside batch envelopes.
///
/// One envelope carrying a commit-ordered slice of the change stream:
/// {"events":[<event spec>...],"op":"change_batch"}.
std::string EncodeChangeBatch(const std::vector<db::ChangeEvent>& events);
std::string EncodeRegister(const db::Query& query,
                           const std::vector<db::Document>& initial_result,
                           EventMask events, Micros evaluated_at);
std::string EncodeDeregister(const std::string& query_key);
std::string EncodeResize(size_t query_partitions, size_t object_partitions);
/// One envelope carrying every notification of one dispatch:
/// {"notifications":[<notification spec>...],"op":"notify_batch"}.
std::string EncodeNotificationBatch(const std::vector<Notification>& batch);

/// Streaming element appenders: one inner spec of a batch envelope,
/// appended to an accumulating buffer. The endpoints stage outgoing
/// batches as pre-encoded bytes (one append per event, no deep copies of
/// buffered events), so the flush just closes the envelope and sends.
void AppendChangeEventSpec(std::string* out, const db::ChangeEvent& event);
void AppendNotificationSpec(std::string* out, const Notification& n);
/// Decodes one notification spec (the inner element of a notify_batch).
Result<Notification> DecodeNotification(const db::Value& msg);

/// Decodes a document spec (internal wire format; exposed for tests).
Result<db::Document> DecodeDocument(const db::Value& spec);
/// Decodes one change-event spec ("after" + "kind" required;
/// "commit_time" falls back to the after-image write_time).
Result<db::ChangeEvent> DecodeChangeEvent(const db::Value& spec);
/// Decodes a change_batch envelope. The whole batch is rejected if any
/// inner event is malformed (a torn batch must not be half-applied).
Result<std::vector<db::ChangeEvent>> DecodeChangeBatch(const db::Value& msg);
Result<std::vector<db::ChangeEvent>> DecodeChangeBatch(
    const std::string& message);
/// Decodes a notify_batch envelope (all-or-nothing, like DecodeChangeBatch).
Result<std::vector<Notification>> DecodeNotificationBatch(
    const db::Value& msg);
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
  /// Flush once the oldest buffered event is this old (checked in Tick /
  /// DrainNotifications — manual-pump callers control the cadence).
  Micros flush_interval = 1 * kMicrosPerMilli;
};

/// Transport configuration: both queue directions share the reliable-
/// delivery settings (disabled by default — the seed wire format).
struct TransportOptions {
  ReliableOptions reliable;
  BatchOptions batching;
};

/// Delivery-quality counters for one transport endpoint.
struct TransportStats {
  /// Messages whose decode returned Status::Corruption (surfaced, not
  /// silently swallowed).
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
/// the open `prefix` plus one spec per item, so no staged event is deep
/// copied. Ship closes the envelope with `suffix` and sends it as one
/// message. Thread-safe: callers append from any thread while a pump
/// ships.
class StagedEnvelope {
 public:
  StagedEnvelope(Clock* clock, ReliableSender* sender, std::string prefix,
                 std::string suffix)
      : clock_(clock),
        sender_(sender),
        prefix_(std::move(prefix)),
        suffix_(std::move(suffix)) {}

  /// Appends one spec per item with `append_spec`, under one lock.
  template <typename Range, typename AppendSpec>
  void Append(const Range& items, AppendSpec append_spec) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& item : items) {
      if (count_ == 0) {
        oldest_ = clock_->NowMicros();
        json_ = prefix_;
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
  const std::string prefix_;
  const std::string suffix_;
  mutable std::mutex mu_;
  std::string json_;
  size_t count_ = 0;
  /// NowMicros when the staged run started.
  Micros oldest_ = 0;
  std::atomic<uint64_t> batches_sent_{0};
  std::atomic<uint64_t> batch_events_{0};
};

/// Where a transport endpoint's messages travel. The in-process medium is
/// a kv::KvStore: sends push onto its queues and the endpoint's pumps pop
/// them. Any other medium is just its send function, and it calls the
/// endpoint's Receive for every arrival (src/net does so on its event-loop
/// threads).
struct TransportMedium {
  TransportMedium(kv::KvStore* store) : kv(store), send(KvQueueSend(store)) {}
  TransportMedium(QueueSend fn) : send(std::move(fn)) {}

  kv::KvStore* kv = nullptr;
  QueueSend send;
};

/// What InvalidbRemote and InvalidbWorker share: a reliable sender behind
/// a staged batch envelope on the outgoing queue, a reliable receiver on
/// the incoming one, one receive path for everything that arrives, and
/// the in-process medium's pumps.
class TransportEndpoint {
 public:
  TransportEndpoint(const TransportEndpoint&) = delete;
  TransportEndpoint& operator=(const TransportEndpoint&) = delete;

  /// The receive path for one message that arrived on `queue`: an ack
  /// retires one of this endpoint's sends; a message on the incoming
  /// queue goes through the reliable receiver's decode, ack, dedup and
  /// reorder step to the endpoint's handler. Returns how many
  /// notifications (remote) or requests (worker) were handled.
  size_t Receive(const std::string& queue, const std::string& message);

  uint64_t decode_errors() const { return decode_errors_.load(); }
  TransportStats stats() const;

 protected:
  TransportEndpoint(Clock* clock, TransportMedium medium,
                    TransportOptions options, std::string outgoing,
                    std::string incoming, std::string sender_id,
                    ReliableOptions reliable, std::string envelope_open,
                    std::string envelope_close);
  ~TransportEndpoint() = default;

  /// Handles one delivered payload; returns what Receive counts for it.
  virtual size_t Handle(const std::string& payload) = 0;

  /// Retransmits what is due; on the in-process medium it first takes in
  /// the queued acks.
  void TickSender();

  /// In-process medium: pops the incoming queue into Receive. Returns
  /// what Receive counted.
  size_t DrainIncoming();

  kv::KvStore* const kv_;
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

/// The Quaestor-side stub: mirrors InvalidbCluster's interface but ships
/// every call through the request queue, and hands every notify_batch
/// envelope that Receive takes in to the sink.
class InvalidbRemote : public TransportEndpoint {
 public:
  InvalidbRemote(Clock* clock, TransportMedium medium, std::string prefix,
                 NotificationBatchSink sink,
                 TransportOptions options = TransportOptions());
  ~InvalidbRemote();

  void RegisterQuery(const db::Query& query,
                     const std::vector<db::Document>& initial_result,
                     EventMask events, Micros evaluated_at = -1);
  void DeregisterQuery(const std::string& query_key);
  void OnChange(const db::ChangeEvent& event);

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

  /// Delivers all currently queued notifications to the sink (manual
  /// pump; deterministic tests). Also ticks the request sender (acks +
  /// retransmits). Returns how many notifications were delivered.
  size_t DrainNotifications();

  /// Pumps the reliable machinery (and the batch age-out) without
  /// draining notifications. Any medium.
  void Tick();

  /// Request messages awaiting a worker ack (0 when reliability is off).
  size_t unacked_requests() const { return sender_.unacked(); }
  /// Out-of-order notifications parked until their gap fills.
  size_t pending_notifications() const { return receiver_.pending(); }
  /// Change events currently buffered awaiting a flush.
  size_t buffered_changes() const { return staged_.size(); }

 private:
  size_t Handle(const std::string& payload) override;

  NotificationBatchSink sink_;
};

/// The InvaliDB-side worker: owns a cluster, consumes the request queue,
/// and publishes notifications back. Notifications stage until max_batch
/// or the end of a pump cycle (FlushNotifications).
class InvalidbWorker : public TransportEndpoint {
 public:
  InvalidbWorker(Clock* clock, TransportMedium medium, std::string prefix,
                 InvalidbOptions options = InvalidbOptions(),
                 TransportOptions transport_options = TransportOptions());
  ~InvalidbWorker();

  /// Processes all currently queued requests (manual pump). Returns how
  /// many messages were handled; malformed messages are counted in
  /// decode_errors() and skipped. Also ticks the notification sender and
  /// flushes buffered notifications at the end of the pump.
  size_t ProcessPending();

  /// Ships the buffered notification batch now (no-op when nothing is
  /// buffered). Returns how many notifications shipped.
  size_t FlushNotifications();

  /// Pumps the reliable machinery without processing requests. Any
  /// medium.
  void Tick() { TickSender(); }

  InvalidbCluster& cluster() { return *cluster_; }

 private:
  /// Every request counts as handled, a malformed one included.
  size_t Handle(const std::string& message) override {
    HandleMessage(message);
    return 1;
  }
  void HandleMessage(const std::string& message);

  std::unique_ptr<InvalidbCluster> cluster_;
};

}  // namespace quaestor::invalidb

#endif  // QUAESTOR_INVALIDB_TRANSPORT_H_
