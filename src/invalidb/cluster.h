#ifndef QUAESTOR_INVALIDB_CLUSTER_H_
#define QUAESTOR_INVALIDB_CLUSTER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/queue.h"
#include "common/result.h"
#include "db/document.h"
#include "db/query.h"
#include "invalidb/matching_node.h"
#include "invalidb/notification.h"
#include "invalidb/pipeline.h"
#include "invalidb/sorted_layer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace quaestor::invalidb {

/// How many recent change events are replayed to a newly activated query
/// to close the activation race (§4.1).
inline constexpr size_t kReplayBufferSize = 128;

/// Deployment shape of an InvaliDB cluster (Figure 6): a grid of
/// `query_partitions` columns × `object_partitions` rows of matching
/// nodes. Every query lives in one column (all of its rows); every record
/// lives in one row (all of its columns); each update is therefore matched
/// against each query by exactly one node.
struct InvalidbOptions {
  size_t query_partitions = 1;
  size_t object_partitions = 1;
  /// If true, every matching node runs on its own worker thread fed by a
  /// bounded queue (the real-throughput mode, Figure 12). If false, all
  /// matching runs synchronously in the caller — deterministic, used by
  /// the simulation.
  bool threaded = false;
  size_t node_queue_capacity = 1 << 14;
};

/// Per-cluster activity counters.
struct ClusterStats {
  uint64_t changes_ingested = 0;
  uint64_t notifications_delivered = 0;
  /// Failover accounting: crashes and work lost while dead (recovery is
  /// an evaluator Resize, counted in rebalance_resizes).
  uint64_t node_kills = 0;
  uint64_t tasks_dropped_dead = 0;
  /// query×update predicate evaluations actually performed (with indexed
  /// matching: candidates only).
  uint64_t match_checks = 0;
  /// What a brute-force scan would have performed (installed queries ×
  /// events, summed per node). match_checks / match_checks_naive is the
  /// per-cluster match-check reduction.
  uint64_t match_checks_naive = 0;
  /// Candidates produced by the per-node query indexes (eq/range hits).
  uint64_t index_candidates = 0;
  /// Candidates from the residual (non-indexable) query lists.
  uint64_t residual_candidates = 0;
  /// Ingest batches accepted by OnChangeBatch.
  uint64_t change_batches = 0;
  /// Elastic scale-out accounting (live Resize()).
  uint64_t rebalance_resizes = 0;
  uint64_t rebalance_queries_reinstalled = 0;
  uint64_t rebalance_events_replayed = 0;
  uint64_t rebalance_nodes_added = 0;
  uint64_t rebalance_nodes_removed = 0;
  /// Total stop-the-world migration pause across all resizes (µs).
  uint64_t rebalance_pause_us_total = 0;

  /// Adds these totals into `invalidb_*` registry counters.
  void ExportTo(obs::MetricsRegistry* registry,
                const obs::Labels& labels = {}) const;
};

/// The InvaliDB cluster: registers cached queries, ingests the database
/// change stream, and emits invalidation notifications in real time. The
/// in-process Pipeline.
class InvalidbCluster : public Pipeline {
 public:
  /// `sink` receives the notifications of each matching dispatch in one
  /// call (commit order within the call). In threaded mode it is invoked
  /// from worker threads, concurrently across nodes.
  InvalidbCluster(Clock* clock, InvalidbOptions options,
                  NotificationBatchSink sink);
  ~InvalidbCluster() override;

  InvalidbCluster(const InvalidbCluster&) = delete;
  InvalidbCluster& operator=(const InvalidbCluster&) = delete;

  /// Activates a query. `initial_result` must be the query's current
  /// matching set evaluated by Quaestor — for stateful queries (ORDER
  /// BY/LIMIT/OFFSET) the *unwindowed* predicate-matching set. The query
  /// is delivered every event it can emit (raw add/remove/change for a
  /// stateless query, the sorted layer's windowed events for a stateful
  /// one).
  ///
  /// `evaluated_at` is the time the initial result was computed; recent
  /// change events committed after it are replayed against the new query
  /// to close the activation race (§4.1). Defaults to "now".
  Status RegisterQuery(const db::Query& query,
                       const std::vector<db::Document>& initial_result,
                       Micros evaluated_at = -1) override;

  /// Deactivates a query.
  void DeregisterQuery(const std::string& query_key) override;

  bool IsRegistered(const std::string& query_key) const;
  size_t RegisteredCount() const;

  /// Ingests a contiguous slice of the change stream (record after-images
  /// in commit order, §4.1) — the only way a change enters the cluster; a
  /// single event is a batch of one. One topology/replay/stats pass and
  /// one task per occupied (row, column); each node matches its slice in
  /// one MatchBatch pass, so batch boundaries change no notification.
  void OnChangeBatch(std::vector<db::ChangeEvent> events);
  void OnChange(const db::ChangeEvent& event) override {
    OnChangeBatch({event});
  }

  /// Every matching node alive: a dead node silently loses every
  /// invalidation routed through it.
  bool Healthy() const override { return AliveCount() == NumNodes(); }

  // -- Node failover --

  /// Evaluates a (predicate-only) query against the authoritative
  /// database; an evaluator Resize uses it to rebuild matching state.
  using ResultEvaluator =
      std::function<std::vector<db::Document>(const db::Query&)>;

  /// Crashes one matching node (row-major index): its in-memory state is
  /// wiped and every non-control task it receives while dead is dropped
  /// (counted in tasks_dropped_dead). Subscriptions survive at the
  /// cluster level — they are the registry the failover rebuild, an
  /// evaluator Resize (to the current shape or any other), starts from.
  void KillNode(size_t node_index);

  size_t AliveCount() const;

  // -- Elastic scale-out --

  /// Live-repartitions the cluster to a `new_query_partitions ×
  /// new_object_partitions` grid without dropping or duplicating
  /// notifications. The target grid is built concurrently with traffic;
  /// the cutover is stop-the-world: new submissions block on the topology
  /// lock, in-flight tasks drain, every registered query is re-installed
  /// on the target grid via stable hashing, and the grids swap. After
  /// Resize() the cluster's notifications are byte-identical to a
  /// freshly-constructed cluster of the target size whose queries were
  /// registered with results evaluated at the cutover instant.
  ///
  /// With `evaluate`, each query's matching set is re-evaluated against
  /// the authoritative database: this also re-seeds the sorted layer for
  /// stateful queries and recovers state lost to dead nodes — node
  /// failover is this path on the current shape. Without it, state is
  /// handed off directly from the old grid (union of each query's per-row
  /// matching-id shards) — cheaper, but it requires every old node alive
  /// and leaves the sorted layer untouched.
  ///
  /// Resizing to the current shape is permitted and acts as a full grid
  /// rebuild. Returns the number of queries re-installed. Must not be
  /// called from a notification sink.
  size_t Resize(size_t new_query_partitions, size_t new_object_partitions,
                const ResultEvaluator& evaluate = {});

  /// Stop-the-world pause of each completed Resize (ms).
  Histogram MigrationPauseHistogram() const;

  /// Blocks until all queued work is processed (threaded mode; immediate
  /// otherwise).
  void Flush();

  /// Visible window of a registered stateful query (testing aid).
  std::vector<std::string> SortedWindow(const std::string& query_key) const {
    return sorted_layer_.WindowIds(query_key);
  }

  ClusterStats stats() const;

  /// Installs a request tracer on the cluster and all matching nodes
  /// (spans: invalidb.match per node match, invalidb.notify per sink
  /// dispatch). Intended for the synchronous (non-threaded) mode; pass
  /// nullptr to detach.
  void set_tracer(obs::Tracer* tracer);

  /// Notification latency from write commit to sink delivery (ms).
  Histogram LatencyHistogram() const;

  size_t NumNodes() const;
  const InvalidbOptions& options() const { return options_; }

  /// Installed-query count per node (row-major: row × query_partitions +
  /// column) — load-balance diagnostics. Safe to call at any time, even
  /// with registrations in flight or a Resize() in progress: the per-node
  /// counters are atomics and the node vector is read under the topology
  /// lock. Counts are naturally momentary while tasks are queued;
  /// Flush() first for an exact snapshot in threaded mode.
  std::vector<size_t> QueriesPerNode() const;

  /// Processed change-operations per node.
  std::vector<uint64_t> OpsPerNode() const;

 private:
  struct RegisterTask {
    db::Query query;
    std::string key;
    std::vector<std::string> initial_ids;     // this node's object partition
    std::vector<db::ChangeEvent> replay;      // recent events to replay
  };
  struct DeregisterTask {
    std::string key;
  };
  /// A row-grouped slice of one ingest batch, matched in one MatchBatch
  /// pass (events stay in commit order). The slice is immutable and
  /// shared across the row's column tasks, so fanning a batch out to N
  /// query partitions costs N refcounts instead of N deep copies.
  struct ChangeBatchTask {
    std::shared_ptr<const std::vector<db::ChangeEvent>> events;
  };
  /// Control task (failover): processed even by a dead node, in queue
  /// order, so the alive flag flips exactly where the crash sits in the
  /// task stream.
  struct KillTask {};
  using Task =
      std::variant<RegisterTask, DeregisterTask, ChangeBatchTask, KillTask>;

  struct Node {
    MatchingNode matcher;
    std::unique_ptr<BoundedQueue<Task>> queue;  // threaded mode only
    std::thread worker;
    /// Cleared by KillTask execution on the worker itself; a node comes
    /// back only as a fresh node of an evaluator Resize.
    std::atomic<bool> alive{true};
  };

  /// Per-thread reusable notification buffers (hot-path allocation churn:
  /// one MatchBatch plus one dispatch per change task per node).
  struct NotifyScratch {
    std::vector<Notification> deliverable;
    /// Batch matching: all notifications of one MatchBatch plus the
    /// per-event slice boundaries.
    std::vector<Notification> batch_raw;
    std::vector<size_t> offsets;
  };

  struct Subscription {
    bool stateful;
    /// The full (windowed) query — an evaluator Resize needs it to
    /// re-evaluate results and re-seed the sorted layer after a crash.
    db::Query query;
  };

  size_t ColumnOf(const std::string& query_key) const;
  size_t RowOf(const std::string& record_id) const;
  Node& NodeAt(size_t column, size_t row) {
    return *nodes_[row * options_.query_partitions + column];
  }

  void ExecuteTask(Node& node, Task& task, NotifyScratch& scratch);
  void Submit(size_t column, size_t row, Task task);
  void SubmitToNode(Node& node, Task task);
  /// Change events with commit_time > `eval_time` (the §4.1 activation
  /// race: they may be missing from a result evaluated at `eval_time`).
  std::vector<db::ChangeEvent> ReplayAfter(Micros eval_time) const;
  /// Matches `events` (one row's share of a replay) against the query
  /// `key` just installed on `node` and delivers the notifications.
  void Replay(Node& node, const std::string& key,
              const std::vector<db::ChangeEvent>& events,
              NotifyScratch& scratch);
  /// Consumes `scratch.batch_raw` using the per-event slice boundaries in
  /// `offsets` (each slice is translated against its own after-image),
  /// then delivers everything under one sink lock.
  void DispatchBatch(NotifyScratch& scratch,
                     const std::vector<db::ChangeEvent>& events,
                     const std::vector<size_t>& offsets);
  /// Appends one raw notification (for stateful queries, its windowed
  /// translation by the sorted layer) to scratch.deliverable, unless the
  /// query was deregistered meanwhile.
  void Translate(Notification& n, const db::Document& after_image,
                 NotifyScratch& scratch);
  /// Accounts scratch.deliverable under one sink_mu_ acquisition, then
  /// hands it to the sink in one call.
  void Deliver(NotifyScratch& scratch);
  void WorkerLoop(Node* node);

  Clock* clock_;
  /// Grid shape; query_partitions/object_partitions mutate only under an
  /// exclusive topology_mu_ (Resize cutover).
  InvalidbOptions options_;
  NotificationBatchSink sink_;
  obs::Tracer* tracer_ = nullptr;
  /// Protects nodes_ and the partition counts in options_ against a
  /// concurrent Resize(). Every public operation that routes to or reads
  /// the grid takes it shared (reentrancy-safe via a thread-local
  /// held-cluster list, so sinks may call back into the cluster); Resize
  /// takes it exclusive for the cutover.
  mutable std::shared_mutex topology_mu_;
  /// Synchronous mode: serializes task execution across calling threads
  /// (a MatchingNode is not thread-safe; threaded mode gets the same from
  /// one worker per node). Recursive because a sink may re-enter the
  /// cluster on the same thread. Ordered after topology_mu_: every
  /// submission holds it shared first.
  std::recursive_mutex sync_mu_;
  /// Serializes concurrent Resize() calls ahead of the topology lock.
  std::mutex resize_mu_;
  std::vector<std::unique_ptr<Node>> nodes_;
  SortedLayer sorted_layer_;

  mutable std::mutex subs_mu_;
  std::unordered_map<std::string, Subscription> subscriptions_;

  mutable std::mutex replay_mu_;
  std::deque<db::ChangeEvent> replay_buffer_;
  /// Highest commit_time ever ingested. Resize() uses it to lower-bound
  /// its eval_time: every drained event is already matched and delivered,
  /// so it must never re-enter via the replay buffer even when the wall
  /// clock lags the stream's commit timestamps.
  std::atomic<Micros> last_ingested_commit_{0};

  mutable std::mutex sink_mu_;
  Histogram latency_;  // guarded by sink_mu_
  Histogram migration_pause_;  // guarded by sink_mu_ (ms per Resize)
  ClusterStats stats_;  // guarded by sink_mu_

  std::atomic<int64_t> in_flight_{0};
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
};

}  // namespace quaestor::invalidb

#endif  // QUAESTOR_INVALIDB_CLUSTER_H_
