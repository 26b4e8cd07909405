#include "invalidb/cluster.h"

#include <algorithm>

#include "common/hash.h"

namespace quaestor::invalidb {
namespace {

/// Clusters whose topology lock is currently held by this thread. A sink
/// invoked during dispatch may legitimately call back into the same
/// cluster (synchronous mode) — the nested call must not re-acquire the
/// shared topology lock, which would deadlock against a writer waiting in
/// Resize(). Keyed per cluster so chained distinct clusters still lock.
thread_local std::vector<const void*> t_held_topology;

bool TopologyHeldByThisThread(const void* cluster) {
  return std::find(t_held_topology.begin(), t_held_topology.end(), cluster) !=
         t_held_topology.end();
}

/// Shared (reader) hold on a cluster's topology lock, reentrancy-aware.
class TopologyReadGuard {
 public:
  TopologyReadGuard(std::shared_mutex* mu, const void* cluster)
      : mu_(mu), cluster_(cluster),
        engaged_(!TopologyHeldByThisThread(cluster)) {
    if (engaged_) {
      mu_->lock_shared();
      t_held_topology.push_back(cluster_);
    }
  }
  ~TopologyReadGuard() {
    if (engaged_) {
      t_held_topology.pop_back();
      mu_->unlock_shared();
    }
  }
  TopologyReadGuard(const TopologyReadGuard&) = delete;
  TopologyReadGuard& operator=(const TopologyReadGuard&) = delete;

 private:
  std::shared_mutex* mu_;
  const void* cluster_;
  bool engaged_;
};

}  // namespace

void ClusterStats::ExportTo(obs::MetricsRegistry* registry,
                            const obs::Labels& labels) const {
  registry->Count("invalidb_changes_ingested", labels, changes_ingested);
  registry->Count("invalidb_notifications_delivered", labels,
                  notifications_delivered);
  registry->Count("invalidb_node_kills", labels, node_kills);
  registry->Count("invalidb_tasks_dropped_dead", labels, tasks_dropped_dead);
  registry->Count("invalidb_match_checks", labels, match_checks);
  registry->Count("invalidb_match_checks_naive", labels, match_checks_naive);
  registry->Count("invalidb_index_candidates", labels, index_candidates);
  registry->Count("invalidb_residual_candidates", labels,
                  residual_candidates);
  registry->Count("invalidb_change_batches", labels, change_batches);
  registry->Count("rebalance_resizes", labels, rebalance_resizes);
  registry->Count("rebalance_queries_reinstalled", labels,
                  rebalance_queries_reinstalled);
  registry->Count("rebalance_events_replayed", labels,
                  rebalance_events_replayed);
  registry->Count("rebalance_nodes_added", labels, rebalance_nodes_added);
  registry->Count("rebalance_nodes_removed", labels, rebalance_nodes_removed);
  registry->Count("rebalance_pause_us_total", labels,
                  rebalance_pause_us_total);
}

InvalidbCluster::InvalidbCluster(Clock* clock, InvalidbOptions options,
                                 NotificationBatchSink sink)
    : clock_(clock), options_(options), sink_(std::move(sink)) {
  if (options_.query_partitions == 0) options_.query_partitions = 1;
  if (options_.object_partitions == 0) options_.object_partitions = 1;
  const size_t n = options_.query_partitions * options_.object_partitions;
  nodes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto node = std::make_unique<Node>();
    if (options_.threaded) {
      node->queue =
          std::make_unique<BoundedQueue<Task>>(options_.node_queue_capacity);
    }
    nodes_.push_back(std::move(node));
  }
  if (options_.threaded) {
    for (auto& node : nodes_) {
      node->worker = std::thread(&InvalidbCluster::WorkerLoop, this,
                                 node.get());
    }
  }
}

InvalidbCluster::~InvalidbCluster() {
  if (options_.threaded) {
    for (auto& node : nodes_) node->queue->Close();
    for (auto& node : nodes_) {
      if (node->worker.joinable()) node->worker.join();
    }
  }
}

size_t InvalidbCluster::ColumnOf(const std::string& query_key) const {
  return static_cast<size_t>(Hash64(query_key, /*seed=*/0x9c0d)) %
         options_.query_partitions;
}

size_t InvalidbCluster::RowOf(const std::string& record_id) const {
  return static_cast<size_t>(Hash64(record_id, /*seed=*/0x51f1)) %
         options_.object_partitions;
}

void InvalidbCluster::Submit(size_t column, size_t row, Task task) {
  SubmitToNode(NodeAt(column, row), std::move(task));
}

void InvalidbCluster::SubmitToNode(Node& node, Task task) {
  if (options_.threaded) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    if (!node.queue->Push(std::move(task))) {
      // Queue closed during shutdown.
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
  } else {
    // Synchronous mode executes in the caller, one caller at a time. A
    // sink that re-enters a synchronous cluster on the same thread (e.g.
    // chained clusters) must not clobber the outer call's buffers, so
    // reentrant calls get a local scratch.
    std::lock_guard<std::recursive_mutex> lock(sync_mu_);
    static thread_local NotifyScratch scratch;
    static thread_local bool scratch_busy = false;
    if (scratch_busy) {
      NotifyScratch local;
      ExecuteTask(node, task, local);
    } else {
      scratch_busy = true;
      ExecuteTask(node, task, scratch);
      scratch_busy = false;
    }
  }
}

void InvalidbCluster::WorkerLoop(Node* node) {
  NotifyScratch scratch;
  std::vector<Task> drained;
  const auto retire = [this](int64_t executed) {
    if (in_flight_.fetch_sub(executed, std::memory_order_acq_rel) ==
        executed) {
      std::lock_guard<std::mutex> lock(flush_mu_);
      flush_cv_.notify_all();
    }
  };
  const auto is_single_event = [](const Task& task) {
    const auto* batch = std::get_if<ChangeBatchTask>(&task);
    return batch != nullptr && batch->events->size() == 1;
  };
  for (;;) {
    std::optional<Task> task = node->queue->Pop();
    if (!task.has_value()) return;
    // Drain whatever else is already queued in one lock acquisition, then
    // work through the backlog without touching the queue again.
    drained.clear();
    drained.push_back(std::move(*task));
    node->queue->TryPopAll(&drained);
    size_t i = 0;
    while (i < drained.size()) {
      size_t end = i + 1;
      if (is_single_event(drained[i])) {
        while (end < drained.size() && is_single_event(drained[end])) ++end;
      }
      if (end - i > 1) {
        // Coalesce a run of queued one-event change tasks (a caller
        // submitting event by event) into one batch: one match pass and
        // one dispatch instead of one each. The slices are shared with
        // other columns, so the run copies its events. Larger slices
        // already amortize that overhead and run as they are, uncopied.
        auto run = std::make_shared<std::vector<db::ChangeEvent>>();
        run->reserve(end - i);
        for (size_t j = i; j < end; ++j) {
          run->push_back(std::get<ChangeBatchTask>(drained[j]).events->front());
        }
        drained[i] = ChangeBatchTask{std::move(run)};
      }
      ExecuteTask(*node, drained[i], scratch);
      retire(static_cast<int64_t>(end - i));
      i = end;
    }
  }
}

void InvalidbCluster::ExecuteTask(Node& node, Task& task,
                                  NotifyScratch& scratch) {
  // The control task executes even on a dead node, in queue order, so the
  // crash window starts exactly where it sits in the task stream.
  if (std::get_if<KillTask>(&task) != nullptr) {
    node.matcher.Clear();
    node.alive.store(false, std::memory_order_release);
    return;
  }
  if (!node.alive.load(std::memory_order_acquire)) {
    // A crashed node loses everything sent to it until an evaluator Resize
    // replaces it. A change batch counts once per event it carries, so
    // drop accounting does not depend on batch boundaries.
    const auto* dead_batch = std::get_if<ChangeBatchTask>(&task);
    std::lock_guard<std::mutex> lock(sink_mu_);
    stats_.tasks_dropped_dead +=
        dead_batch != nullptr ? dead_batch->events->size() : 1;
    return;
  }
  if (auto* reg = std::get_if<RegisterTask>(&task)) {
    node.matcher.AddQuery(reg->query, reg->key,
                          std::move(reg->initial_ids));
    // Replay recently received objects for this query (§4.1): closes the
    // window between initial evaluation and activation.
    Replay(node, reg->key, reg->replay, scratch);
  } else if (auto* dereg = std::get_if<DeregisterTask>(&task)) {
    node.matcher.RemoveQuery(dereg->key);
  } else if (auto* batch = std::get_if<ChangeBatchTask>(&task)) {
    scratch.batch_raw.clear();
    const MatchingNode::MatchStats ms = node.matcher.MatchBatch(
        *batch->events, &scratch.batch_raw, &scratch.offsets);
    {
      std::lock_guard<std::mutex> lock(sink_mu_);
      stats_.match_checks += ms.checked;
      stats_.match_checks_naive += ms.installed;
      stats_.index_candidates += ms.index_candidates;
      stats_.residual_candidates += ms.residual_candidates;
    }
    if (!scratch.batch_raw.empty()) {
      DispatchBatch(scratch, *batch->events, scratch.offsets);
    }
  }
}

void InvalidbCluster::Translate(Notification& n,
                                const db::Document& after_image,
                                NotifyScratch& scratch) {
  bool stateful;
  {
    // Only statefulness is needed here — copying the whole Subscription
    // would deep-copy its query filter per notification.
    std::lock_guard<std::mutex> lock(subs_mu_);
    auto it = subscriptions_.find(n.query_key);
    if (it == subscriptions_.end()) return;  // deregistered meanwhile
    stateful = it->second.stateful;
  }
  if (stateful) {
    // Translate raw membership events into windowed events.
    sorted_layer_.OnRawEvent(n.query_key, n.type, after_image, n.event_time,
                             &scratch.deliverable);
  } else {
    scratch.deliverable.push_back(std::move(n));
  }
}

void InvalidbCluster::Deliver(NotifyScratch& scratch) {
  std::vector<Notification>& deliverable = scratch.deliverable;
  if (deliverable.empty()) return;
  const Micros now = clock_->NowMicros();
  {
    std::lock_guard<std::mutex> lock(sink_mu_);
    for (const Notification& n : deliverable) {
      latency_.Record(MicrosToMillis(now - n.event_time));
    }
    stats_.notifications_delivered += deliverable.size();
  }
  // Fan out without holding sink_mu_: the sink may do real work (encode +
  // reliable send). Per-record order is safe — a record always hashes to
  // one row, whose worker delivers sequentially; cross-record order for a
  // query was never specified.
  sink_(deliverable);
  deliverable.clear();
}

std::vector<db::ChangeEvent> InvalidbCluster::ReplayAfter(
    Micros eval_time) const {
  std::vector<db::ChangeEvent> replay;
  std::lock_guard<std::mutex> lock(replay_mu_);
  for (const db::ChangeEvent& ev : replay_buffer_) {
    if (ev.commit_time > eval_time) replay.push_back(ev);
  }
  return replay;
}

void InvalidbCluster::Replay(Node& node, const std::string& key,
                             const std::vector<db::ChangeEvent>& events,
                             NotifyScratch& scratch) {
  scratch.batch_raw.clear();
  scratch.offsets.assign(1, 0);
  for (const db::ChangeEvent& ev : events) {
    node.matcher.MatchSingle(key, ev, &scratch.batch_raw);
    scratch.offsets.push_back(scratch.batch_raw.size());
  }
  if (!scratch.batch_raw.empty()) {
    DispatchBatch(scratch, events, scratch.offsets);
  }
}

void InvalidbCluster::DispatchBatch(NotifyScratch& scratch,
                                    const std::vector<db::ChangeEvent>& events,
                                    const std::vector<size_t>& offsets) {
  obs::ScopedSpan span(tracer_, "invalidb.notify");
  scratch.deliverable.clear();
  // Each event's notifications must be translated against that event's own
  // after-image (the sorted layer stores the document), so walk the batch
  // through the per-event slices recorded by MatchBatch.
  for (size_t i = 0; i < events.size(); ++i) {
    for (size_t j = offsets[i]; j < offsets[i + 1]; ++j) {
      Translate(scratch.batch_raw[j], events[i].after, scratch);
    }
  }
  scratch.batch_raw.clear();
  Deliver(scratch);
}

Status InvalidbCluster::RegisterQuery(
    const db::Query& query, const std::vector<db::Document>& initial_result,
    Micros evaluated_at) {
  // Held across the whole registration so the column/row computation and
  // the submissions target the same topology (a concurrent Resize would
  // otherwise re-shard between them). Resize re-installs everything in
  // subscriptions_, so a registration strictly-before or strictly-after a
  // cutover lands on the live grid either way.
  TopologyReadGuard topology(&topology_mu_, this);
  const std::string key = query.NormalizedKey();
  const bool stateful = !query.IsStateless();
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    if (subscriptions_.count(key) > 0) {
      return Status::AlreadyExists(key);
    }
    subscriptions_[key] = Subscription{stateful, query};
  }
  if (stateful) {
    sorted_layer_.AddQuery(query, key, initial_result);
  }
  // The grid matches the bare predicate; windowing happens in the sorted
  // layer.
  db::Query base(query.table(), query.filter());

  // Snapshot the replay buffer once; each cell replays it against the new
  // query after installation. Events committed at or before the initial
  // evaluation are already reflected in `initial_result` — replaying them
  // would produce spurious invalidations — so only strictly newer events
  // are replayed (the activation race of §4.1 only involves writes that
  // commit after the evaluation).
  const std::vector<db::ChangeEvent> replay =
      ReplayAfter(evaluated_at < 0 ? clock_->NowMicros() : evaluated_at);

  // Partition the initial result ids over the column's rows.
  const size_t column = ColumnOf(key);
  std::vector<std::vector<std::string>> ids_by_row(
      options_.object_partitions);
  for (const db::Document& doc : initial_result) {
    ids_by_row[RowOf(doc.id)].push_back(doc.id);
  }
  for (size_t row = 0; row < options_.object_partitions; ++row) {
    RegisterTask task;
    task.query = base;
    task.key = key;
    task.initial_ids = std::move(ids_by_row[row]);
    // Replay only events owned by this row.
    for (const db::ChangeEvent& ev : replay) {
      if (RowOf(ev.after.id) == row) task.replay.push_back(ev);
    }
    Submit(column, row, Task(std::move(task)));
  }
  return Status::OK();
}

void InvalidbCluster::DeregisterQuery(const std::string& query_key) {
  TopologyReadGuard topology(&topology_mu_, this);
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    if (subscriptions_.erase(query_key) == 0) return;
  }
  sorted_layer_.RemoveQuery(query_key);
  const size_t column = ColumnOf(query_key);
  for (size_t row = 0; row < options_.object_partitions; ++row) {
    Submit(column, row, Task(DeregisterTask{query_key}));
  }
}

bool InvalidbCluster::IsRegistered(const std::string& query_key) const {
  std::lock_guard<std::mutex> lock(subs_mu_);
  return subscriptions_.count(query_key) > 0;
}

size_t InvalidbCluster::RegisteredCount() const {
  std::lock_guard<std::mutex> lock(subs_mu_);
  return subscriptions_.size();
}

void InvalidbCluster::OnChangeBatch(std::vector<db::ChangeEvent> events) {
  if (events.empty()) return;
  TopologyReadGuard topology(&topology_mu_, this);
  {
    std::lock_guard<std::mutex> lock(replay_mu_);
    for (const db::ChangeEvent& event : events) {
      replay_buffer_.push_back(event);
      Micros prev = last_ingested_commit_.load(std::memory_order_relaxed);
      while (prev < event.commit_time &&
             !last_ingested_commit_.compare_exchange_weak(
                 prev, event.commit_time, std::memory_order_relaxed)) {
      }
    }
    while (replay_buffer_.size() > kReplayBufferSize) {
      replay_buffer_.pop_front();
    }
  }
  {
    std::lock_guard<std::mutex> lock(sink_mu_);
    stats_.changes_ingested += events.size();
    stats_.change_batches++;
  }
  // Group by object-partition row, preserving commit order within each row
  // (events for different records are only ordered per record, and one
  // record always hashes to one row, so per-record order is preserved).
  // The replay buffer took its copies above, so the ingest batch can be
  // carved up by move; each row slice is then shared read-only across the
  // row's column tasks.
  std::vector<std::vector<db::ChangeEvent>> by_row(
      options_.object_partitions);
  for (db::ChangeEvent& event : events) {
    const size_t row = RowOf(event.after.id);
    by_row[row].push_back(std::move(event));
  }
  for (size_t row = 0; row < options_.object_partitions; ++row) {
    if (by_row[row].empty()) continue;
    auto slice = std::make_shared<const std::vector<db::ChangeEvent>>(
        std::move(by_row[row]));
    for (size_t col = 0; col < options_.query_partitions; ++col) {
      Submit(col, row, Task(ChangeBatchTask{slice}));
    }
  }
}

void InvalidbCluster::KillNode(size_t node_index) {
  TopologyReadGuard topology(&topology_mu_, this);
  if (node_index >= nodes_.size()) return;
  {
    std::lock_guard<std::mutex> lock(sink_mu_);
    stats_.node_kills++;
  }
  SubmitToNode(*nodes_[node_index], Task(KillTask{}));
}

size_t InvalidbCluster::Resize(size_t new_query_partitions,
                               size_t new_object_partitions,
                               const ResultEvaluator& evaluate) {
  if (new_query_partitions == 0) new_query_partitions = 1;
  if (new_object_partitions == 0) new_object_partitions = 1;
  // Serializes concurrent resizes without blocking traffic: the expensive
  // grid construction below runs before the topology lock is taken.
  std::lock_guard<std::mutex> serialize(resize_mu_);

  const size_t new_n = new_query_partitions * new_object_partitions;
  std::vector<std::unique_ptr<Node>> fresh;
  fresh.reserve(new_n);
  for (size_t i = 0; i < new_n; ++i) {
    auto node = std::make_unique<Node>();
    if (options_.threaded) {
      node->queue =
          std::make_unique<BoundedQueue<Task>>(options_.node_queue_capacity);
    }
    fresh.push_back(std::move(node));
  }

  obs::ScopedSpan span(tracer_, "invalidb.resize");

  // ---- Stop the world: block new submissions, drain in-flight tasks ----
  std::unique_lock<std::shared_mutex> topology(topology_mu_);
  // Mark the lock held so replay dispatch below may re-enter this cluster
  // through a sink without self-deadlocking on the topology lock.
  t_held_topology.push_back(this);
  const Micros pause_start = clock_->NowMicros();
  if (options_.threaded) {
    std::unique_lock<std::mutex> lock(flush_mu_);
    flush_cv_.wait(lock, [this] {
      return in_flight_.load(std::memory_order_acquire) == 0;
    });
  }

  // The old grid is quiescent: every submitted task has executed, so
  // every buffered change event has already been matched and delivered.
  // eval_time must dominate every drained commit_time or those events
  // would re-match on the new grid as duplicates; the wall clock alone is
  // not enough because stream commit timestamps may run ahead of it, so
  // take the max with the highest ingested commit_time. Events that
  // arrive after the cutover land on the new grid directly (and also in
  // the replay filter, which stays as the §4.1 activation-race replay a
  // fresh registration would perform).
  const Micros eval_time =
      std::max(clock_->NowMicros(),
               last_ingested_commit_.load(std::memory_order_relaxed));

  std::vector<std::pair<std::string, Subscription>> registry;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    registry.reserve(subscriptions_.size());
    for (const auto& [key, sub] : subscriptions_) {
      registry.emplace_back(key, sub);
    }
  }
  std::sort(registry.begin(), registry.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  const auto new_column = [&](const std::string& key) {
    return static_cast<size_t>(Hash64(key, /*seed=*/0x9c0d)) %
           new_query_partitions;
  };
  const auto new_row = [&](const std::string& id) {
    return static_cast<size_t>(Hash64(id, /*seed=*/0x51f1)) %
           new_object_partitions;
  };
  std::vector<std::vector<db::ChangeEvent>> replay_by_row(
      new_object_partitions);
  for (db::ChangeEvent& ev : ReplayAfter(eval_time)) {
    replay_by_row[new_row(ev.after.id)].push_back(std::move(ev));
  }

  uint64_t events_replayed = 0;
  NotifyScratch scratch;
  std::vector<std::vector<std::string>> ids_by_row(new_object_partitions);
  for (auto& [key, sub] : registry) {
    db::Query base(sub.query.table(), sub.query.filter());
    std::vector<std::string> ids;
    if (evaluate) {
      // Registry-rebuild path (also node failover): authoritative
      // re-evaluation. Also re-seeds the sorted layer, whose window may
      // have drifted if nodes died before this resize.
      const std::vector<db::Document> result = evaluate(base);
      if (sub.stateful) {
        sorted_layer_.RemoveQuery(key);
        sorted_layer_.AddQuery(sub.query, key, result);
      }
      ids.reserve(result.size());
      for (const db::Document& doc : result) ids.push_back(doc.id);
    } else {
      // State handoff: this query's matching set is the union of its
      // per-row shards on the (healthy, drained) old grid. Dead nodes
      // hold empty matchers — recover through the evaluator path instead.
      const size_t old_col = ColumnOf(key);
      for (size_t row = 0; row < options_.object_partitions; ++row) {
        std::vector<std::string> shard =
            NodeAt(old_col, row).matcher.MatchingIdsOf(key);
        ids.insert(ids.end(), std::make_move_iterator(shard.begin()),
                   std::make_move_iterator(shard.end()));
      }
      std::sort(ids.begin(), ids.end());
    }

    // Install directly into the target cell — its worker is not running
    // yet, so the matcher is exclusively ours.
    for (auto& row_ids : ids_by_row) row_ids.clear();
    for (std::string& id : ids) {
      ids_by_row[new_row(id)].push_back(std::move(id));
    }
    const size_t col = new_column(key);
    for (size_t row = 0; row < new_object_partitions; ++row) {
      Node& node = *fresh[row * new_query_partitions + col];
      node.matcher.AddQuery(base, key, std::move(ids_by_row[row]));
      Replay(node, key, replay_by_row[row], scratch);
      events_replayed += replay_by_row[row].size();
    }
  }

  // ---- Cutover ----
  std::vector<std::unique_ptr<Node>> retired = std::move(nodes_);
  nodes_ = std::move(fresh);
  options_.query_partitions = new_query_partitions;
  options_.object_partitions = new_object_partitions;
  if (tracer_ != nullptr) {
    for (auto& node : nodes_) node->matcher.set_tracer(tracer_);
  }
  if (options_.threaded) {
    for (auto& node : nodes_) {
      node->worker =
          std::thread(&InvalidbCluster::WorkerLoop, this, node.get());
    }
  }

  const Micros pause_end = clock_->NowMicros();
  const size_t old_n = retired.size();
  {
    std::lock_guard<std::mutex> lock(sink_mu_);
    stats_.rebalance_resizes++;
    stats_.rebalance_queries_reinstalled += registry.size();
    stats_.rebalance_events_replayed += events_replayed;
    if (new_n > old_n) {
      stats_.rebalance_nodes_added += new_n - old_n;
    } else {
      stats_.rebalance_nodes_removed += old_n - new_n;
    }
    stats_.rebalance_pause_us_total +=
        static_cast<uint64_t>(pause_end - pause_start);
    migration_pause_.Record(MicrosToMillis(pause_end - pause_start));
  }
  span.Annotate("queries_reinstalled", std::to_string(registry.size()));
  span.Annotate("pause_us", std::to_string(pause_end - pause_start));
  t_held_topology.pop_back();
  topology.unlock();

  // ---- Teardown of the retired grid, outside the pause window ----
  if (options_.threaded) {
    for (auto& node : retired) node->queue->Close();
    for (auto& node : retired) {
      if (node->worker.joinable()) node->worker.join();
    }
  }
  return registry.size();
}

Histogram InvalidbCluster::MigrationPauseHistogram() const {
  std::lock_guard<std::mutex> lock(sink_mu_);
  return migration_pause_;
}

size_t InvalidbCluster::AliveCount() const {
  TopologyReadGuard topology(&topology_mu_, this);
  size_t alive = 0;
  for (const auto& node : nodes_) {
    if (node->alive.load(std::memory_order_acquire)) alive++;
  }
  return alive;
}

void InvalidbCluster::Flush() {
  if (!options_.threaded) return;
  std::unique_lock<std::mutex> lock(flush_mu_);
  flush_cv_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

ClusterStats InvalidbCluster::stats() const {
  std::lock_guard<std::mutex> lock(sink_mu_);
  return stats_;
}

void InvalidbCluster::set_tracer(obs::Tracer* tracer) {
  TopologyReadGuard topology(&topology_mu_, this);
  tracer_ = tracer;
  for (auto& node : nodes_) node->matcher.set_tracer(tracer);
}

size_t InvalidbCluster::NumNodes() const {
  TopologyReadGuard topology(&topology_mu_, this);
  return nodes_.size();
}

Histogram InvalidbCluster::LatencyHistogram() const {
  std::lock_guard<std::mutex> lock(sink_mu_);
  return latency_;
}

std::vector<size_t> InvalidbCluster::QueriesPerNode() const {
  TopologyReadGuard topology(&topology_mu_, this);
  std::vector<size_t> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) out.push_back(node->matcher.QueryCount());
  return out;
}

std::vector<uint64_t> InvalidbCluster::OpsPerNode() const {
  TopologyReadGuard topology(&topology_mu_, this);
  std::vector<uint64_t> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    out.push_back(node->matcher.processed_ops());
  }
  return out;
}

}  // namespace quaestor::invalidb
