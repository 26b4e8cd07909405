#ifndef QUAESTOR_INVALIDB_MATCHING_NODE_H_
#define QUAESTOR_INVALIDB_MATCHING_NODE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "db/document.h"
#include "db/query.h"
#include "invalidb/notification.h"
#include "invalidb/query_index.h"
#include "obs/trace.h"

namespace quaestor::invalidb {

/// One cell of the InvaliDB matching grid (Figure 6): responsible for a
/// subset of all queries (its query partition) and a fraction of each
/// result set (its object partition). Keeps, per query, the former
/// matching status of every record it owns — the only state required for
/// stateless queries (§4.1 "Managing Query State").
///
/// Matching is predicate-indexed: installed queries are filed in a
/// QueryIndex by one indexable conjunct, and each change event is only
/// evaluated against (a) the queries whose indexed conjunct the
/// after-image can satisfy and (b) the queries the record currently
/// matches (the before-image membership, tracked exactly in
/// matching_ids). The union is a superset of every query whose add /
/// change / remove status can be affected, so indexed matching emits
/// exactly the notifications brute force would. Construct with
/// use_index=false for the brute-force reference path (benchmarks,
/// equivalence tests).
///
/// Not thread-safe by itself; the cluster gives each node a dedicated
/// worker thread (threaded mode) or serializes calls (synchronous mode).
class MatchingNode {
 public:
  explicit MatchingNode(bool use_index = true) : use_index_(use_index) {}

  MatchingNode(const MatchingNode&) = delete;
  MatchingNode& operator=(const MatchingNode&) = delete;

  /// Per-Match accounting: how much work the candidate index saved.
  struct MatchStats {
    size_t checked = 0;     // queries actually evaluated (candidates)
    size_t installed = 0;   // brute force would have evaluated this many
    size_t index_candidates = 0;     // via eq/range index lookups
    size_t residual_candidates = 0;  // non-indexable, always checked
  };

  /// Installs a query with the subset of its initial result ids owned by
  /// this node's object partition.
  void AddQuery(const db::Query& query, const std::string& query_key,
                std::vector<std::string> initial_matching_ids);

  void RemoveQuery(const std::string& query_key);

  /// Drops every installed query and all per-record state — a node crash
  /// wipes its in-memory matching state (failover support; an evaluator
  /// Resize rebuilds the grid from the cluster's subscription registry).
  void Clear();

  bool HasQuery(const std::string& query_key) const;

  /// Matches one change-stream after-image against the installed queries,
  /// appending raw membership notifications to `out` (the cluster filters
  /// by subscription and feeds the sorted layer). Returns the candidate
  /// accounting for this event.
  MatchStats Match(const db::ChangeEvent& event,
                   std::vector<Notification>* out);

  /// Batch form of Match: processes `events` in order, appending each
  /// event's notifications to `out` and recording slice boundaries in
  /// `offsets` (sized events.size() + 1; event i's notifications occupy
  /// [(*offsets)[i], (*offsets)[i+1])). Output and accounting are
  /// identical to calling Match once per event; the win is that
  /// consecutive events carrying the same after-image shape (same table
  /// and body) reuse one QueryIndex probe instead of re-collecting
  /// candidates. Returns the summed MatchStats.
  MatchStats MatchBatch(const std::vector<db::ChangeEvent>& events,
                        std::vector<Notification>* out,
                        std::vector<size_t>* offsets);

  /// Matches one event against a single installed query — used to replay
  /// recently received objects when a query is activated, closing the gap
  /// between initial evaluation and activation (§4.1).
  void MatchSingle(const std::string& query_key, const db::ChangeEvent& event,
                   std::vector<Notification>* out);

  /// Sorted snapshot of one installed query's matching ids on this node
  /// (its object-partition shard of the result). Empty if the query is
  /// not installed. Used for direct state handoff during a live cluster
  /// Resize().
  std::vector<std::string> MatchingIdsOf(const std::string& query_key) const;

  /// The count/op accessors are observability reads that may race with
  /// the node's worker thread in threaded mode, so they are backed by
  /// atomics (plain counters here were flagged by TSan via
  /// InvalidbCluster::QueriesPerNode/OpsPerNode).
  size_t QueryCount() const {
    return query_count_.load(std::memory_order_relaxed);
  }
  uint64_t processed_ops() const {
    return processed_ops_.load(std::memory_order_relaxed);
  }
  /// Installed queries with no indexable conjunct.
  size_t ResidualQueryCount() const { return index_.residual_size(); }

  /// Attaches a tracer; every Match then records an "invalidb.match"
  /// span. nullptr (default) detaches.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct QueryState {
    db::Query query;
    std::string key;
    std::unordered_set<std::string> matching_ids;  // former matches we own
    uint64_t epoch = 0;  // candidate-dedup stamp for the current Match
  };

  void MatchQuery(QueryState& st, const db::ChangeEvent& event,
                  const std::string& record_key,
                  std::vector<Notification>* out);

  /// Indexed match of one event. With `reuse_probe`, candidate_keys_ and
  /// last_probe_ are taken as-is from the previous event (valid only
  /// within a batch — no Add/Remove may intervene — and only when the
  /// after-image shape is unchanged).
  MatchStats MatchIndexed(const db::ChangeEvent& event,
                          std::vector<Notification>* out, bool reuse_probe);

  /// "table/id" → queries currently containing the record. This is the
  /// exact before-image membership, so a record leaving a result set is
  /// always a candidate even when the after-image misses every index.
  std::unordered_map<std::string, std::unordered_set<QueryState*>>
      by_record_;

  std::unordered_map<std::string, QueryState> queries_;
  const bool use_index_;
  obs::Tracer* tracer_ = nullptr;
  QueryIndex index_;
  uint64_t epoch_ = 0;
  // Reused per-Match scratch (hot path: no per-event allocations once
  // capacities warm up).
  std::vector<const std::string*> candidate_keys_;
  std::vector<QueryState*> candidates_;
  /// Index-probe accounting of the last CollectCandidates call, replayed
  /// verbatim when a batch reuses the probe.
  CandidateStats last_probe_;

  std::atomic<size_t> query_count_{0};
  std::atomic<uint64_t> processed_ops_{0};
};

}  // namespace quaestor::invalidb

#endif  // QUAESTOR_INVALIDB_MATCHING_NODE_H_
