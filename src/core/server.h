#ifndef QUAESTOR_CORE_SERVER_H_
#define QUAESTOR_CORE_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/request_context.h"
#include "common/result.h"
#include "core/admission.h"
#include "core/auth.h"
#include "core/query_result.h"
#include "core/transactions.h"
#include "db/database.h"
#include "db/schema.h"
#include "ebf/expiring_bloom_filter.h"
#include "invalidb/cluster.h"
#include "invalidb/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ttl/active_list.h"
#include "ttl/capacity_manager.h"
#include "ttl/representation.h"
#include "ttl/ttl_estimator.h"
#include "webcache/http.h"

namespace quaestor::core {

/// Cache lifetime of a write response. The writing session keeps its own
/// after-image for read-your-writes (clients cache own writes for exactly
/// this long), so the server tracks this TTL for the write in the EBF:
/// otherwise a later foreign write could not flag the writer's copy, and
/// ∆-atomicity would break for the rest of the copy's lifetime.
inline constexpr Micros kOwnWriteTtl = 60 * kMicrosPerSecond;

/// Which representation the server uses for query results.
enum class RepresentationPolicy {
  /// Cost-based decision per query (§4.2).
  kAuto,
  kAlwaysObjectList,
  kAlwaysIdList,
};

/// Server configuration.
struct ServerOptions {
  ttl::TtlOptions ttl_options;
  ebf::BloomParams bloom_params;
  invalidb::InvalidbOptions invalidb_options;
  /// Maximum simultaneously maintained (cached) queries; 0 = unlimited
  /// (the InvaliDB capacity management model, §4.1).
  size_t query_capacity = 0;
  RepresentationPolicy representation = RepresentationPolicy::kAlwaysObjectList;

  /// Fault injection (testing only): stop tracking issued record-read TTLs
  /// in the EBF. Writes then see no outstanding copy and never flag the
  /// key, so cached copies go stale beyond ∆ — the consistency oracle must
  /// catch this (see src/check).
  bool fault_disable_ebf_read_tracking = false;

  /// Fault injection: drop this fraction of change-stream events before
  /// they reach InvaliDB (a lossy invalidation pipeline). Deterministic
  /// from fault_seed. Query invalidations are then best-effort — exactly
  /// the regime graceful degradation exists for.
  double fault_change_loss_rate = 0.0;
  uint64_t fault_seed = 0x5eed;

  /// Graceful degradation (the paper's Δ argument, §3.1): when the
  /// invalidation pipeline is down, lagging, or has dead matching nodes,
  /// the server caps every issued TTL so expiration alone bounds
  /// staleness — invalidation-capable caches degrade to pure expiration
  /// caches, and flip back once the pipeline is healthy.
  struct DegradationOptions {
    bool enabled = false;
    /// Notification lag beyond which the pipeline counts as unhealthy;
    /// recovery needs the lag back under half of this (hysteresis).
    Micros staleness_budget = 5 * kMicrosPerSecond;
    /// TTL ceiling applied to all responses while degraded (the degraded
    /// Δ: reads are then at most this stale once caches drain).
    Micros degraded_ttl_cap = 1 * kMicrosPerSecond;
  };
  DegradationOptions degradation;

  /// Overload protection: concurrency-limited admission with CoDel-style
  /// queue-delay shedding (see core/admission.h). Off by default; when
  /// disabled the request path is byte-identical to a build without it.
  AdmissionOptions admission;
};

/// Health-check snapshot of the invalidation pipeline.
struct PipelineHealth {
  bool degraded = false;       // TTL cap currently in force
  bool pipeline_down = false;  // hard outage (SetPipelineDown)
  bool resizing = false;       // live InvaliDB repartition in progress
  /// Matching nodes of the server's in-process cluster, also when another
  /// pipeline carries the data path (degraded covers that one). A killed
  /// node counts as dead until ResizeInvalidb rebuilds the grid.
  size_t nodes_alive = 0;
  size_t nodes_total = 0;
  /// Commit-to-processing lag of the most recent notification (µs).
  Micros last_notification_lag = 0;
};

/// Server-side counters.
struct ServerStats {
  uint64_t record_reads = 0;
  uint64_t query_reads = 0;
  uint64_t writes = 0;
  uint64_t not_modified = 0;  // 304 responses
  uint64_t query_invalidations = 0;
  uint64_t record_invalidations = 0;
  uint64_t uncacheable_queries = 0;  // served with ttl 0 (capacity)
  uint64_t bloom_filter_requests = 0;
  /// Response-body memoization: misses/revalidations served from the
  /// per-(key, etag) serialized-body memo vs freshly serialized.
  uint64_t body_memo_hits = 0;
  uint64_t body_memo_misses = 0;
  /// Fault-tolerance accounting.
  uint64_t degraded_reads = 0;        // responses served with a capped TTL
  uint64_t degradation_flips = 0;     // healthy <-> degraded transitions
  uint64_t change_events_dropped = 0; // lost before reaching InvaliDB
  uint64_t unavailable_responses = 0; // SetUnavailable fault in force
  /// Overload control: requests rejected by the admission controller
  /// (kResourceExhausted) or abandoned on an expired deadline.
  uint64_t shed_responses = 0;
  uint64_t deadline_exceeded_responses = 0;

  /// Adds these totals into `server_*` registry counters.
  void ExportTo(obs::MetricsRegistry* registry,
                const obs::Labels& labels = {}) const;
};

/// The QUAESTOR database service (Figure 3): DBaaS middleware that serves
/// records and query results over the HTTP caching model, maintains the
/// Expiring Bloom Filter, estimates TTLs, registers cached queries in
/// InvaliDB, and purges invalidation-based caches when results change.
///
/// Implements webcache::Origin so cache hierarchies can forward misses and
/// revalidations to it. Thread-safe.
class QuaestorServer : public webcache::Origin {
 public:
  /// A purge hook: invoked with a cache key whenever invalidation-based
  /// caches must drop it. The simulator wires this to CDN purges with a
  /// configurable invalidation latency.
  using PurgeTarget = std::function<void(const std::string& key)>;

  QuaestorServer(Clock* clock, db::Database* database,
                 ServerOptions options = ServerOptions());
  ~QuaestorServer() override;

  QuaestorServer(const QuaestorServer&) = delete;
  QuaestorServer& operator=(const QuaestorServer&) = delete;

  // -- Write path (uncacheable; client SDK calls these directly) --

  /// Credential-checked writes: authorization rules (auth()) and table
  /// schemas (schemas()) are enforced before commit. The 3-argument
  /// forms run as the internal root principal. The optional context
  /// carries a deadline/priority; under overload, writes admit at kLow
  /// priority (clients retry them) and a
  /// shed write returns kResourceExhausted without committing.
  Result<db::Document> Insert(const Credentials& who,
                              const std::string& table, const std::string& id,
                              db::Value body,
                              const RequestContext& ctx = RequestContext());
  Result<db::Document> Update(const Credentials& who,
                              const std::string& table, const std::string& id,
                              const db::Update& update,
                              const RequestContext& ctx = RequestContext());
  Result<db::Document> Delete(const Credentials& who,
                              const std::string& table, const std::string& id,
                              const RequestContext& ctx = RequestContext());

  Result<db::Document> Insert(const std::string& table, const std::string& id,
                              db::Value body) {
    return Insert(Credentials::Root(), table, id, std::move(body));
  }
  Result<db::Document> Update(const std::string& table, const std::string& id,
                              const db::Update& update) {
    return Update(Credentials::Root(), table, id, update);
  }
  Result<db::Document> Delete(const std::string& table,
                              const std::string& id) {
    return Delete(Credentials::Root(), table, id);
  }

  // -- Read path --

  /// Announces a query shape so Fetch can resolve its normalized key (in
  /// HTTP the URL itself carries the query; this models URL decoding).
  /// Idempotent.
  void RegisterQueryShape(const db::Query& query);

  /// Origin entry point: serves record keys ("table/id") and query keys
  /// ("q:table?...") with freshly estimated TTLs, honouring If-None-Match.
  webcache::HttpResponse Fetch(const webcache::HttpRequest& request) override;

  /// Hands out the current flat Bloom filter (client connect & ∆-refresh).
  ebf::BloomFilter BloomSnapshot();

  /// Hands out one table's EBF partition (§3.3: clients may load
  /// table-specific filters to lower the total false-positive rate at the
  /// expense of more individual transfers).
  ebf::BloomFilter BloomSnapshotForTable(const std::string& table);

  /// Registers a purge hook for invalidation-based caches.
  void AddPurgeTarget(PurgeTarget target);

  /// Observability tap: invoked once per notification delivery with the
  /// notifications that passed the server's filter (see
  /// OnNotificationBatch), after its own handling. Used by the simulator
  /// to measure true result lifetimes (Figure 11) and by the
  /// websocket-style change streams of §3.2.
  void AddNotificationTap(invalidb::NotificationBatchSink tap);

  /// Routes the InvaliDB data path (query registrations, the change
  /// stream, and the health degraded() asks) to `pipeline`, e.g. an
  /// InvalidbRemote whose workers are reached over TCP (src/net), instead
  /// of the server's own cluster. Control-plane calls (invalidb():
  /// failover, resize, stats, tracer) stay on the own cluster. Install
  /// before serving traffic; not synchronized against in-flight requests.
  /// The pipeline's sink must hand its notifications to
  /// OnNotificationBatch.
  void SetPipeline(invalidb::Pipeline* pipeline);

  /// Handles one delivery of InvaliDB notifications from the installed
  /// pipeline. A query is registered with every event it can emit; this
  /// is the one place that decides which of them invalidate a cached
  /// copy. Every notification feeds the kAuto cost model's add / remove /
  /// change counts; then only those in CacheEvents(query, cached
  /// representation) are kept, or all of them for a streamed query (an
  /// id-list copy ignores in-place changes, §4.1). The kept ones alone
  /// reach the memo-erase / EBF-flag / CDN-purge pass (once per distinct
  /// query key), TTL feedback, capacity accounting, Last-Modified, the
  /// query_invalidations counter and the taps.
  void OnNotificationBatch(const std::vector<invalidb::Notification>& batch);

  /// Marks `query` streamed (a change stream subscribed; every
  /// notification then passes the filter) and registers it on the
  /// pipeline unless a fetch already did. The query's shape must be
  /// registered.
  Status ActivateQuery(const db::Query& query);

  /// Clears the streamed mark (the last subscriber left) and deregisters
  /// the query unless the cache still maintains it (it is admitted).
  void DeactivateQuery(const std::string& key);

  // -- Fault tolerance & degradation --

  /// True while the TTL cap is in force: an explicit operator/health
  /// decision (SetDegraded / SetPipelineDown), a notification lag beyond
  /// the staleness budget, a resize, or an installed pipeline that is not
  /// Healthy() (a dead matching node). Always false when degradation is
  /// disabled in the options.
  bool degraded() const;

  /// Manually forces (or lifts) degraded mode — the operator override and
  /// the bench's with/without-degradation switch.
  void SetDegraded(bool degraded);

  /// Hard pipeline outage: while down, change events are dropped before
  /// InvaliDB (counted in change_events_dropped) and the server degrades.
  /// On recovery the matcher state is rebuilt against the authoritative
  /// database — every registered query is deregistered from the installed
  /// pipeline and registered again with a fresh evaluation — and every key
  /// with an outstanding TTL is flagged in the EBF and purged from CDNs:
  /// copies cached during the outage can be arbitrarily stale, as can the
  /// matcher state.
  void SetPipelineDown(bool down);

  /// Fault injection: while set, Fetch answers 503-style (ok=false,
  /// unavailable=true) — the client retry/timeout path exercises this.
  void SetUnavailable(bool unavailable) { unavailable_.store(unavailable); }

  /// Live-repartitions the InvaliDB grid to the given shape (elastic
  /// scale-out). Query state is rebuilt by re-evaluating every registered
  /// query against the authoritative database (the same path an outage
  /// recovery takes), so it is safe even with dead matching nodes. The
  /// server rides out the migration window in degraded mode (when
  /// degradation is enabled): the TTL cap is in force from the start of
  /// the resize until it completes, so expiration bounds staleness if the
  /// pause delays notifications. Returns the number of queries
  /// re-installed on the new grid.
  size_t ResizeInvalidb(size_t new_query_partitions,
                        size_t new_object_partitions);

  /// Heartbeat/health-check endpoint. The node counts describe the
  /// server's own in-process cluster, whichever pipeline is installed.
  PipelineHealth pipeline_health() const;

  // -- Introspection --

  ServerStats stats() const;

  /// Installs a request tracer on the server and the InvaliDB cluster
  /// (spans: server.fetch/record/query, server.write, ttl.estimate,
  /// ebf.report_read, db.execute, invalidb.register/match/notify,
  /// server.on_notification). nullptr detaches.
  void set_tracer(obs::Tracer* tracer);

  /// Exports the server's own counters plus its EBF and InvaliDB stats
  /// into `registry` (accumulating — see the ExportTo convention).
  void ExportMetrics(obs::MetricsRegistry* registry) const;

  /// Overload-control decisions (admitted/shed counters, queue delay).
  AdmissionController& admission() { return admission_; }

  ebf::PartitionedEbf& ebf() { return ebf_; }
  ttl::TtlEstimator& ttl_estimator() { return ttl_estimator_; }
  ttl::ActiveList& active_list() { return active_list_; }
  ttl::CapacityManager& capacity() { return capacity_; }
  invalidb::InvalidbCluster& invalidb() { return *invalidb_; }
  db::Database& database() { return *db_; }
  /// Optimistic ACID transactions (§3.2).
  TransactionManager& transactions() { return *transactions_; }
  /// Table schemas, enforced on writes.
  db::SchemaRegistry& schemas() { return schemas_; }
  /// Authorization rules and login sessions. Tables without public read
  /// access are served uncacheable (shared caches must not hold them).
  AccessController& auth() { return auth_; }
  const ServerOptions& options() const { return options_; }

 private:
  /// Runs one write through admission control at kLow priority (unless
  /// the context raised it). Returns the shed/deadline error, or OK.
  Status AdmitWrite(const RequestContext& ctx);

  struct QueryMeta {
    db::Query query;
    Micros first_seen = 0;
    uint64_t adds = 0;
    uint64_t removes = 0;
    uint64_t changes = 0;
    /// Commit time of the last change that affected this query's result
    /// (InvaliDB notification). Feeds the Last-Modified response header.
    Micros last_result_change = 0;
    /// Sticky representation decision (kAuto policy): re-evaluated at most
    /// every kRepresentationDecisionInterval to avoid flapping between
    /// representations (each flip changes the result etag and flags the
    /// cached copies).
    bool has_chosen_representation = false;
    ttl::ResultRepresentation chosen_representation =
        ttl::ResultRepresentation::kObjectList;
    Micros representation_chosen_at = 0;
    /// A change stream subscribed (ActivateQuery): every notification
    /// passes the filter, and eviction keeps the registration.
    bool streamed = false;
  };

  static constexpr Micros kRepresentationDecisionInterval =
      5 * kMicrosPerSecond;

  /// Sticky wrapper around ChooseRepresentationFor. Sets `*need_switch`
  /// if the decision changed for a query that already had one (the caller
  /// flags the key's cached copies of the old representation).
  ttl::ResultRepresentation DecideRepresentation(const std::string& query_key,
                                                 size_t result_size,
                                                 bool* need_switch);

  webcache::HttpResponse FetchRecord(const webcache::HttpRequest& request);
  webcache::HttpResponse FetchQuery(const webcache::HttpRequest& request,
                                    const db::Query& query);

  /// Registers `query` (key `key`) on the pipeline: a stateless query
  /// with its result (`*result`, consumed, when the caller just executed
  /// it; a fresh execution otherwise), a stateful one with its unwindowed
  /// predicate set. On success marks the key registered. Caller holds
  /// registration_mu_.
  Status RegisterLocked(const std::string& key, const db::Query& query,
                        std::vector<db::Document>* result);

  /// The representation of `meta`'s cached copies: the sticky kAuto
  /// decision, else the fixed policy's. Caller holds meta_mu_.
  ttl::ResultRepresentation CachedRepresentation(const QueryMeta& meta) const;

  /// Outage recovery: deregisters every registered query and registers it
  /// again with a fresh evaluation, so the matchers forget membership that
  /// changed while the stream was cut.
  void ReregisterQueries();

  /// Applies side effects of a committed record write.
  void OnRecordWrite(const db::Document& after);

  /// Purges a key from all registered invalidation-based caches.
  void PurgeEverywhere(const std::string& key);

  /// Evicts a query from the cached set (capacity displacement).
  void EvictQuery(const std::string& query_key);

  /// Picks the representation for a query result.
  ttl::ResultRepresentation ChooseRepresentationFor(
      const std::string& query_key, size_t result_size);

  /// Applies the degraded TTL ceiling (identity while healthy).
  Micros CapTtl(Micros ttl) const;

  /// Conservatively invalidates every key (record or query) with an
  /// unexpired issued TTL: EBF-flag + CDN purge via the EBF's exact
  /// tracking. Used when entering degraded mode and after an outage —
  /// outstanding long-TTL copies, including those of queries that have
  /// since fallen off the active list, can no longer be trusted.
  void FlagAllCachedCopies();
  /// The same for one key whose invalidations may have been missed: flags
  /// it in the EBF, purges it from CDNs and drops its memoized body.
  void FlagCachedCopies(const std::string& key);

  /// Re-evaluates degraded() against the remembered state: counts the
  /// flip and, on a healthy→degraded edge, flags all cached copies
  /// (their outstanding long-TTL copies predate the cap).
  void RefreshDegradedState();

  // -- Response-body memoization --
  //
  // The serialized body of the last response per key, valid only at the
  // exact (etag, representation) it was built for. The etag check is the
  // correctness guard for bodies — any result change bumps the etag, so a
  // stale memo entry simply never matches (explicit erasure on
  // invalidations is memory hygiene, not a safety requirement). Query
  // entries also carry the result itself, stamped with what it depended
  // on (db::ResultStamp): while db::Table::IsCurrent holds, FetchQuery
  // serves the entry without executing the query. Degraded mode bypasses
  // the memo entirely: bodies embed record TTLs, which must honour the cap.

  /// One memoized body. Immutable once published, except that an
  /// execution reproducing the same result with the same slots refreshes
  /// stamp_commit; hits share the pointer.
  struct MemoEntry {
    uint64_t etag = 0;
    ttl::ResultRepresentation representation =
        ttl::ResultRepresentation::kObjectList;
    std::string body;
    // Query results only.
    /// The result's db::ResultStamp, split so that its commit can be
    /// refreshed in place while its slots stay fixed.
    mutable std::atomic<uint64_t> stamp_commit{0};
    db::StampSlots stamp_slots;
    /// Member record keys in result order, and their latest write time.
    std::vector<std::string> member_keys;
    Micros members_write_time = 0;
    /// Per-member TTLs issued inside this body (object-list results,
    /// parallel to member_keys). Replayed into the EBF on every memo hit:
    /// the embedded TTLs are durations from receipt, so each serve
    /// re-issues them.
    std::vector<Micros> record_ttls;
  };
  struct MemoShard {
    std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const MemoEntry>> entries;
  };

  /// The entry memoized for `key`, if any; callers check that it matches.
  std::shared_ptr<const MemoEntry> MemoLookup(const std::string& key) const;
  void MemoStore(const std::string& key,
                 std::shared_ptr<const MemoEntry> entry) const;
  void MemoErase(const std::string& key) const;
  void MemoClear() const;

  Clock* clock_;
  db::Database* db_;
  ServerOptions options_;
  obs::Tracer* tracer_ = nullptr;

  ebf::PartitionedEbf ebf_;
  ttl::TtlEstimator ttl_estimator_;
  ttl::ActiveList active_list_;
  ttl::CapacityManager capacity_;
  std::unique_ptr<invalidb::InvalidbCluster> invalidb_;
  /// The data path: invalidb_ unless SetPipeline installed another.
  invalidb::Pipeline* pipeline_ = nullptr;
  std::unique_ptr<TransactionManager> transactions_;
  db::SchemaRegistry schemas_;
  AccessController auth_;

  /// Serializes every InvaliDB registration decision: first registration
  /// (fetches and change streams), deregistration on eviction or on the
  /// last unsubscribe, and recovery's re-registration. A key is then
  /// registered on the pipeline exactly when ActiveList::registered says
  /// so. Taken before meta_mu_; the notification path never takes it.
  std::mutex registration_mu_;
  mutable std::mutex meta_mu_;
  std::unordered_map<std::string, QueryMeta> query_meta_;

  mutable std::mutex purge_mu_;
  std::vector<PurgeTarget> purge_targets_;
  std::vector<invalidb::NotificationBatchSink> notification_taps_;

  static constexpr size_t kMemoShards = 16;
  mutable std::array<MemoShard, kMemoShards> body_memo_;

  /// Hot-path counters (relaxed atomics: every fetch bumps several; a
  /// shared stats mutex would serialize the whole read path).
  mutable std::atomic<uint64_t> record_reads_{0};
  mutable std::atomic<uint64_t> query_reads_{0};
  mutable std::atomic<uint64_t> writes_{0};
  mutable std::atomic<uint64_t> not_modified_{0};
  mutable std::atomic<uint64_t> query_invalidations_{0};
  mutable std::atomic<uint64_t> record_invalidations_{0};
  mutable std::atomic<uint64_t> uncacheable_queries_{0};
  mutable std::atomic<uint64_t> bloom_filter_requests_{0};
  mutable std::atomic<uint64_t> body_memo_hits_{0};
  mutable std::atomic<uint64_t> body_memo_misses_{0};
  mutable std::atomic<uint64_t> degraded_reads_{0};
  mutable std::atomic<uint64_t> degradation_flips_{0};
  mutable std::atomic<uint64_t> change_events_dropped_{0};
  mutable std::atomic<uint64_t> unavailable_responses_{0};
  mutable std::atomic<uint64_t> shed_responses_{0};
  mutable std::atomic<uint64_t> deadline_exceeded_responses_{0};

  AdmissionController admission_;

  // Fault-tolerance state.
  std::atomic<bool> manual_degraded_{false};
  std::atomic<bool> pipeline_down_{false};
  std::atomic<bool> lag_degraded_{false};
  std::atomic<bool> resizing_{false};
  std::atomic<bool> unavailable_{false};
  std::atomic<bool> was_degraded_{false};
  std::atomic<Micros> last_notification_lag_{0};
  mutable std::mutex fault_mu_;
  Rng fault_rng_;  // guarded by fault_mu_ (change-loss decisions)
};

}  // namespace quaestor::core

#endif  // QUAESTOR_CORE_SERVER_H_
