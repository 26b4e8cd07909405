#ifndef QUAESTOR_CLIENT_CLIENT_H_
#define QUAESTOR_CLIENT_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/backend.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"
#include "core/query_result.h"
#include "core/server.h"
#include "db/query.h"
#include "db/update.h"
#include "db/value.h"
#include "ebf/bloom_filter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "webcache/hierarchy.h"
#include "webcache/web_cache.h"

namespace quaestor::client {

/// Client-side consistency levels (Figure 4). ∆-atomicity, monotonic
/// writes, read-your-writes and monotonic reads are always provided;
/// causal and strong consistency are opt-in with a performance penalty.
enum class ConsistencyLevel {
  kDeltaAtomic,
  kCausal,
  kStrong,
};

/// SDK configuration.
struct ClientOptions {
  /// ∆: the EBF refresh interval. Staleness is bounded by this value
  /// (Theorem 1). The first request after ∆ elapses is promoted to a
  /// revalidation that piggybacks a fresh EBF (§3.1 Freshness Policies).
  Micros ebf_refresh_interval = SecondsToMicros(1.0);

  ConsistencyLevel consistency = ConsistencyLevel::kDeltaAtomic;

  /// Consult the Expiring Bloom Filter before reads (disabled for the
  /// "CDN only" and "Uncached" baselines).
  bool use_ebf = true;

  /// Load table-specific EBF partitions (lazily, per accessed table)
  /// instead of the single aggregate filter — §3.3: lowers the total
  /// false-positive rate at the expense of more individual transfers.
  /// The causal consistency level requires the aggregate mode.
  bool use_table_ebfs = false;

  /// Let EBF-triggered revalidations be served by the invalidation-based
  /// cache instead of the origin (the ∆ − ∆_invalidation optimization of
  /// §3.2 — trades invalidation latency for backend offload).
  bool revalidate_at_cdn = false;

  /// Bearer token for this session (empty = anonymous). Sent with every
  /// origin request and used for write authorization.
  std::string auth_token;

  /// HTTP/2 transport semantics (§7): the server pushes the member
  /// records of an id-list result over the multiplexed connection, so
  /// result assembly adds no round-trip latency ("simplify the query
  /// result representation to always favor id-lists without any
  /// performance downsides").
  bool http2 = false;

  /// Fault injection (testing only): never refresh the EBF after the
  /// initial Connect(), even once ∆ elapses. The session then keeps
  /// consulting a stale filter forever, so cached copies can be served
  /// arbitrarily long after a write — the consistency oracle's
  /// ∆-atomicity check must flag this (see src/check).
  bool fault_skip_ebf_refresh = false;

  /// Bounded retry for transient origin faults (503 responses). Off by
  /// default: a failed fetch then surfaces immediately, as before.
  struct RetryOptions {
    bool enabled = false;
    /// Total attempts, including the first (so 3 = up to 2 retries).
    size_t max_attempts = 3;
    Micros initial_backoff = 50 * kMicrosPerMilli;
    double multiplier = 2.0;
    Micros max_backoff = 1 * kMicrosPerSecond;
    /// Uniform backoff jitter fraction (avoids retry stampedes).
    double jitter = 0.2;
    uint64_t seed = 1;
    /// Token-bucket retry budget shared across this session's requests
    /// (layered on the per-request backoff): each retry spends one token,
    /// each success refills `budget_refill_per_success` up to the cap.
    /// When the bucket is empty further retries are suppressed — a fleet
    /// of budgeted clients cannot amplify an overload into a retry storm
    /// (a healthy backend keeps everyone's bucket full; a sick one drains
    /// it fleet-wide). 0 = unlimited (legacy behaviour).
    double retry_budget = 0.0;
    double budget_refill_per_success = 0.1;
  };
  RetryOptions retry;

  /// Per-request deadline (relative; 0 = none). Propagated to every tier
  /// as an absolute RequestContext deadline: the origin abandons work it
  /// cannot finish in time, and the hierarchy skips origin round trips
  /// the remaining budget no longer covers.
  Micros request_deadline = 0;

  /// Overload fallback: serve flagged stale-retained copies when the
  /// origin sheds (see webcache::StaleServePolicy). Off by default.
  webcache::StaleServePolicy stale_serve;
};

/// Per-request outcome telemetry.
struct RequestOutcome {
  webcache::ServedBy served_by = webcache::ServedBy::kOrigin;
  double latency_ms = 0.0;
  bool revalidated = false;       // EBF (or consistency level) forced it
  bool ebf_refreshed = false;     // this request piggybacked a new EBF
  /// Overload accounting: response came from a stale-retained copy after
  /// the origin shed (age in stale_entry_age), or the request failed
  /// shed / past-deadline.
  bool served_stale_on_shed = false;
  Micros stale_entry_age = 0;
  bool shed = false;
  bool deadline_exceeded = false;
};

/// Result of a record read.
struct ReadResult {
  Status status = Status::OK();
  db::Value doc;
  uint64_t version = 0;
  RequestOutcome outcome;
};

/// Result of a query.
struct QueryResult {
  Status status = Status::OK();
  std::vector<std::string> ids;
  std::vector<db::Value> docs;
  uint64_t etag = 0;
  ttl::ResultRepresentation representation =
      ttl::ResultRepresentation::kObjectList;
  RequestOutcome outcome;
};

/// Aggregate client counters.
struct ClientStats {
  uint64_t reads = 0;
  uint64_t queries = 0;
  uint64_t writes = 0;
  uint64_t revalidations = 0;
  uint64_t ebf_refreshes = 0;
  uint64_t client_cache_hits = 0;
  uint64_t cdn_hits = 0;
  uint64_t origin_fetches = 0;
  /// Retry accounting (retry.enabled only).
  uint64_t retries = 0;
  uint64_t unavailable_failures = 0;  // budget exhausted, 503 surfaced
  /// Retries the token-bucket budget refused to fund.
  uint64_t retries_suppressed = 0;
  /// Overload accounting: flagged stale responses served after a shed,
  /// and requests that ultimately failed shed / past-deadline.
  uint64_t stale_shed_serves = 0;
  uint64_t shed_failures = 0;
  uint64_t deadline_exceeded_failures = 0;

  /// Adds these totals into `client_*` registry counters — exporting
  /// every session's stats under the same labels sums them.
  void ExportTo(obs::MetricsRegistry* registry,
                const obs::Labels& labels = {}) const;
};

/// The Quaestor client SDK (the "SDK (Data API)" box in Figure 3): wraps a
/// cache hierarchy, transparently consults the Expiring Bloom Filter
/// before every read, maintains the session guarantees (read-your-writes,
/// monotonic reads) and executes the configured freshness policy.
///
/// Not thread-safe: one instance models one browser session (use one
/// instance per simulated client).
class QuaestorClient {
 public:
  /// `client_cache` may be nullptr (no browser cache); `cdn` may be
  /// nullptr (no CDN). The client owns neither.
  QuaestorClient(Clock* clock, core::QuaestorServer* server,
                 webcache::ExpirationCache* client_cache,
                 webcache::InvalidationCache* cdn,
                 ClientOptions options = ClientOptions(),
                 webcache::LatencyModel latency = webcache::LatencyModel());

  /// Same session, arbitrary backend (e.g. net::HttpBackend speaking to a
  /// remote origin over a real socket). The backend must outlive the
  /// client.
  QuaestorClient(Clock* clock, Backend* backend,
                 webcache::ExpirationCache* client_cache,
                 webcache::InvalidationCache* cdn,
                 ClientOptions options = ClientOptions(),
                 webcache::LatencyModel latency = webcache::LatencyModel());

  /// Fetches the initial EBF (piggybacked on connect, §3.1). Costs one
  /// origin round-trip.
  void Connect();

  // -- Reads --

  ReadResult Read(const std::string& table, const std::string& id);

  QueryResult ExecuteQuery(const db::Query& query);

  // -- Writes (monotonic writes are guaranteed by the database) --

  Result<db::Document> Insert(const std::string& table, const std::string& id,
                              db::Value body);
  Result<db::Document> Update(const std::string& table, const std::string& id,
                              const db::Update& update);
  Result<db::Document> Delete(const std::string& table, const std::string& id);

  /// Forces an EBF refresh now (beyond the automatic ∆ policy).
  void RefreshEbf();

  /// Age of the current EBF (µs): the ∆ actually in force.
  Micros EbfAge() const;

  ClientStats stats() const { return stats_; }
  const ClientOptions& options() const { return options_; }

  /// Tokens left in the retry budget bucket (tests / dashboards).
  double retry_tokens() const { return retry_tokens_; }

  /// Installs a tracer on the SDK and its cache hierarchy (spans:
  /// client.read/client.query/client.write, client.ebf_decide, plus the
  /// cache-tier and server spans beneath). Does NOT propagate to the
  /// shared server — install there separately with the same tracer.
  /// nullptr detaches.
  void set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    hierarchy_.set_tracer(tracer);
  }

  /// Changes ∆ mid-session (the fuzzer exercises this; a real deployment
  /// reconfigures the refresh interval without reconnecting clients).
  /// Takes effect at the next DecideMode evaluation.
  void set_ebf_refresh_interval(Micros delta) {
    options_.ebf_refresh_interval = delta;
  }

  /// Write latency (one origin round-trip) — exposed for simulators.
  double WriteLatencyMs() const { return latency_model_.origin_ms; }

  /// The in-process server this session talks to (transactions commit
  /// through it). nullptr when the session runs over a socket backend.
  core::QuaestorServer* server() { return backend_->local_server(); }

  /// Absorbs an externally committed write (e.g. a transaction's
  /// after-image) into the session: read-your-writes and monotonic-reads
  /// state are updated as if this session had written it.
  void AbsorbWrite(const db::Document& doc) { CacheOwnWrite(doc); }

 private:
  /// Decides the fetch mode for a key: EBF lookup + whitelist +
  /// consistency level; refreshes the EBF when ∆ elapsed.
  webcache::FetchMode DecideMode(const std::string& key,
                                 RequestOutcome* outcome);

  void NoteServedBy(const webcache::FetchOutcome& fo, RequestOutcome* out);

  /// hierarchy_.Fetch plus the configured 503 retry policy: jittered
  /// exponential backoff, bounded attempts; failed attempts and waits are
  /// charged to `out->latency_ms` (the simulation models waiting as
  /// response latency rather than sleeping a clock). Shed (429) responses
  /// retry like 503s, but every retry must be funded by the token-bucket
  /// budget when one is configured.
  webcache::FetchOutcome FetchWithRetry(const std::string& key,
                                        webcache::FetchMode mode,
                                        RequestOutcome* out);

  /// RequestContext for a request starting now (absolute deadline from
  /// options_.request_deadline; disabled context when unset).
  RequestContext MakeContext() const;

  /// Maps a failed fetch outcome to the client-facing status.
  static Status FailureStatus(const webcache::FetchOutcome& fo,
                              const std::string& key);

  /// Monotonic reads: returns true if `version` regresses below the
  /// highest version this session has seen for `key`.
  bool IsRegression(const std::string& key, uint64_t version) const;
  void NoteVersion(const std::string& key, uint64_t version);

  void CacheOwnWrite(const db::Document& doc);

  /// Delegation target of the public ctors: exactly one of `owned` /
  /// `backend` is set (the server ctor wraps its server in an owned
  /// LocalBackend; the Backend ctor borrows).
  QuaestorClient(std::unique_ptr<Backend> owned, Backend* backend,
                 Clock* clock, webcache::ExpirationCache* client_cache,
                 webcache::InvalidationCache* cdn, ClientOptions options,
                 webcache::LatencyModel latency);

  Clock* clock_;
  std::unique_ptr<Backend> owned_backend_;
  Backend* backend_;  // owned_backend_.get() or the borrowed one
  webcache::ExpirationCache* client_cache_;
  webcache::CacheHierarchy hierarchy_;
  ClientOptions options_;
  webcache::LatencyModel latency_model_;

  /// Returns the fetch mode implied by the table-partitioned EBF policy
  /// (use_table_ebfs): lazily fetches/refreshes the key's table filter.
  webcache::FetchMode DecideModeTablePartitioned(const std::string& key,
                                                 RequestOutcome* outcome);

  void EraseWhitelistForTable(const std::string& table);

  std::optional<ebf::BloomFilter> bloom_;
  Micros bloom_time_ = 0;
  /// Per-table filters (use_table_ebfs mode).
  struct TableEbf {
    ebf::BloomFilter filter;
    Micros fetched_at = 0;
  };
  std::map<std::string, TableEbf> table_ebfs_;
  /// Keys revalidated since the last EBF renewal — treated as fresh
  /// ("differential whitelisting", §3.3).
  std::set<std::string> whitelist_;
  /// Monotonic-reads bookkeeping: highest seen version per key.
  std::unordered_map<std::string, uint64_t> seen_versions_;
  /// Monotonic reads for query results: etags are unordered, so
  /// regressions are detected via the result's Last-Modified instead
  /// (highest seen per query key).
  std::unordered_map<std::string, Micros> seen_result_times_;
  /// Causal mode: a read newer than the EBF was observed; reads must
  /// revalidate until the next refresh (§3.2 Opt-in Consistency).
  bool read_newer_than_ebf_ = false;

  Rng retry_rng_;  // retry backoff jitter (deterministic from retry.seed)
  /// Token-bucket retry budget (retry.retry_budget > 0): starts full,
  /// retries spend, successes refill.
  double retry_tokens_ = 0.0;
  ClientStats stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace quaestor::client

#endif  // QUAESTOR_CLIENT_CLIENT_H_
