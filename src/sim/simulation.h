#ifndef QUAESTOR_SIM_SIMULATION_H_
#define QUAESTOR_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/client.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "core/server.h"
#include "db/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "webcache/web_cache.h"
#include "workload/workload.h"

namespace quaestor::sim {

/// Which caching layers the simulated deployment uses — the four
/// architectures compared throughout §6.2.
struct CacheArchitecture {
  bool client_cache = true;
  bool cdn = true;
  bool use_ebf = true;

  /// Full Quaestor: client caches + EBF + CDN + InvaliDB.
  static CacheArchitecture Quaestor() { return {true, true, true}; }
  /// "EBF only": client caches kept coherent by the EBF, no CDN.
  static CacheArchitecture EbfOnly() { return {true, false, true}; }
  /// "CDN only": InvaliDB-purged CDN, no client caches, no EBF.
  static CacheArchitecture CdnOnly() { return {false, true, false}; }
  /// Uncached baseline (Orestes with uncached communication).
  static CacheArchitecture Uncached() { return {false, false, false}; }
};

/// Simulation parameters. Defaults mirror the paper's cloud setup (§6.1):
/// 145 ms client↔origin RTT, 4 ms client↔CDN, 3 backend servers.
struct SimOptions {
  size_t num_client_instances = 10;
  size_t connections_per_instance = 30;
  Micros duration = SecondsToMicros(120.0);
  Micros warmup = SecondsToMicros(10.0);
  uint64_t seed = 42;

  CacheArchitecture arch = CacheArchitecture::Quaestor();
  client::ClientOptions client_options;
  core::ServerOptions server_options;
  webcache::LatencyModel latency;

  /// ∆_invalidation: delay between a server purge decision and the CDN
  /// actually dropping the entry.
  Micros cdn_purge_latency = MillisToMicros(50.0);

  /// Capacity model: per-origin-request service time at the backend pool.
  Micros server_service = MillisToMicros(0.2);
  size_t num_servers = 3;

  /// Pause between operations on one connection (models real browsers
  /// that issue requests at human pace rather than in a closed loop).
  Micros think_time = 0;

  /// Record per-request spans through client → caches → server →
  /// EBF/TTL/InvaliDB (deterministic ids + simulated timestamps: two
  /// same-seed runs export byte-identical Chrome-trace JSON). Off by
  /// default — tracing every op of a long run costs memory.
  bool trace = false;

  /// Elastic scale-out events: at simulated time `at`, the server
  /// live-repartitions its InvaliDB grid to the given shape (rides the
  /// migration out in degraded mode when degradation is enabled).
  struct ScheduledResize {
    Micros at = 0;
    size_t query_partitions = 1;
    size_t object_partitions = 1;
  };
  std::vector<ScheduledResize> scheduled_resizes;

  /// Overload schedule: between `at` and `at + duration` the arrival rate
  /// is multiplied — a flash crowd of extra connections joins (and think
  /// time shrinks by the same factor) — while the origin pool's service
  /// time is scaled by `origin_slowdown`. Phases drive the overload-
  /// protection experiments: admission shedding, deadline misses, and
  /// stale-serving all need sustained pressure, not a single burst event.
  struct OverloadPhase {
    Micros at = 0;
    Micros duration = 0;
    double load_multiplier = 10.0;
    double origin_slowdown = 1.0;
  };
  std::vector<OverloadPhase> overload_phases;

  /// Origin slowness feedback: sampled once per served origin visit with
  /// the current simulated time, and charged to the server's admission
  /// workers as extra service time. This is the channel by which the
  /// controller "measures" real origin latency — wire it to
  /// fault::FaultInjector::LatencySpikeFor for seeded chaos spikes,
  /// and/or return the current phase's extra service time so admission
  /// tracks a slowed-down origin. Null = no feedback.
  std::function<Micros(Micros now)> origin_spike_fn;
};

/// Per-operation-type measurements.
struct OpMetrics {
  Histogram latency;  // ms
  /// How old stale responses were (ms): a lower bound — time since the
  /// latest commit known to supersede the served state. p99 of this is
  /// the observed staleness a degraded TTL cap must bound.
  Histogram stale_age_ms;
  uint64_t count = 0;
  uint64_t stale = 0;
  uint64_t client_hits = 0;
  uint64_t cdn_hits = 0;
  uint64_t origin = 0;

  double StaleRate() const {
    return count == 0 ? 0.0
                      : static_cast<double>(stale) /
                            static_cast<double>(count);
  }
  /// Fraction of requests answered by the client cache.
  double ClientHitRate() const {
    return count == 0 ? 0.0
                      : static_cast<double>(client_hits) /
                            static_cast<double>(count);
  }
  /// Fraction of requests that passed the client cache and hit the CDN.
  double CdnHitRate() const {
    const uint64_t at_cdn = cdn_hits + origin;
    return at_cdn == 0 ? 0.0
                       : static_cast<double>(cdn_hits) /
                             static_cast<double>(at_cdn);
  }
};

/// Results of one simulation run.
struct SimResults {
  OpMetrics reads;
  OpMetrics queries;
  OpMetrics writes;
  double duration_s = 0.0;
  uint64_t total_ops = 0;
  double throughput_ops_s = 0.0;

  /// Overload accounting (measurement window): successes, failures by
  /// cause, and successes served from a flagged stale-retained copy.
  /// Goodput is successful ops per second — the number overload
  /// protection exists to defend while total_ops explodes.
  uint64_t ok_ops = 0;
  uint64_t shed_ops = 0;
  uint64_t deadline_exceeded_ops = 0;
  uint64_t stale_shed_serves = 0;
  double goodput_ops_s = 0.0;

  /// TTL estimation quality samples (seconds) for Figure 11: parallel
  /// arrays are NOT paired; each is the population for one CDF.
  std::vector<double> estimated_ttls_s;
  std::vector<double> true_ttls_s;

  core::ServerStats server_stats;
  webcache::CacheStats cdn_stats;
  /// InvaliDB activity, including the match-check reduction achieved by
  /// predicate-indexed matching (match_checks vs match_checks_naive).
  invalidb::ClusterStats invalidb_stats;

  /// Unified metrics snapshot: every *Stats surface above exported
  /// through the registry, plus sim-level op counters/latency timers.
  /// Merge across runs and export via MetricsSnapshot::ToValue().
  obs::MetricsSnapshot metrics;
};

/// Observation of one completed client operation, handed to registered
/// op observers. Pointer fields reference stack state of the executing
/// step and are only valid for the duration of the callback. The
/// consistency oracle (src/check) attaches through this hook to validate
/// every simulated read against the global write history.
struct OpObservation {
  size_t instance = 0;  // which client session performed the op
  workload::OpType type = workload::OpType::kRead;
  std::string table;
  std::string id;                                  // record ops
  const db::Query* query = nullptr;                // kQuery
  const client::ReadResult* read = nullptr;        // kRead
  const client::QueryResult* query_result = nullptr;  // kQuery
  const db::Document* written = nullptr;           // writes (null on error)
  /// Ground-truth staleness verdict for this op (reads/queries; always
  /// false for writes). `stale_age_ms` is the lower-bound age of the
  /// superseded state that was served.
  bool stale = false;
  double stale_age_ms = 0.0;
};

/// An end-to-end Monte Carlo simulation of concurrent clients talking to
/// Quaestor through web caches (the paper's simulation framework, §6.1).
/// Deterministic for a given seed: simulated clock, FIFO event order,
/// seeded workload.
class Simulation {
 public:
  using OpObserver = std::function<void(const OpObservation&)>;

  Simulation(workload::WorkloadOptions workload_options, SimOptions options);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Loads the database, connects the clients, and runs the event loop for
  /// `duration`. Can only be called once.
  SimResults Run();

  /// Registers a callback invoked after every completed client operation
  /// (register before Run()).
  void AddOpObserver(OpObserver observer) {
    op_observers_.push_back(std::move(observer));
  }

  core::QuaestorServer& server() { return *server_; }
  db::Database& database() { return *db_; }
  SimulatedClock& clock() { return clock_; }
  workload::WorkloadGenerator& generator() { return *generator_; }

  /// The run's metrics registry (snapshotted into SimResults::metrics at
  /// the end of Run()).
  obs::MetricsRegistry& registry() { return registry_; }

  /// The request tracer, or nullptr when SimOptions::trace is false.
  obs::Tracer* tracer() { return tracer_.get(); }

 private:
  struct ClientInstance {
    std::unique_ptr<webcache::ExpirationCache> cache;  // browser cache
    std::unique_ptr<client::QuaestorClient> client;
    std::unique_ptr<QueueingResource> cpu;
  };

  /// One closed-loop connection step; reschedules itself until `stop_at`
  /// (the run's end for permanent connections, the phase's end for
  /// flash-crowd extras).
  void RunConnectionStep(size_t instance_index, Micros stop_at);
  bool CheckReadStale(const std::string& table, const std::string& id,
                      const client::ReadResult& rr, double* stale_age_ms);
  bool CheckQueryStale(const db::Query& query,
                       const client::QueryResult& qr, double* stale_age_ms);
  void RecordOutcome(OpMetrics* metrics, const client::RequestOutcome& o,
                     bool ok, double total_latency_ms, bool stale,
                     double stale_age_ms, bool in_window);

  workload::WorkloadOptions workload_options_;
  SimOptions options_;
  SimulatedClock clock_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<obs::Tracer> tracer_;
  EventQueue events_;
  std::unique_ptr<db::Database> db_;
  std::unique_ptr<core::QuaestorServer> server_;
  std::unique_ptr<webcache::InvalidationCache> cdn_;
  std::vector<ClientInstance> clients_;
  std::unique_ptr<workload::WorkloadGenerator> generator_;
  QueueingResource server_pool_;
  std::vector<OpObserver> op_observers_;
  /// Arrival-rate multiplier currently in force (overload phases).
  double load_multiplier_ = 1.0;

  // Figure 11 bookkeeping: query serve events and invalidation times.
  struct QueryServe {
    std::string key;
    Micros at;
    Micros estimated_ttl;
  };
  std::vector<QueryServe> query_serves_;
  std::unordered_map<std::string, std::vector<Micros>> invalidations_;

  /// Ground-truth result etags, recomputed only when the query's table
  /// sees a commit (staleness checks would otherwise scan the table per
  /// operation). Keyed on the table's commit count — NOT the query's
  /// invalidation count, which undercounts when the invalidation pipeline
  /// is lossy or down (exactly the regimes the fault experiments create).
  struct FreshEtags {
    bool valid = false;
    uint64_t commit_count = 0;
    uint64_t etag_objects = 0;
    uint64_t etag_ids = 0;
    /// When this query's result last changed (0 = never observed to
    /// change). A late lower bound — set to the table's latest commit at
    /// recompute time — but far tighter than the table's last commit for
    /// stale-age measurement: a busy table keeps committing while an
    /// individual query's lost invalidation keeps its copy stale.
    Micros last_change = 0;
    /// When each previously-fresh etag stopped being fresh. Lets a stale
    /// serve be aged against the moment *its own* result state expired,
    /// not just the query's latest change (a copy can outlive several
    /// result changes during a pipeline outage).
    std::unordered_map<uint64_t, Micros> expired_at;
  };
  std::unordered_map<std::string, FreshEtags> fresh_etags_;

  /// Per-table commit tracking (ground truth, independent of InvaliDB).
  struct TableActivity {
    uint64_t commits = 0;
    Micros last_commit = 0;
  };
  std::unordered_map<std::string, TableActivity> table_activity_;

  SimResults results_;
  bool ran_ = false;
};

}  // namespace quaestor::sim

#endif  // QUAESTOR_SIM_SIMULATION_H_
