#ifndef QUAESTOR_TTL_TTL_ESTIMATOR_H_
#define QUAESTOR_TTL_TTL_ESTIMATOR_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"

namespace quaestor::ttl {

/// Tunables for the statistical TTL estimation model (§4.2).
struct TtlOptions {
  /// Quantile p in Equation (1): TTL = -ln(1-p)/λ_min. Higher p → longer
  /// TTLs → more cache hits but more invalidations.
  double quantile = 0.5;

  /// EWMA weight α in Equation (2): TTL_query = α·TTL_old + (1-α)·TTL_actual.
  double ewma_alpha = 0.7;

  /// Disable the EWMA feedback loop entirely (queries then always use the
  /// initial Poisson estimate) — ablation knob for the §4.2 design.
  bool use_ewma = true;

  /// Bounds on issued TTLs.
  Micros min_ttl = SecondsToMicros(1.0);
  Micros max_ttl = SecondsToMicros(600.0);

  /// Sliding window over which write rates are measured.
  Micros rate_window = SecondsToMicros(60.0);

  /// Number of write timestamps remembered per key.
  size_t max_samples_per_key = 32;
};

/// Estimates per-record write arrival rates λ_w from observed write
/// timestamps over a sliding window (the Poisson-process model of §4.2).
/// Thread-safe.
class WriteRateEstimator {
 public:
  WriteRateEstimator(Clock* clock, const TtlOptions& options)
      : clock_(clock), options_(options) {}

  /// Records a write to `key` at the current time.
  void RecordWrite(std::string_view key);

  /// Estimated write rate in events per microsecond. Keys that have never
  /// been written (or whose samples all aged out) return 0 — "no evidence
  /// of change", which maps to the maximum TTL.
  double RateOf(std::string_view key) const;

  /// Sum of rates over a set of keys: λ_min of the minimum-of-exponentials
  /// distribution for a query result (§4.2). One lock and one clock read
  /// for the whole set.
  double SumRate(const std::vector<std::string>& keys) const;

  size_t TrackedKeys() const;

 private:
  /// RateOf at time `now`; the caller holds mu_.
  double RateLocked(std::string_view key, Micros now) const;

  Clock* clock_;
  TtlOptions options_;
  mutable std::mutex mu_;
  // Oldest first, at most max_samples_per_key per key.
  std::unordered_map<std::string, std::vector<Micros>, StringViewHash,
                     std::equal_to<>>
      samples_;
};

/// Converts arrival rates into TTLs and maintains per-query EWMA-refined
/// estimates (the TTL Estimator component in Figure 3). Thread-safe.
class TtlEstimator {
 public:
  TtlEstimator(Clock* clock, TtlOptions options = TtlOptions())
      : clock_(clock),
        options_(options),
        write_rates_(clock, options) {}

  const TtlOptions& options() const { return options_; }
  WriteRateEstimator& write_rates() { return write_rates_; }

  /// Observes a write (feeds the rate estimator).
  void RecordWrite(std::string_view record_key) {
    write_rates_.RecordWrite(record_key);
  }

  /// TTL for an individual record: quantile of the exponential
  /// inter-arrival distribution with the record's estimated λ_w, clamped
  /// to [min_ttl, max_ttl]. Records are always estimated from write rates
  /// (§4.2: "For individual records, we always use an estimate based on
  /// the approximated write-rates").
  Micros RecordTtl(std::string_view record_key) const;

  /// TTL for a query result. If an EWMA estimate exists (the query was
  /// invalidated before), it is used; otherwise the initial Poisson
  /// estimate from the member records' summed write rates.
  Micros QueryTtl(std::string_view query_key,
                  const std::vector<std::string>& result_record_keys) const;

  /// Feedback on invalidation: the actual TTL was the span between the
  /// last read and the invalidation (Equation 2). Updates the EWMA.
  void OnQueryInvalidated(std::string_view query_key, Micros actual_ttl);

  /// Raw quantile formula: TTL = -ln(1-p)/λ (Equation 1), for λ in
  /// events/µs. Returns max_ttl when λ is 0.
  Micros QuantileTtl(double lambda) const;

  /// Number of queries with EWMA state.
  size_t TrackedQueries() const;

  /// Drops EWMA state for a query (e.g. on cache-capacity eviction).
  void Forget(std::string_view query_key);

 private:
  Micros Clamp(Micros ttl) const;

  Clock* clock_;
  TtlOptions options_;
  WriteRateEstimator write_rates_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, double, StringViewHash, std::equal_to<>>
      query_ewma_;  // key → ttl (µs)
};

}  // namespace quaestor::ttl

#endif  // QUAESTOR_TTL_TTL_ESTIMATOR_H_
