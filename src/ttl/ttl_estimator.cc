#include "ttl/ttl_estimator.h"

#include <algorithm>
#include <cmath>

namespace quaestor::ttl {

void WriteRateEstimator::RecordWrite(std::string_view key) {
  const Micros now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Micros>& s = samples_[std::string(key)];
  // Drop what the cap and the window push out before appending, so the
  // vector never holds more than max_samples_per_key.
  const size_t cap = options_.max_samples_per_key;
  size_t drop = s.size() + 1 > cap ? s.size() + 1 - cap : 0;
  while (drop < s.size() && s[drop] < now - options_.rate_window) ++drop;
  s.erase(s.begin(), s.begin() + std::min(drop, s.size()));
  if (cap > 0) s.push_back(now);
}

double WriteRateEstimator::RateOf(std::string_view key) const {
  const Micros now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  return RateLocked(key, now);
}

double WriteRateEstimator::RateLocked(std::string_view key,
                                      Micros now) const {
  auto it = samples_.find(key);
  if (it == samples_.end()) return 0.0;
  const std::vector<Micros>& s = it->second;
  // Count samples within the window (entries are pruned lazily on write,
  // so re-filter here).
  const Micros cutoff = now - options_.rate_window;
  size_t count = 0;
  for (Micros t : s) {
    if (t >= cutoff) ++count;
  }
  if (count == 0) return 0.0;
  if (count >= 2) {
    // Rate over the span actually observed (oldest in-window sample to
    // now). Using this whenever two or more samples are present keeps the
    // estimate continuous as samples age out of the window or ring; the
    // fixed-window denominator is only a fallback for a lone sample,
    // where no span exists.
    const Micros oldest = *std::find_if(
        s.begin(), s.end(), [cutoff](Micros t) { return t >= cutoff; });
    const Micros span = now - oldest;
    if (span > 0) return static_cast<double>(count) / static_cast<double>(span);
  }
  return static_cast<double>(count) /
         static_cast<double>(options_.rate_window);
}

double WriteRateEstimator::SumRate(const std::vector<std::string>& keys) const {
  const Micros now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  for (const std::string& k : keys) sum += RateLocked(k, now);
  return sum;
}

size_t WriteRateEstimator::TrackedKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

Micros TtlEstimator::Clamp(Micros ttl) const {
  return std::clamp(ttl, options_.min_ttl, options_.max_ttl);
}

Micros TtlEstimator::QuantileTtl(double lambda) const {
  if (lambda <= 0.0) return options_.max_ttl;
  const double ttl = -std::log(1.0 - options_.quantile) / lambda;
  if (ttl >= static_cast<double>(options_.max_ttl)) return options_.max_ttl;
  return Clamp(static_cast<Micros>(ttl));
}

Micros TtlEstimator::RecordTtl(std::string_view record_key) const {
  return QuantileTtl(write_rates_.RateOf(record_key));
}

Micros TtlEstimator::QueryTtl(
    std::string_view query_key,
    const std::vector<std::string>& result_record_keys) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = query_ewma_.find(query_key);
    if (it != query_ewma_.end()) {
      return Clamp(static_cast<Micros>(it->second));
    }
  }
  // Initial estimate: min of exponentials is exponential with
  // λ_min = Σ λ_wi over the result members (§4.2).
  return QuantileTtl(write_rates_.SumRate(result_record_keys));
}

void TtlEstimator::OnQueryInvalidated(std::string_view query_key,
                                      Micros actual_ttl) {
  if (!options_.use_ewma) return;
  if (actual_ttl < 0) actual_ttl = 0;
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key(query_key);
  auto it = query_ewma_.find(key);
  if (it == query_ewma_.end()) {
    // Store the raw observation: clamping happens only when a TTL is
    // issued (QueryTtl), so Eq. (2) always folds values on one scale and
    // the state converges the same regardless of observation order.
    query_ewma_[key] = static_cast<double>(actual_ttl);
    return;
  }
  // Equation (2): TTL = α·TTL_old + (1-α)·TTL_actual.
  it->second = options_.ewma_alpha * it->second +
               (1.0 - options_.ewma_alpha) * static_cast<double>(actual_ttl);
}

size_t TtlEstimator::TrackedQueries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return query_ewma_.size();
}

void TtlEstimator::Forget(std::string_view query_key) {
  std::lock_guard<std::mutex> lock(mu_);
  query_ewma_.erase(std::string(query_key));
}

}  // namespace quaestor::ttl
