#include "ebf/expiring_bloom_filter.h"

#include <algorithm>
#include <iterator>
#include <memory>

namespace quaestor::ebf {

void EbfStats::ExportTo(obs::MetricsRegistry* registry,
                        const obs::Labels& labels) const {
  registry->Count("ebf_reads_reported", labels, reads_reported);
  registry->Count("ebf_invalidations_reported", labels,
                  invalidations_reported);
  registry->Count("ebf_keys_added", labels, keys_added);
  registry->Count("ebf_keys_expired", labels, keys_expired);
}

ExpiringBloomFilter::ExpiringBloomFilter(Clock* clock, BloomParams params)
    : clock_(clock), params_(params), counting_(params), flat_(params) {}

void ExpiringBloomFilter::ReportRead(std::string_view key, Micros ttl) {
  if (ttl <= 0) return;  // uncacheable response: nothing to track
  const Micros now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  MaintainLocked(now);
  TrackReadLocked(key, now + ttl);
}

void ExpiringBloomFilter::ReportReads(const std::vector<std::string>& keys,
                                      const std::vector<Micros>& ttls) {
  const Micros now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  MaintainLocked(now);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (ttls[i] <= 0) continue;  // uncacheable member: nothing to track
    TrackReadLocked(keys[i], now + ttls[i]);
  }
}

void ExpiringBloomFilter::TrackReadLocked(std::string_view key,
                                          Micros expire_at) {
  stats_.reads_reported++;
  auto it = keys_.find(key);
  if (it == keys_.end()) {
    // A newly tracked key queues its single deadline (cleanup of keys_
    // even if never invalidated).
    it = keys_.emplace(std::string(key), KeyState{}).first;
    deadlines_.push({expire_at, it->first});
  }
  // Only the highest issued TTL matters; the queued deadline catches up
  // when it comes due.
  it->second.expire_at = std::max(it->second.expire_at, expire_at);
}

bool ExpiringBloomFilter::ReportWrite(std::string_view key) {
  const Micros now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  MaintainLocked(now);
  stats_.invalidations_reported++;
  auto it = keys_.find(key);
  if (it == keys_.end()) return false;  // no unexpired TTL issued
  KeyState& st = it->second;
  if (st.expire_at <= now) return st.in_filter;
  // Some cache may hold this key until st.expire_at: mark stale until then.
  st.stale_until = std::max(st.stale_until, st.expire_at);
  if (!st.in_filter) {
    st.in_filter = true;
    stats_.keys_added++;
    counting_.Add(key, [this](size_t pos) { flat_.SetBit(pos); });
  }
  return true;
}

std::vector<std::string> ExpiringBloomFilter::FlagAllTracked() {
  const Micros now = clock_->NowMicros();
  std::vector<std::string> flagged;
  std::lock_guard<std::mutex> lock(mu_);
  MaintainLocked(now);
  for (auto& [key, st] : keys_) {
    if (st.expire_at <= now) continue;
    st.stale_until = std::max(st.stale_until, st.expire_at);
    if (!st.in_filter) {
      st.in_filter = true;
      stats_.keys_added++;
      counting_.Add(key, [this](size_t pos) { flat_.SetBit(pos); });
    }
    flagged.push_back(key);
  }
  stats_.invalidations_reported += flagged.size();
  return flagged;
}

bool ExpiringBloomFilter::IsStale(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end()) return false;
  return it->second.in_filter &&
         it->second.stale_until > clock_->NowMicros();
}

bool ExpiringBloomFilter::MaybeStale(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return flat_.MaybeContains(key);
}

BloomFilter ExpiringBloomFilter::Snapshot() {
  const Micros now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  MaintainLocked(now);
  return flat_;
}

void ExpiringBloomFilter::Maintain() {
  std::lock_guard<std::mutex> lock(mu_);
  MaintainLocked(clock_->NowMicros());
}

void ExpiringBloomFilter::MaintainLocked(Micros now) {
  while (!deadlines_.empty() && deadlines_.top().at <= now) {
    const std::string_view key = deadlines_.top().key;
    deadlines_.pop();
    auto it = keys_.find(key);
    KeyState& st = it->second;
    if (st.in_filter && st.stale_until <= now) {
      // The highest TTL issued before the invalidation has expired: every
      // cache has dropped the stale copy; the key is fresh again.
      st.in_filter = false;
      stats_.keys_expired++;
      counting_.Remove(key, [this](size_t pos) { flat_.ClearBit(pos); });
    }
    if (!st.in_filter && st.expire_at <= now) {
      keys_.erase(it);  // no live TTLs and not stale: forget the key
      continue;
    }
    // Reads or a flag raised the key's times since this deadline was
    // queued: re-queue it at the next one that matters.
    deadlines_.push({st.in_filter ? st.stale_until : st.expire_at, it->first});
  }
}

size_t ExpiringBloomFilter::StaleCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [key, st] : keys_) {
    if (st.in_filter) ++n;
  }
  return n;
}

size_t ExpiringBloomFilter::TrackedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return keys_.size();
}

size_t ExpiringBloomFilter::QueuedDeadlines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return deadlines_.size();
}

EbfStats ExpiringBloomFilter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

ExpiringBloomFilter* PartitionedEbf::Partition(std::string_view table) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = partitions_.find(table);
  if (it == partitions_.end()) {
    it = partitions_
             .emplace(std::string(table),
                      std::make_unique<ExpiringBloomFilter>(clock_, params_))
             .first;
  }
  return it->second.get();
}

std::string_view PartitionedEbf::TableOfKey(std::string_view key) {
  // Record keys look like "table/id"; query keys like "q:table?...".
  std::string_view rest = key;
  if (rest.starts_with("q:")) {
    rest.remove_prefix(2);
    const size_t q = rest.find('?');
    return rest.substr(0, q);
  }
  const size_t slash = rest.find('/');
  return rest.substr(0, slash);
}

ExpiringBloomFilter* PartitionedEbf::PartitionForKey(std::string_view key) {
  return Partition(TableOfKey(key));
}

void PartitionedEbf::ReportRead(std::string_view key, Micros ttl) {
  PartitionForKey(key)->ReportRead(key, ttl);
}

void PartitionedEbf::ReportReads(std::string_view table,
                                 const std::vector<std::string>& keys,
                                 const std::vector<Micros>& ttls) {
  Partition(table)->ReportReads(keys, ttls);
}

bool PartitionedEbf::ReportWrite(std::string_view key) {
  return PartitionForKey(key)->ReportWrite(key);
}

bool PartitionedEbf::IsStale(std::string_view key) {
  return PartitionForKey(key)->IsStale(key);
}

std::vector<std::string> PartitionedEbf::FlagAllTracked() {
  std::vector<ExpiringBloomFilter*> parts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    parts.reserve(partitions_.size());
    for (auto& [table, ebf] : partitions_) parts.push_back(ebf.get());
  }
  std::vector<std::string> flagged;
  for (ExpiringBloomFilter* ebf : parts) {
    std::vector<std::string> part = ebf->FlagAllTracked();
    flagged.insert(flagged.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
  }
  return flagged;
}

BloomFilter PartitionedEbf::AggregateSnapshot() {
  std::vector<ExpiringBloomFilter*> parts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    parts.reserve(partitions_.size());
    for (const auto& [table, ebf] : partitions_) parts.push_back(ebf.get());
  }
  BloomFilter out{params_};
  for (ExpiringBloomFilter* p : parts) out.UnionWith(p->Snapshot());
  return out;
}

EbfStats PartitionedEbf::AggregateStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  EbfStats out;
  for (const auto& [table, ebf] : partitions_) {
    const EbfStats s = ebf->stats();
    out.reads_reported += s.reads_reported;
    out.invalidations_reported += s.invalidations_reported;
    out.keys_added += s.keys_added;
    out.keys_expired += s.keys_expired;
  }
  return out;
}

size_t PartitionedEbf::StaleCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [table, ebf] : partitions_) n += ebf->StaleCount();
  return n;
}

size_t PartitionedEbf::PartitionCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partitions_.size();
}

}  // namespace quaestor::ebf
