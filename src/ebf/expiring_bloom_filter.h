#ifndef QUAESTOR_EBF_EXPIRING_BLOOM_FILTER_H_
#define QUAESTOR_EBF_EXPIRING_BLOOM_FILTER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "ebf/bloom_filter.h"
#include "obs/metrics.h"

namespace quaestor::ebf {

/// Aggregate counters for EBF activity.
struct EbfStats {
  uint64_t reads_reported = 0;
  uint64_t invalidations_reported = 0;
  uint64_t keys_added = 0;    // key entered the stale set
  uint64_t keys_expired = 0;  // key left the stale set (TTL passed)

  /// Adds these totals into `ebf_*` registry counters.
  void ExportTo(obs::MetricsRegistry* registry,
                const obs::Labels& labels = {}) const;
};

/// The server-side Expiring Bloom Filter (§3.1, §3.3).
///
/// Tracks, for every cacheable key (normalized query string or record
/// key), the highest cache-expiration time the server has issued. When a
/// key is invalidated while some issued TTL is still unexpired, the key is
/// added to a counting Bloom filter — it is now "potentially stale" in
/// some cache. Once the highest issued TTL passes, all cached copies have
/// expired and the key is removed from the filter.
///
/// A flat Bloom filter is maintained incrementally (bits track non-zero
/// counters) so clients can fetch an up-to-date immutable snapshot in O(m)
/// without rebuilding (§3.3 "Server-side EBF Maintenance").
///
/// Thread-safe.
class ExpiringBloomFilter {
 public:
  explicit ExpiringBloomFilter(Clock* clock,
                               BloomParams params = BloomParams());

  ExpiringBloomFilter(const ExpiringBloomFilter&) = delete;
  ExpiringBloomFilter& operator=(const ExpiringBloomFilter&) = delete;

  /// Reports that a cacheable read/query response for `key` was served
  /// with time-to-live `ttl` (µs). Extends the tracked maximum expiration.
  void ReportRead(std::string_view key, Micros ttl);

  /// ReportRead for each `keys[i]` with `ttls[i]` (equal sizes), under one
  /// lock and one clock read.
  void ReportReads(const std::vector<std::string>& keys,
                   const std::vector<Micros>& ttls);

  /// Reports a write/invalidation of `key`. If any previously issued TTL
  /// is still unexpired, the key becomes potentially stale: it is added to
  /// the filter until that TTL passes. Returns true if the key is (now)
  /// contained in the filter.
  bool ReportWrite(std::string_view key);

  /// True if the key is in the stale set (exact, not through Bloom
  /// hashing — the server tracks exact state; the Bloom filter is only the
  /// compact client representation).
  bool IsStale(std::string_view key) const;

  /// Conservatively flags every key with an unexpired issued TTL as
  /// potentially stale (degraded-mode entry: any of them may have a
  /// cached copy whose invalidation will be lost). Returns the flagged
  /// keys so the caller can also purge shared caches.
  std::vector<std::string> FlagAllTracked();

  /// Bloom-filter membership test (what a client holding the current
  /// snapshot would conclude, including false positives).
  bool MaybeStale(std::string_view key) const;

  /// Immutable flat snapshot for clients (a plain Bloom filter). Runs
  /// expiration maintenance first so the snapshot is current.
  BloomFilter Snapshot();

  /// Processes all expirations due at the current clock time. Called
  /// automatically by the reporting methods; exposed for tests.
  void Maintain();

  /// Number of keys currently considered stale.
  size_t StaleCount() const;

  /// Number of keys with tracked (unexpired) TTLs.
  size_t TrackedCount() const;

  /// Number of expiration deadlines queued (at most TrackedCount(): one
  /// per key, however many reads it served). Exposed for tests.
  size_t QueuedDeadlines() const;

  EbfStats stats() const;

  const BloomParams& params() const { return params_; }

 private:
  struct KeyState {
    Micros expire_at = 0;   // max issued TTL expiry
    Micros stale_until = 0; // while in filter: when to remove
    bool in_filter = false;
  };

  /// The one queued deadline of a tracked key. `key` views the keys_ node
  /// (node keys are stable across rehashing); the key is erased only when
  /// this, its sole deadline, is popped, so the view never dangles.
  struct Deadline {
    Micros at;
    std::string_view key;
    bool operator>(const Deadline& other) const { return at > other.at; }
  };

  void MaintainLocked(Micros now);
  /// Raises `key`'s tracked expiry to `expire_at` (a served ttl > 0).
  void TrackReadLocked(std::string_view key, Micros expire_at);

  Clock* clock_;
  BloomParams params_;
  mutable std::mutex mu_;
  CountingBloomFilter counting_;
  BloomFilter flat_;  // incrementally maintained
  std::unordered_map<std::string, KeyState, StringViewHash, std::equal_to<>>
      keys_;
  /// Exactly one entry per key in keys_, due no later than the key's next
  /// relevant time (stale_until while flagged, expire_at otherwise):
  /// raising a key's times never queues, MaintainLocked re-queues the key
  /// when its entry comes due early.
  std::priority_queue<Deadline, std::vector<Deadline>, std::greater<>>
      deadlines_;
  EbfStats stats_;
};

/// Per-table partitioned EBF (§3.3 Scalability): each table gets its own
/// EBF instance so filter modifications and expiration tracking distribute
/// horizontally; the client-facing aggregate is the bitwise OR over the
/// partitions' flat filters.
class PartitionedEbf {
 public:
  PartitionedEbf(Clock* clock, BloomParams params = BloomParams())
      : clock_(clock), params_(params) {}

  /// Returns the partition for a table, creating it on first use.
  ExpiringBloomFilter* Partition(std::string_view table);

  /// Partition for a prefixed key ("table/id" or "q:table?...").
  ExpiringBloomFilter* PartitionForKey(std::string_view key);

  void ReportRead(std::string_view key, Micros ttl);
  /// ExpiringBloomFilter::ReportReads on `table`'s partition: every key
  /// must belong to `table` (the members of one query result do).
  void ReportReads(std::string_view table,
                   const std::vector<std::string>& keys,
                   const std::vector<Micros>& ttls);
  bool ReportWrite(std::string_view key);
  bool IsStale(std::string_view key);

  /// FlagAllTracked over every partition (degraded-mode entry).
  std::vector<std::string> FlagAllTracked();

  /// Union of all partitions' flat filters.
  BloomFilter AggregateSnapshot();

  size_t StaleCount() const;
  size_t PartitionCount() const;

  /// Sum of all partitions' counters.
  EbfStats AggregateStats() const;

  /// The table a cache key belongs to ("table/id" → table,
  /// "q:table?..." → table) — also the partition routing rule clients use
  /// when loading table-specific EBFs (§3.3). Views into `key`.
  static std::string_view TableOfKey(std::string_view key);

 private:

  Clock* clock_;
  BloomParams params_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<ExpiringBloomFilter>,
                     StringViewHash, std::equal_to<>>
      partitions_;
};

}  // namespace quaestor::ebf

#endif  // QUAESTOR_EBF_EXPIRING_BLOOM_FILTER_H_
