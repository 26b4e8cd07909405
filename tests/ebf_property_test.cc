// Property tests for the Expiring Bloom Filter family (§3.3):
//  1. No false negatives, ever: every key the server tracks as stale must
//     be reported stale by the client-facing Bloom snapshot — across
//     randomized read/write/advance traces for the in-process EBF and the
//     per-table PartitionedEbf.
//  2. The in-process EBF's stale count matches an exact recount of the
//     keys it reports stale after every step of those traces.
//  3. The measured false-positive rate of the flat filter stays within 2x
//     of the analytic bound across fill levels.
//  4. The in-process EBF queues at most one expiration deadline per
//     tracked key, however many reads the key serves.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "ebf/bloom_filter.h"
#include "ebf/expiring_bloom_filter.h"

namespace quaestor::ebf {
namespace {

std::string KeyName(uint64_t i) { return "items/k" + std::to_string(i); }

/// One randomized step against the EBF plus a model `universe` of every
/// key ever touched.
struct Trace {
  explicit Trace(uint64_t seed) : rng(seed) {}

  void Step(SimulatedClock& clock, ExpiringBloomFilter& ebf) {
    const double roll = rng.NextDouble();
    const std::string key = KeyName(rng.NextUint64(40));
    universe.insert(key);
    if (roll < 0.45) {
      const Micros ttl = SecondsToMicros(0.1) +
                         static_cast<Micros>(rng.NextUint64(
                             static_cast<uint64_t>(SecondsToMicros(2.0))));
      ebf.ReportRead(key, ttl);
    } else if (roll < 0.80) {
      ebf.ReportWrite(key);
    } else {
      clock.Advance(static_cast<Micros>(
          rng.NextUint64(static_cast<uint64_t>(SecondsToMicros(0.5)))));
    }
  }

  Rng rng;
  std::set<std::string> universe;
};

TEST(EbfPropertyTest, NoFalseNegativesOnRandomTraces) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SimulatedClock clock(0);
    ExpiringBloomFilter ebf(&clock);
    Trace trace(seed);
    for (int step = 0; step < 400; ++step) {
      trace.Step(clock, ebf);

      // Sweep expirations first: StaleCount reports the post-maintenance
      // view, which must equal an exact recount of the stale keys.
      ebf.Maintain();
      size_t stale = 0;
      for (const std::string& key : trace.universe) {
        stale += ebf.IsStale(key) ? 1 : 0;
      }
      ASSERT_EQ(ebf.StaleCount(), stale);
      ASSERT_LE(ebf.QueuedDeadlines(), ebf.TrackedCount())
          << "seed " << seed << " step " << step;

      // Snapshot every 25 steps (it is O(m)): anything exactly stale must
      // be in the flat filter — a false negative here would let a client
      // serve provably stale data as fresh.
      if (step % 25 != 0) continue;
      BloomFilter snapshot = ebf.Snapshot();
      for (const std::string& key : trace.universe) {
        if (!ebf.IsStale(key)) continue;
        EXPECT_TRUE(ebf.MaybeStale(key)) << key;
        EXPECT_TRUE(snapshot.MaybeContains(key)) << key;
      }
    }
  }
}

TEST(EbfPropertyTest, OneQueuedDeadlinePerKeyHoweverManyReads) {
  SimulatedClock clock(0);
  ExpiringBloomFilter ebf(&clock);
  // Every read raises the key's expiry, so a per-read queue would hold
  // one entry per read.
  for (int i = 0; i < 10000; ++i) {
    ebf.ReportRead("items/hot", SecondsToMicros(1.0) + i);
  }
  EXPECT_EQ(ebf.TrackedCount(), 1u);
  EXPECT_EQ(ebf.QueuedDeadlines(), 1u);

  // The early deadline re-queues at the raised expiry instead of
  // forgetting the key.
  clock.Advance(SecondsToMicros(1.0));
  ebf.Maintain();
  EXPECT_EQ(ebf.TrackedCount(), 1u);
  EXPECT_EQ(ebf.QueuedDeadlines(), 1u);
  clock.Advance(10000);
  ebf.Maintain();
  EXPECT_EQ(ebf.TrackedCount(), 0u);
  EXPECT_EQ(ebf.QueuedDeadlines(), 0u);
}

TEST(EbfPropertyTest, StaleUntilHighestTtlIssuedBeforeTheWrite) {
  SimulatedClock clock(0);
  ExpiringBloomFilter ebf(&clock);
  ebf.ReportRead("items/a", SecondsToMicros(1.0));
  clock.Advance(SecondsToMicros(0.5));
  ebf.ReportRead("items/a", SecondsToMicros(2.0));  // expires at 2.5 s
  clock.Advance(SecondsToMicros(0.5));
  EXPECT_TRUE(ebf.ReportWrite("items/a"));  // at 1.0 s
  // A read after the write issues a fresh copy: it extends tracking but
  // not the stale window.
  clock.Advance(SecondsToMicros(0.2));
  ebf.ReportRead("items/a", SecondsToMicros(10.0));  // expires at 11.2 s
  EXPECT_EQ(ebf.QueuedDeadlines(), 1u);

  clock.SetTime(2500000 - 1);
  ebf.Maintain();
  EXPECT_TRUE(ebf.IsStale("items/a"));
  clock.SetTime(2500000);
  ebf.Maintain();
  EXPECT_FALSE(ebf.IsStale("items/a"));
  EXPECT_FALSE(ebf.MaybeStale("items/a"));
  EXPECT_EQ(ebf.TrackedCount(), 1u);
  EXPECT_EQ(ebf.QueuedDeadlines(), 1u);

  // A second write flags it again until the 11.2 s expiry.
  EXPECT_TRUE(ebf.ReportWrite("items/a"));
  clock.SetTime(11200000 - 1);
  ebf.Maintain();
  EXPECT_TRUE(ebf.IsStale("items/a"));
  clock.SetTime(11200000);
  ebf.Maintain();
  EXPECT_FALSE(ebf.IsStale("items/a"));
  EXPECT_EQ(ebf.TrackedCount(), 0u);
  EXPECT_EQ(ebf.QueuedDeadlines(), 0u);
}

TEST(EbfPropertyTest, FlagAllTrackedFlagsUnexpiredKeysUntilTheirExpiry) {
  SimulatedClock clock(0);
  ExpiringBloomFilter ebf(&clock);
  ebf.ReportRead("items/short", SecondsToMicros(1.0));
  ebf.ReportRead("items/long", SecondsToMicros(3.0));
  ebf.ReportRead("items/gone", SecondsToMicros(0.5));
  clock.Advance(SecondsToMicros(0.5));

  std::vector<std::string> flagged = ebf.FlagAllTracked();
  std::sort(flagged.begin(), flagged.end());
  EXPECT_EQ(flagged,
            (std::vector<std::string>{"items/long", "items/short"}));
  EXPECT_EQ(ebf.StaleCount(), 2u);
  EXPECT_LE(ebf.QueuedDeadlines(), ebf.TrackedCount());

  clock.SetTime(SecondsToMicros(1.0));
  ebf.Maintain();
  EXPECT_FALSE(ebf.IsStale("items/short"));
  EXPECT_TRUE(ebf.IsStale("items/long"));
  clock.SetTime(SecondsToMicros(3.0));
  ebf.Maintain();
  EXPECT_FALSE(ebf.IsStale("items/long"));
  EXPECT_EQ(ebf.StaleCount(), 0u);
  EXPECT_EQ(ebf.TrackedCount(), 0u);
  EXPECT_EQ(ebf.QueuedDeadlines(), 0u);
}

TEST(EbfPropertyTest, PartitionedAggregateHasNoFalseNegatives) {
  const char* const kTables[] = {"users", "posts", "items"};
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SimulatedClock clock(0);
    PartitionedEbf ebf(&clock);
    Rng rng(seed);
    std::set<std::string> universe;
    for (int step = 0; step < 400; ++step) {
      const std::string key = std::string(kTables[rng.NextUint64(3)]) +
                              "/k" + std::to_string(rng.NextUint64(30));
      universe.insert(key);
      const double roll = rng.NextDouble();
      if (roll < 0.45) {
        ebf.ReportRead(key, SecondsToMicros(1.0));
      } else if (roll < 0.8) {
        ebf.ReportWrite(key);
      } else {
        clock.Advance(static_cast<Micros>(
            rng.NextUint64(static_cast<uint64_t>(SecondsToMicros(0.4)))));
      }
      if (step % 25 != 0) continue;
      BloomFilter aggregate = ebf.AggregateSnapshot();
      for (const std::string& k : universe) {
        if (ebf.IsStale(k)) {
          EXPECT_TRUE(aggregate.MaybeContains(k)) << k;
        }
      }
    }
  }
}

TEST(EbfPropertyTest, MeasuredFprWithinTwiceAnalyticBound) {
  const BloomParams params;  // the paper's 14.6 KB / 4-hash default
  const size_t kProbes = 20000;
  for (const size_t fill : {1000u, 5000u, 10000u, 20000u}) {
    BloomFilter filter(params);
    for (size_t i = 0; i < fill; ++i) {
      filter.Add("member/" + std::to_string(i));
    }
    size_t false_positives = 0;
    for (size_t i = 0; i < kProbes; ++i) {
      if (filter.MaybeContains("absent/" + std::to_string(i))) {
        ++false_positives;
      }
    }
    const double measured =
        static_cast<double>(false_positives) / static_cast<double>(kProbes);
    const double predicted = BloomParams::FalsePositiveRate(
        params.num_bits, fill, params.num_hashes);
    // 2x the analytic rate plus additive slack for sampling noise at the
    // near-zero fill levels.
    EXPECT_LE(measured, 2.0 * predicted + 0.002)
        << "fill " << fill << ": measured " << measured << " vs predicted "
        << predicted;
    // And the filter must not be uselessly pessimistic either.
    EXPECT_LE(predicted / 4.0, measured + 0.002) << "fill " << fill;
  }
}

}  // namespace
}  // namespace quaestor::ebf
