#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "ebf/expiring_bloom_filter.h"

namespace quaestor::ebf {
namespace {

constexpr Micros kSecond = kMicrosPerSecond;

class EbfTest : public ::testing::Test {
 protected:
  EbfTest() : clock_(0), ebf_(&clock_) {}
  SimulatedClock clock_;
  ExpiringBloomFilter ebf_;
};

TEST_F(EbfTest, WriteWithoutReadIsNotStale) {
  // No TTL was ever issued: no cache can hold the key.
  EXPECT_FALSE(ebf_.ReportWrite("t/x"));
  EXPECT_FALSE(ebf_.IsStale("t/x"));
  EXPECT_FALSE(ebf_.Snapshot().MaybeContains("t/x"));
}

TEST_F(EbfTest, WriteDuringTtlMakesStale) {
  ebf_.ReportRead("t/x", 10 * kSecond);
  clock_.Advance(2 * kSecond);
  EXPECT_TRUE(ebf_.ReportWrite("t/x"));
  EXPECT_TRUE(ebf_.IsStale("t/x"));
  EXPECT_TRUE(ebf_.Snapshot().MaybeContains("t/x"));
}

TEST_F(EbfTest, WriteAfterTtlExpiryIsNotStale) {
  ebf_.ReportRead("t/x", 1 * kSecond);
  clock_.Advance(2 * kSecond);  // TTL passed: all caches dropped the copy
  EXPECT_FALSE(ebf_.ReportWrite("t/x"));
  EXPECT_FALSE(ebf_.IsStale("t/x"));
}

TEST_F(EbfTest, StaleKeyLeavesFilterWhenHighestTtlExpires) {
  ebf_.ReportRead("t/x", 10 * kSecond);
  clock_.Advance(1 * kSecond);
  ebf_.ReportWrite("t/x");
  EXPECT_TRUE(ebf_.IsStale("t/x"));
  // Just before the issued TTL expires the key is still flagged.
  clock_.Advance(9 * kSecond - 1);
  EXPECT_TRUE(ebf_.IsStale("t/x"));
  EXPECT_TRUE(ebf_.Snapshot().MaybeContains("t/x"));
  // At expiry the key leaves the filter.
  clock_.Advance(1);
  ebf_.Maintain();
  EXPECT_FALSE(ebf_.IsStale("t/x"));
  EXPECT_FALSE(ebf_.Snapshot().MaybeContains("t/x"));
}

TEST_F(EbfTest, ContainmentEndsAtHighestIssuedTtl) {
  // Definition 1: the key stays contained until the *highest* issued TTL
  // known at invalidation time has passed.
  ebf_.ReportRead("t/x", 5 * kSecond);
  clock_.Advance(1 * kSecond);
  ebf_.ReportRead("t/x", 10 * kSecond);  // extends expiry to t=11s
  clock_.Advance(1 * kSecond);
  ebf_.ReportWrite("t/x");  // at t=2s; stale until t=11s
  clock_.Advance(8 * kSecond);  // t=10s
  EXPECT_TRUE(ebf_.Snapshot().MaybeContains("t/x"));
  clock_.Advance(1 * kSecond);  // t=11s
  EXPECT_FALSE(ebf_.Snapshot().MaybeContains("t/x"));
}

TEST_F(EbfTest, RevalidationAfterInvalidationExtendsNothing) {
  // A fresh read during staleness issues a new TTL but must not shorten
  // or extend the existing stale window.
  ebf_.ReportRead("t/x", 10 * kSecond);
  clock_.Advance(1 * kSecond);
  ebf_.ReportWrite("t/x");  // stale until t=11s
  clock_.Advance(1 * kSecond);
  ebf_.ReportRead("t/x", 1 * kSecond);  // revalidation with short TTL
  clock_.Advance(2 * kSecond);          // t=4s: still stale (old copies live)
  EXPECT_TRUE(ebf_.IsStale("t/x"));
  clock_.Advance(7 * kSecond);  // t=11s
  ebf_.Maintain();
  EXPECT_FALSE(ebf_.IsStale("t/x"));
}

TEST_F(EbfTest, SecondWriteDuringStalenessExtendsWindow) {
  ebf_.ReportRead("t/x", 10 * kSecond);
  clock_.Advance(1 * kSecond);
  ebf_.ReportWrite("t/x");  // stale until t=11
  clock_.Advance(1 * kSecond);
  ebf_.ReportRead("t/x", 20 * kSecond);  // new copy until t=22
  clock_.Advance(1 * kSecond);
  ebf_.ReportWrite("t/x");  // stale until t=22 now
  clock_.Advance(10 * kSecond);  // t=13
  EXPECT_TRUE(ebf_.IsStale("t/x"));
  clock_.Advance(9 * kSecond);  // t=22
  ebf_.Maintain();
  EXPECT_FALSE(ebf_.IsStale("t/x"));
}

TEST_F(EbfTest, ZeroTtlReadsAreIgnored) {
  ebf_.ReportRead("t/x", 0);
  EXPECT_EQ(ebf_.TrackedCount(), 0u);
  EXPECT_FALSE(ebf_.ReportWrite("t/x"));
}

TEST_F(EbfTest, TrackedKeysAreForgottenAfterExpiry) {
  ebf_.ReportRead("t/x", 1 * kSecond);
  EXPECT_EQ(ebf_.TrackedCount(), 1u);
  clock_.Advance(2 * kSecond);
  ebf_.Maintain();
  EXPECT_EQ(ebf_.TrackedCount(), 0u);
}

TEST_F(EbfTest, StaleCountTracksFilterPopulation) {
  for (int i = 0; i < 10; ++i) {
    ebf_.ReportRead("t/k" + std::to_string(i), 10 * kSecond);
  }
  clock_.Advance(1 * kSecond);
  for (int i = 0; i < 5; ++i) {
    ebf_.ReportWrite("t/k" + std::to_string(i));
  }
  EXPECT_EQ(ebf_.StaleCount(), 5u);
  const EbfStats stats = ebf_.stats();
  EXPECT_EQ(stats.keys_added, 5u);
  EXPECT_EQ(stats.reads_reported, 10u);
  EXPECT_EQ(stats.invalidations_reported, 5u);
  clock_.Advance(10 * kSecond);
  ebf_.Maintain();
  EXPECT_EQ(ebf_.StaleCount(), 0u);
  EXPECT_EQ(ebf_.stats().keys_expired, 5u);
}

TEST_F(EbfTest, RepeatedWritesAddOnlyOnce) {
  ebf_.ReportRead("t/x", 10 * kSecond);
  clock_.Advance(1 * kSecond);
  ebf_.ReportWrite("t/x");
  ebf_.ReportWrite("t/x");
  ebf_.ReportWrite("t/x");
  EXPECT_EQ(ebf_.stats().keys_added, 1u);
  // One expiry must fully clear it (counting filter balance).
  clock_.Advance(10 * kSecond);
  ebf_.Maintain();
  EXPECT_FALSE(ebf_.Snapshot().MaybeContains("t/x"));
}

TEST_F(EbfTest, SnapshotIsImmutableCopy) {
  ebf_.ReportRead("t/x", 10 * kSecond);
  BloomFilter snap = ebf_.Snapshot();
  clock_.Advance(1 * kSecond);
  ebf_.ReportWrite("t/x");
  // The old snapshot does not see the new staleness (clients hold
  // immutable copies until they refresh, §3.3).
  EXPECT_FALSE(snap.MaybeContains("t/x"));
  EXPECT_TRUE(ebf_.Snapshot().MaybeContains("t/x"));
}

// ---------------------------------------------------------------------------
// Theorem 1 (∆-atomicity) — property sweep over refresh intervals
// ---------------------------------------------------------------------------

class DeltaAtomicityTest : public ::testing::TestWithParam<int> {};

TEST_P(DeltaAtomicityTest, FilterContainsEveryResultStaleSinceSnapshot) {
  // Construction: keys are read (cached), then written. Any key whose
  // cached TTL outlives its write time must be in a snapshot taken at any
  // t1 in between — a client using that snapshot can never unknowingly
  // read data staler than t2 − t1 (Theorem 1).
  const int delta_s = GetParam();
  SimulatedClock clock(0);
  ExpiringBloomFilter ebf(&clock);

  // Issue TTLs at t=0 with varying lengths.
  for (int i = 0; i < 50; ++i) {
    ebf.ReportRead("t/k" + std::to_string(i),
                   (i + 1) * kSecond);  // expire at i+1 seconds
  }
  // Writes at t=1s invalidate everything.
  clock.Advance(1 * kSecond);
  for (int i = 0; i < 50; ++i) {
    ebf.ReportWrite("t/k" + std::to_string(i));
  }
  // Snapshot at t1 = 1s + delta.
  clock.Advance(delta_s * kSecond);
  BloomFilter snap = ebf.Snapshot();
  for (int i = 0; i < 50; ++i) {
    const std::string key = "t/k" + std::to_string(i);
    const Micros ttl_expiry = (i + 1) * kSecond;
    if (ttl_expiry > clock.NowMicros()) {
      // Some cache may still serve the stale copy: must be flagged.
      EXPECT_TRUE(snap.MaybeContains(key)) << key << " delta=" << delta_s;
    }
    // (Keys whose TTL passed may or may not be flagged — false positives
    // are allowed, false negatives are not.)
  }
}

INSTANTIATE_TEST_SUITE_P(Deltas, DeltaAtomicityTest,
                         ::testing::Values(0, 1, 5, 20, 45));

// ---------------------------------------------------------------------------
// PartitionedEbf
// ---------------------------------------------------------------------------

TEST(PartitionedEbfTest, RoutesByTable) {
  SimulatedClock clock(0);
  PartitionedEbf ebf(&clock);
  ebf.ReportRead("users/1", 10 * kSecond);
  ebf.ReportRead("posts/1", 10 * kSecond);
  ebf.ReportRead("q:posts?group $eq 1", 10 * kSecond);
  EXPECT_EQ(ebf.PartitionCount(), 2u);  // users, posts
  EXPECT_EQ(ebf.Partition("posts")->TrackedCount(), 2u);
  EXPECT_EQ(ebf.Partition("users")->TrackedCount(), 1u);
}

TEST(PartitionedEbfTest, AggregateIsUnionOfPartitions) {
  SimulatedClock clock(0);
  PartitionedEbf ebf(&clock);
  ebf.ReportRead("a/1", 10 * kSecond);
  ebf.ReportRead("b/1", 10 * kSecond);
  clock.Advance(1 * kSecond);
  ebf.ReportWrite("a/1");
  ebf.ReportWrite("b/1");
  BloomFilter agg = ebf.AggregateSnapshot();
  EXPECT_TRUE(agg.MaybeContains("a/1"));
  EXPECT_TRUE(agg.MaybeContains("b/1"));
  EXPECT_EQ(ebf.StaleCount(), 2u);
}

TEST(PartitionedEbfTest, QueryKeysShareTablePartitionWithRecords) {
  SimulatedClock clock(0);
  PartitionedEbf ebf(&clock);
  ebf.ReportRead("q:posts?group $eq 1", 10 * kSecond);
  ebf.ReportRead("posts/1", 10 * kSecond);
  EXPECT_EQ(ebf.PartitionCount(), 1u);
}

TEST(PartitionedEbfTest, ReportReadsMatchesOneReportReadPerKey) {
  // The batched replay keeps ReportRead's rules per key: ttl <= 0 is
  // skipped, the highest expiry wins, one deadline per new key.
  SimulatedClock clock(0);
  PartitionedEbf batched(&clock);
  PartitionedEbf single(&clock);
  const std::vector<std::string> keys = {"posts/1", "posts/2", "posts/3",
                                         "posts/1"};
  const std::vector<Micros> ttls = {5 * kSecond, 0, -1, 9 * kSecond};
  batched.ReportReads("posts", keys, ttls);
  for (size_t i = 0; i < keys.size(); ++i) single.ReportRead(keys[i], ttls[i]);
  for (PartitionedEbf* ebf : {&batched, &single}) {
    ExpiringBloomFilter* part = ebf->Partition("posts");
    EXPECT_EQ(ebf->PartitionCount(), 1u);
    EXPECT_EQ(part->TrackedCount(), 1u);  // posts/1 only
    EXPECT_EQ(part->QueuedDeadlines(), 1u);
    EXPECT_EQ(part->stats().reads_reported, 2u);
    clock.Advance(7 * kSecond);  // past the 5 s read, inside the 9 s one
    EXPECT_TRUE(ebf->ReportWrite("posts/1"));
    EXPECT_FALSE(ebf->ReportWrite("posts/2"));
    clock.Advance(3 * kSecond);  // past 9 s: clean again
    part->Maintain();
    EXPECT_FALSE(ebf->IsStale("posts/1"));
    EXPECT_EQ(part->TrackedCount(), 0u);
    clock.SetTime(0);
  }
}

}  // namespace
}  // namespace quaestor::ebf
