#include <gtest/gtest.h>

#include <cmath>

#include "common/clock.h"
#include "ttl/active_list.h"
#include "ttl/capacity_manager.h"
#include "ttl/representation.h"
#include "ttl/ttl_estimator.h"

namespace quaestor::ttl {
namespace {

constexpr Micros kSecond = kMicrosPerSecond;

// ---------------------------------------------------------------------------
// WriteRateEstimator
// ---------------------------------------------------------------------------

TEST(WriteRateTest, UnknownKeyHasZeroRate) {
  SimulatedClock clock(0);
  WriteRateEstimator est(&clock, TtlOptions());
  EXPECT_DOUBLE_EQ(est.RateOf("never-written"), 0.0);
}

TEST(WriteRateTest, RateMatchesWriteFrequency) {
  SimulatedClock clock(0);
  TtlOptions opts;
  opts.rate_window = 60 * kSecond;
  WriteRateEstimator est(&clock, opts);
  // 1 write per second for 30 seconds. The rate is estimated over the
  // observed sample span (30 s), not the full 60 s window — the true
  // write frequency, regardless of how much window remains unobserved.
  for (int i = 0; i < 30; ++i) {
    est.RecordWrite("k");
    clock.Advance(1 * kSecond);
  }
  const double per_second = est.RateOf("k") * kSecond;
  EXPECT_NEAR(per_second, 1.0, 0.1);
}

TEST(WriteRateTest, PartialRingUsesObservedSpan) {
  // Regression: with fewer samples than the ring capacity, RateOf used
  // the full-window denominator, grossly underestimating bursty writers
  // (7 writes 1 s apart over a 100 s window read as 0.07/s, then jumped
  // 16× the moment the 8th write filled the ring).
  SimulatedClock clock(0);
  TtlOptions opts;
  opts.max_samples_per_key = 8;
  opts.rate_window = 100 * kSecond;
  WriteRateEstimator est(&clock, opts);
  for (int i = 0; i < 7; ++i) {
    est.RecordWrite("k");
    clock.Advance(1 * kSecond);
  }
  const double per_second = est.RateOf("k") * kSecond;
  EXPECT_GT(per_second, 0.5);
  EXPECT_NEAR(per_second, 1.0, 0.3);
}

TEST(WriteRateTest, RateStaysContinuousAsSamplesExpire) {
  // Regression: the estimator must not jump discontinuously when a
  // sample ages out of the window. Writes at t = 0..7 s, window 10 s:
  // just before t = 10 s all 8 samples count; just after, the t = 0
  // sample expires. Both sides use the observed-span denominator, so the
  // rate moves by a few percent — not the 12%+ cliff the old
  // window-denominator fallback produced.
  SimulatedClock clock(0);
  TtlOptions opts;
  opts.max_samples_per_key = 8;
  opts.rate_window = 10 * kSecond;
  WriteRateEstimator est(&clock, opts);
  for (int i = 0; i < 8; ++i) {
    est.RecordWrite("k");
    clock.Advance(1 * kSecond);
  }
  clock.SetTime(static_cast<Micros>(9.99 * kSecond));
  const double before = est.RateOf("k") * kSecond;
  clock.SetTime(static_cast<Micros>(10.01 * kSecond));
  const double after = est.RateOf("k") * kSecond;
  ASSERT_GT(before, 0.0);
  ASSERT_GT(after, 0.0);
  EXPECT_LT(std::abs(after - before) / before, 0.05);
}

TEST(WriteRateTest, SingleSampleFallsBackToWindow) {
  SimulatedClock clock(0);
  TtlOptions opts;
  opts.rate_window = 10 * kSecond;
  WriteRateEstimator est(&clock, opts);
  est.RecordWrite("k");
  clock.Advance(1 * kSecond);
  // One sample has no observable span; the window is the only defensible
  // denominator.
  EXPECT_DOUBLE_EQ(est.RateOf("k") * kSecond, 0.1);
}

TEST(WriteRateTest, OldWritesAgeOut) {
  SimulatedClock clock(0);
  TtlOptions opts;
  opts.rate_window = 10 * kSecond;
  WriteRateEstimator est(&clock, opts);
  est.RecordWrite("k");
  clock.Advance(20 * kSecond);
  EXPECT_DOUBLE_EQ(est.RateOf("k"), 0.0);
}

TEST(WriteRateTest, SumRateAddsAcrossKeys) {
  SimulatedClock clock(0);
  TtlOptions opts;
  opts.rate_window = 10 * kSecond;
  WriteRateEstimator est(&clock, opts);
  est.RecordWrite("a");
  est.RecordWrite("a");
  est.RecordWrite("b");
  clock.Advance(2 * kSecond);
  const double sum = est.SumRate({"a", "b", "c"});
  EXPECT_NEAR(sum, est.RateOf("a") + est.RateOf("b"), 1e-12);
  EXPECT_GT(sum, 0.0);
  EXPECT_EQ(est.TrackedKeys(), 2u);
}

TEST(WriteRateTest, FullRingUsesObservedSpan) {
  SimulatedClock clock(0);
  TtlOptions opts;
  opts.max_samples_per_key = 8;
  opts.rate_window = 1000 * kSecond;
  WriteRateEstimator est(&clock, opts);
  // High-frequency writer: 10 writes/s, ring holds only 8 samples.
  for (int i = 0; i < 100; ++i) {
    est.RecordWrite("hot");
    clock.Advance(kSecond / 10);
  }
  const double per_second = est.RateOf("hot") * kSecond;
  EXPECT_NEAR(per_second, 10.0, 2.0);
}

TEST(WriteRateTest, KeepsOnlyTheNewestSamplesPerKey) {
  SimulatedClock clock(0);
  TtlOptions opts;  // max_samples_per_key = 32
  opts.rate_window = 1000 * kSecond;
  WriteRateEstimator est(&clock, opts);
  // 40 writes 250 ms apart at t = 0 .. 9.75 s; the clock ends at 10 s.
  for (int i = 0; i < 40; ++i) {
    est.RecordWrite("k");
    clock.Advance(kSecond / 4);
  }
  // The newest 32 are writes 8 .. 39: oldest at 2 s, so 32 samples over
  // the 8 s span up to now.
  EXPECT_DOUBLE_EQ(est.RateOf("k"), 32.0 / static_cast<double>(8 * kSecond));
}

// ---------------------------------------------------------------------------
// Quantile formula (Equation 1)
// ---------------------------------------------------------------------------

TEST(TtlEstimatorTest, QuantileFormula) {
  SimulatedClock clock(0);
  TtlOptions opts;
  opts.quantile = 0.5;
  opts.min_ttl = 0;
  opts.max_ttl = 1000000 * kSecond;
  TtlEstimator est(&clock, opts);
  // λ = 1 event/second → median inter-arrival = ln(2) seconds.
  const double lambda = 1.0 / static_cast<double>(kSecond);
  const Micros ttl = est.QuantileTtl(lambda);
  EXPECT_NEAR(MicrosToSeconds(ttl), std::log(2.0), 1e-6);
}

TEST(TtlEstimatorTest, HigherQuantileGivesLongerTtl) {
  SimulatedClock clock(0);
  TtlOptions low;
  low.quantile = 0.3;
  TtlOptions high;
  high.quantile = 0.9;
  TtlEstimator le(&clock, low);
  TtlEstimator he(&clock, high);
  const double lambda = 1.0 / static_cast<double>(kSecond);
  EXPECT_LT(le.QuantileTtl(lambda), he.QuantileTtl(lambda));
}

TEST(TtlEstimatorTest, ZeroRateGivesMaxTtl) {
  SimulatedClock clock(0);
  TtlOptions opts;
  TtlEstimator est(&clock, opts);
  EXPECT_EQ(est.QuantileTtl(0.0), opts.max_ttl);
  EXPECT_EQ(est.RecordTtl("never-written"), opts.max_ttl);
}

TEST(TtlEstimatorTest, TtlClampedToBounds) {
  SimulatedClock clock(0);
  TtlOptions opts;
  opts.min_ttl = 2 * kSecond;
  opts.max_ttl = 100 * kSecond;
  TtlEstimator est(&clock, opts);
  // Enormous rate → tiny raw TTL → clamped up to min.
  EXPECT_EQ(est.QuantileTtl(1.0), opts.min_ttl);
}

TEST(TtlEstimatorTest, HotterRecordsGetShorterTtls) {
  SimulatedClock clock(0);
  TtlOptions opts;
  opts.min_ttl = 0;
  TtlEstimator est(&clock, opts);
  for (int i = 0; i < 20; ++i) {
    est.RecordWrite("hot");
    if (i % 4 == 0) est.RecordWrite("warm");
    clock.Advance(1 * kSecond);
  }
  EXPECT_LT(est.RecordTtl("hot"), est.RecordTtl("warm"));
  EXPECT_LT(est.RecordTtl("warm"), est.RecordTtl("cold"));
}

// ---------------------------------------------------------------------------
// Query TTLs: min-of-exponentials + EWMA (Equation 2)
// ---------------------------------------------------------------------------

TEST(TtlEstimatorTest, QueryTtlUsesSummedRates) {
  SimulatedClock clock(0);
  TtlOptions opts;
  opts.min_ttl = 0;
  TtlEstimator est(&clock, opts);
  for (int i = 0; i < 10; ++i) {
    est.RecordWrite("a");
    est.RecordWrite("b");
    clock.Advance(1 * kSecond);
  }
  // λ_min = λ_a + λ_b, so the query TTL is below each member's TTL.
  const Micros q = est.QueryTtl("q:t?x", {"a", "b"});
  EXPECT_LT(q, est.RecordTtl("a"));
  EXPECT_LT(q, est.RecordTtl("b"));
}

TEST(TtlEstimatorTest, EmptyResultGetsMaxTtl) {
  SimulatedClock clock(0);
  TtlOptions opts;
  TtlEstimator est(&clock, opts);
  EXPECT_EQ(est.QueryTtl("q:t?x", {}), opts.max_ttl);
}

TEST(TtlEstimatorTest, EwmaMovesTowardActualTtl) {
  SimulatedClock clock(0);
  TtlOptions opts;
  opts.ewma_alpha = 0.7;
  opts.min_ttl = 0;
  TtlEstimator est(&clock, opts);
  // First invalidation seeds the estimate.
  est.OnQueryInvalidated("q", 100 * kSecond);
  const Micros first = est.QueryTtl("q", {});
  EXPECT_EQ(first, 100 * kSecond);
  // Feedback of a much shorter actual TTL pulls the estimate down:
  // ttl = 0.7·100 + 0.3·10 = 73 s.
  est.OnQueryInvalidated("q", 10 * kSecond);
  EXPECT_NEAR(MicrosToSeconds(est.QueryTtl("q", {})), 73.0, 0.5);
}

TEST(TtlEstimatorTest, EwmaConvergesToTrueTtl) {
  SimulatedClock clock(0);
  TtlOptions opts;
  opts.ewma_alpha = 0.7;
  opts.min_ttl = 0;
  TtlEstimator est(&clock, opts);
  est.OnQueryInvalidated("q", 500 * kSecond);
  for (int i = 0; i < 40; ++i) est.OnQueryInvalidated("q", 20 * kSecond);
  EXPECT_NEAR(MicrosToSeconds(est.QueryTtl("q", {})), 20.0, 1.0);
}

TEST(TtlEstimatorTest, EwmaStateStoresRawObservations) {
  // Regression: the seed observation was clamped to max_ttl while later
  // observations folded in raw, so Eq. (2) mixed scales. With raw state,
  // observations [1000, 1000, 0, 0] (max_ttl 600 s) must leave the EWMA
  // at 0.7²·1000 = 490 s — under the cap, so the clamp-on-issue is a
  // no-op and any residue of the old seeded clamp (0.7²·600 = 294 s)
  // is visible.
  SimulatedClock clock(0);
  TtlOptions opts;
  opts.ewma_alpha = 0.7;
  opts.min_ttl = 0;
  opts.max_ttl = 600 * kSecond;
  TtlEstimator est(&clock, opts);
  est.OnQueryInvalidated("q", 1000 * kSecond);
  est.OnQueryInvalidated("q", 1000 * kSecond);
  est.OnQueryInvalidated("q", 0);
  est.OnQueryInvalidated("q", 0);
  EXPECT_NEAR(MicrosToSeconds(est.QueryTtl("q", {})), 490.0, 1.0);
}

TEST(TtlEstimatorTest, EwmaConvergesIdenticallyRegardlessOfOrder) {
  // Regression: because only the first observation was clamped, two
  // estimators fed the same observations in different orders diverged.
  // Both sequences below have the same out-of-range observation; with
  // raw state both issue the (clamped) max_ttl.
  SimulatedClock clock(0);
  TtlOptions opts;
  opts.ewma_alpha = 0.7;
  opts.min_ttl = 0;
  opts.max_ttl = 600 * kSecond;

  TtlEstimator first_high(&clock, opts);
  first_high.OnQueryInvalidated("q", 2000 * kSecond);
  first_high.OnQueryInvalidated("q", 10 * kSecond);

  TtlEstimator first_low(&clock, opts);
  first_low.OnQueryInvalidated("q", 10 * kSecond);
  first_low.OnQueryInvalidated("q", 2000 * kSecond);

  // EWMA states: 0.7·2000 + 0.3·10 = 1403 vs 0.7·10 + 0.3·2000 = 607 —
  // both above max_ttl, so both must issue exactly the cap. (Pre-fix,
  // first_high seeded at the clamp: 0.7·600 + 0.3·10 = 423 s ≠ 600 s.)
  EXPECT_EQ(first_high.QueryTtl("q", {}), opts.max_ttl);
  EXPECT_EQ(first_low.QueryTtl("q", {}), opts.max_ttl);
}

TEST(TtlEstimatorTest, ForgetDropsEwmaState) {
  SimulatedClock clock(0);
  TtlOptions opts;
  TtlEstimator est(&clock, opts);
  est.OnQueryInvalidated("q", 10 * kSecond);
  EXPECT_EQ(est.TrackedQueries(), 1u);
  est.Forget("q");
  EXPECT_EQ(est.TrackedQueries(), 0u);
  EXPECT_EQ(est.QueryTtl("q", {}), opts.max_ttl);  // back to initial model
}

TEST(TtlEstimatorTest, NegativeActualTtlTreatedAsZero) {
  SimulatedClock clock(0);
  TtlOptions opts;
  TtlEstimator est(&clock, opts);
  est.OnQueryInvalidated("q", -5);
  EXPECT_GE(est.QueryTtl("q", {}), opts.min_ttl);
}

// ---------------------------------------------------------------------------
// ActiveList
// ---------------------------------------------------------------------------

TEST(ActiveListTest, ReadThenInvalidationYieldsActualTtl) {
  ActiveList list;
  list.OnRead("q", /*read_time=*/10 * kSecond, /*ttl=*/60 * kSecond);
  auto actual = list.OnInvalidation("q", 25 * kSecond);
  ASSERT_TRUE(actual.has_value());
  EXPECT_EQ(*actual, 15 * kSecond);
}

TEST(ActiveListTest, SecondInvalidationWithoutReadIsSuppressed) {
  ActiveList list;
  list.OnRead("q", 10 * kSecond, 60 * kSecond);
  ASSERT_TRUE(list.OnInvalidation("q", 20 * kSecond).has_value());
  // The result is already stale; further writes carry no TTL signal.
  EXPECT_FALSE(list.OnInvalidation("q", 30 * kSecond).has_value());
  // A new read re-arms the measurement.
  list.OnRead("q", 40 * kSecond, 60 * kSecond);
  auto actual = list.OnInvalidation("q", 45 * kSecond);
  ASSERT_TRUE(actual.has_value());
  EXPECT_EQ(*actual, 5 * kSecond);
}

TEST(ActiveListTest, InvalidationOfUnknownQueryIsNull) {
  ActiveList list;
  EXPECT_FALSE(list.OnInvalidation("q", 10).has_value());
}

TEST(ActiveListTest, RegistrationFlag) {
  ActiveList list;
  EXPECT_FALSE(list.IsRegistered("q"));
  list.SetRegistered("q", true);
  EXPECT_TRUE(list.IsRegistered("q"));
  list.SetRegistered("q", false);
  EXPECT_FALSE(list.IsRegistered("q"));
}

TEST(ActiveListTest, CountersAccumulate) {
  ActiveList list;
  list.OnRead("q", 1, 10);
  list.OnRead("q", 2, 10);
  (void)list.OnInvalidation("q", 3);
  auto entry = list.Find("q");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->read_count, 2u);
  EXPECT_EQ(entry->invalidation_count, 1u);
}

TEST(ActiveListTest, EraseAndSize) {
  ActiveList list;
  list.OnRead("a", 1, 10);
  list.OnRead("b", 1, 10);
  EXPECT_EQ(list.Size(), 2u);
  list.Erase("a");
  EXPECT_EQ(list.Size(), 1u);
  EXPECT_FALSE(list.Find("a").has_value());
  EXPECT_EQ(list.Snapshot().size(), 1u);
}

// ---------------------------------------------------------------------------
// CapacityManager
// ---------------------------------------------------------------------------

TEST(CapacityTest, UnlimitedAdmitsEverything) {
  CapacityManager cap(0);
  std::optional<std::string> evicted;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(cap.Admit("q" + std::to_string(i), &evicted));
    EXPECT_FALSE(evicted.has_value());
  }
  EXPECT_EQ(cap.AdmittedCount(), 100u);
}

TEST(CapacityTest, AdmitsUpToCapacity) {
  CapacityManager cap(2);
  std::optional<std::string> evicted;
  EXPECT_TRUE(cap.Admit("a", &evicted));
  EXPECT_TRUE(cap.Admit("b", &evicted));
  EXPECT_EQ(cap.AdmittedCount(), 2u);
  // A third query with zero reads cannot displace anyone.
  EXPECT_FALSE(cap.Admit("c", &evicted));
}

TEST(CapacityTest, HotterQueryDisplacesColder) {
  CapacityManager cap(2);
  std::optional<std::string> evicted;
  cap.OnRead("a");
  ASSERT_TRUE(cap.Admit("a", &evicted));
  cap.OnRead("b");
  ASSERT_TRUE(cap.Admit("b", &evicted));
  // "c" becomes much hotter than "a" and "b".
  for (int i = 0; i < 10; ++i) cap.OnRead("c");
  EXPECT_TRUE(cap.Admit("c", &evicted));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_TRUE(*evicted == "a" || *evicted == "b");
  EXPECT_EQ(cap.AdmittedCount(), 2u);
  EXPECT_TRUE(cap.IsAdmitted("c"));
  EXPECT_FALSE(cap.IsAdmitted(*evicted));
}

TEST(CapacityTest, InvalidationsLowerScore) {
  CapacityManager cap(0);
  for (int i = 0; i < 10; ++i) cap.OnRead("q");
  const double before = cap.ScoreOf("q");
  std::optional<std::string> evicted;
  ASSERT_TRUE(cap.Admit("q", &evicted));
  for (int i = 0; i < 9; ++i) cap.OnInvalidation("q");
  EXPECT_LT(cap.ScoreOf("q"), before);
  EXPECT_NEAR(cap.ScoreOf("q"), 1.0, 1e-9);  // 10 reads / (1 + 9)
}

TEST(CapacityTest, FrequentlyInvalidatedQueryLosesSlot) {
  CapacityManager cap(1);
  std::optional<std::string> evicted;
  cap.OnRead("churny");
  ASSERT_TRUE(cap.Admit("churny", &evicted));
  for (int i = 0; i < 50; ++i) cap.OnInvalidation("churny");
  cap.OnRead("stable");
  cap.OnRead("stable");
  EXPECT_TRUE(cap.Admit("stable", &evicted));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, "churny");
}

TEST(CapacityTest, RemoveFreesSlot) {
  CapacityManager cap(1);
  std::optional<std::string> evicted;
  ASSERT_TRUE(cap.Admit("a", &evicted));
  cap.Remove("a");
  EXPECT_EQ(cap.AdmittedCount(), 0u);
  EXPECT_TRUE(cap.Admit("b", &evicted));
}

TEST(CapacityTest, AdmitIsIdempotent) {
  CapacityManager cap(1);
  std::optional<std::string> evicted;
  ASSERT_TRUE(cap.Admit("a", &evicted));
  ASSERT_TRUE(cap.Admit("a", &evicted));
  EXPECT_EQ(cap.AdmittedCount(), 1u);
}

// ---------------------------------------------------------------------------
// Representation decision
// ---------------------------------------------------------------------------

TEST(RepresentationTest, StableResultPrefersObjectList) {
  RepresentationCosts costs;
  costs.result_size = 10;
  costs.record_hit_rate = 0.5;
  costs.change_rate = 0.0;  // never changes in place
  costs.membership_rate = 0.0;
  EXPECT_EQ(ChooseRepresentation(costs), ResultRepresentation::kObjectList);
}

TEST(RepresentationTest, ChurningWellCachedRecordsPreferIdList) {
  RepresentationCosts costs;
  costs.result_size = 10;
  costs.read_rate = 50.0;        // hot query
  costs.record_hit_rate = 0.99;  // records nearly always cached
  costs.change_rate = 5.0;       // frequent in-place changes
  costs.membership_rate = 0.1;
  EXPECT_EQ(ChooseRepresentation(costs), ResultRepresentation::kIdList);
}

TEST(RepresentationTest, ExpensiveAssemblyPrefersObjectList) {
  RepresentationCosts costs;
  costs.result_size = 50;
  costs.read_rate = 100.0;
  costs.record_hit_rate = 0.0;  // every assembly pays the miss latency
  costs.record_miss_latency_ms = 145.0;  // no CDN: full round-trip
  costs.change_rate = 0.05;  // rare in-place changes
  costs.membership_rate = 0.0;
  EXPECT_EQ(ChooseRepresentation(costs), ResultRepresentation::kObjectList);
}

TEST(RepresentationTest, MembershipChangesCancelOut) {
  // Membership changes invalidate both representations; with an empty
  // result the assembly penalty vanishes, so the costs are identical.
  RepresentationCosts costs;
  costs.result_size = 0;
  costs.change_rate = 0.0;
  costs.membership_rate = 100.0;
  EXPECT_DOUBLE_EQ(RepresentationCostDelta(costs), 0.0);
}

TEST(RepresentationTest, HigherReadRateAmortizesInvalidations) {
  // The same churn matters less for a hotter query: invalidation cost is
  // paid once but amortized over more reads.
  RepresentationCosts cold;
  cold.result_size = 10;
  cold.read_rate = 1.0;
  cold.change_rate = 1.0;
  RepresentationCosts hot = cold;
  hot.read_rate = 1000.0;
  EXPECT_GT(RepresentationCostDelta(cold), RepresentationCostDelta(hot));
}

}  // namespace
}  // namespace quaestor::ttl
