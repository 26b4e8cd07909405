#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/queue.h"
#include "common/request_context.h"
#include "common/result.h"
#include "common/status.h"

namespace quaestor {
namespace {

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing key");
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Aborted("x"));
}

TEST(StatusTest, AllFactoriesProduceMatchingCode) {
  EXPECT_TRUE(Status::AlreadyExists().IsAlreadyExists());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::ResourceExhausted().IsResourceExhausted());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_EQ(Status::TimedOut().code(), StatusCode::kTimedOut);
  EXPECT_EQ(Status::Corruption().code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::NotSupported().code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::Unavailable().code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Internal().code(), StatusCode::kInternal);
  EXPECT_EQ(Status::OutOfRange().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::DeadlineExceeded().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(StatusTest, DeadlineExceededIsDistinctFromTimedOut) {
  const Status deadline = Status::DeadlineExceeded("past deadline");
  EXPECT_TRUE(deadline.IsDeadlineExceeded());
  EXPECT_FALSE(deadline.IsTimedOut());
  EXPECT_EQ(deadline.ToString(), "DeadlineExceeded: past deadline");

  const Status timeout = Status::TimedOut("rpc timeout");
  EXPECT_TRUE(timeout.IsTimedOut());
  EXPECT_FALSE(timeout.IsDeadlineExceeded());
}

Status FailsThenPropagates(bool fail) {
  QUAESTOR_RETURN_IF_ERROR(fail ? Status::Aborted("inner") : Status::OK());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(FailsThenPropagates(false).ok());
  EXPECT_TRUE(FailsThenPropagates(true).IsAborted());
}

// ---------------------------------------------------------------------------
// RequestContext
// ---------------------------------------------------------------------------

TEST(RequestContextTest, DefaultHasNoDeadline) {
  RequestContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.Expired(1'000'000));
  EXPECT_EQ(ctx.Remaining(1'000'000), RequestContext::kNoDeadlineRemaining);
  EXPECT_EQ(ctx.priority, Priority::kNormal);
}

TEST(RequestContextTest, WithTimeoutSetsAbsoluteDeadline) {
  const RequestContext ctx =
      RequestContext::WithTimeout(/*now=*/500, /*timeout=*/1000,
                                  Priority::kHigh);
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_EQ(ctx.deadline, 1500);
  EXPECT_EQ(ctx.priority, Priority::kHigh);
}

TEST(RequestContextTest, RemainingCountsDownThenExpires) {
  RequestContext ctx;
  ctx.deadline = 2000;
  EXPECT_EQ(ctx.Remaining(500), 1500);
  EXPECT_FALSE(ctx.Expired(1999));
  EXPECT_TRUE(ctx.Expired(2000));
  EXPECT_TRUE(ctx.Expired(5000));
  EXPECT_EQ(ctx.Remaining(2000), 0);
  EXPECT_EQ(ctx.Remaining(9000), 0);
}

TEST(RequestContextTest, PriorityNames) {
  EXPECT_EQ(PriorityToString(Priority::kCritical), "critical");
  EXPECT_EQ(PriorityToString(Priority::kHigh), "high");
  EXPECT_EQ(PriorityToString(Priority::kNormal), "normal");
  EXPECT_EQ(PriorityToString(Priority::kLow), "low");
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<int> r = 7;
  EXPECT_EQ(r.value_or(-1), 7);
}

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

TEST(ClockTest, SimulatedClockAdvances) {
  SimulatedClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.SetTime(1000);
  EXPECT_EQ(clock.NowMicros(), 1000);
}

TEST(ClockTest, SystemClockIsMonotonic) {
  SystemClock* clock = SystemClock::Default();
  const Micros a = clock->NowMicros();
  const Micros b = clock->NowMicros();
  EXPECT_LE(a, b);
}

TEST(ClockTest, UnitConversions) {
  EXPECT_EQ(SecondsToMicros(1.5), 1500000);
  EXPECT_EQ(MillisToMicros(2.5), 2500);
  EXPECT_DOUBLE_EQ(MicrosToSeconds(2000000), 2.0);
  EXPECT_DOUBLE_EQ(MicrosToMillis(1500), 1.5);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(42.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Mean(), 42.0);
  EXPECT_DOUBLE_EQ(h.min(), 42.0);
  EXPECT_DOUBLE_EQ(h.max(), 42.0);
  // Quantiles clamp to the observed range.
  EXPECT_GE(h.Quantile(0.5), 42.0 * 0.9);
  EXPECT_LE(h.Quantile(0.5), 42.0 * 1.1);
}

TEST(HistogramTest, QuantilesRoughlyCorrect) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  EXPECT_NEAR(h.Mean(), 500.5, 0.01);
  EXPECT_NEAR(h.Median(), 500.0, 50.0);    // log buckets: ~8% error bound
  EXPECT_NEAR(h.Quantile(0.99), 990.0, 90.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(1.0);
  a.Record(2.0);
  b.Record(10.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 13.0);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Record(-5.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(1.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, ExtremeQuantilesReturnObservedBounds) {
  // Regression: Quantile(0) interpolated the first occupied bucket's
  // midpoint and Quantile(1) its last — both could fall outside
  // [min(), max()]. The extremes must be exactly the observed bounds.
  Histogram h;
  h.Record(7.0);
  h.Record(100.0);
  h.Record(2500.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2500.0);
  // Out-of-range q clamps the same way.
  EXPECT_DOUBLE_EQ(h.Quantile(-0.5), 7.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.5), 2500.0);
}

TEST(HistogramTest, SingleObservationQuantilesAreExact) {
  Histogram h;
  h.Record(42.0);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_GE(h.Quantile(q), h.min()) << "q=" << q;
    EXPECT_LE(h.Quantile(q), h.max()) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 42.0);
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  Histogram a;
  a.Record(3.0);
  a.Record(9.0);
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.sum(), 12.0);
  EXPECT_DOUBLE_EQ(a.min(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);

  // Merging INTO an empty histogram must not let the +inf min_ sentinel
  // or 0 max_ leak into the result.
  Histogram b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.min(), 3.0);
  EXPECT_DOUBLE_EQ(b.max(), 9.0);

  // Empty ∪ empty stays empty and keeps reporting min() == 0.
  Histogram c;
  Histogram d;
  c.Merge(d);
  EXPECT_EQ(c.count(), 0u);
  EXPECT_DOUBLE_EQ(c.min(), 0.0);
  EXPECT_DOUBLE_EQ(c.Quantile(1.0), 0.0);
}

TEST(HistogramTest, DiffSinceSubtractsEarlierSnapshot) {
  Histogram earlier;
  earlier.Record(1.0);
  earlier.Record(5.0);
  Histogram later = earlier;  // snapshot semantics: later extends earlier
  later.Record(100.0);
  later.Record(200.0);

  const Histogram delta = later.DiffSince(earlier);
  EXPECT_EQ(delta.count(), 2u);
  EXPECT_DOUBLE_EQ(delta.sum(), 300.0);
  EXPECT_NEAR(delta.Quantile(0.5), 100.0, 10.0);  // log buckets: ~8% error

  // Diffing a snapshot against itself yields a truly empty histogram.
  const Histogram zero = later.DiffSince(later);
  EXPECT_EQ(zero.count(), 0u);
  EXPECT_DOUBLE_EQ(zero.sum(), 0.0);
  EXPECT_DOUBLE_EQ(zero.Mean(), 0.0);

  // Diffing against an empty baseline is a copy.
  const Histogram all = later.DiffSince(Histogram());
  EXPECT_EQ(all.count(), 4u);
  EXPECT_DOUBLE_EQ(all.sum(), 306.0);
}

TEST(MeanAccumulatorTest, MeanAndVariance) {
  MeanAccumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Record(v);
  EXPECT_DOUBLE_EQ(acc.Mean(), 5.0);
  EXPECT_NEAR(acc.Variance(), 4.571428, 1e-5);  // sample variance
  EXPECT_EQ(acc.count(), 8u);
}

// ---------------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
}

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.Size(), 2u);
}

TEST(BoundedQueueTest, CloseDrainsThenReturnsNullopt) {
  BoundedQueue<int> q(10);
  q.Push(7);
  q.Close();
  EXPECT_FALSE(q.Push(8));
  EXPECT_EQ(q.Pop().value(), 7);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, ConcurrentProducersConsumers) {
  BoundedQueue<int> q(16);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<int64_t> sum{0};
  std::atomic<int> consumed{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        auto v = q.Pop();
        if (!v.has_value()) return;
        sum += *v;
        consumed++;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.Close();
  threads[kProducers].join();
  threads[kProducers + 1].join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(sum.load(), static_cast<int64_t>(total) * (total - 1) / 2);
}

}  // namespace
}  // namespace quaestor
