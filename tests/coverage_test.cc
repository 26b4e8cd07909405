// Supplementary coverage: edge cases across modules that the per-module
// suites do not exercise.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "client/client.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "core/query_result.h"
#include "core/server.h"
#include "db/database.h"
#include "sim/simulation.h"
#include "webcache/hierarchy.h"
#include "webcache/web_cache.h"

namespace quaestor {
namespace {

db::Value Doc(const char* json) {
  auto v = db::Value::FromJson(json);
  EXPECT_TRUE(v.ok());
  return v.value();
}

// ---------------------------------------------------------------------------
// Value & JSON corner cases
// ---------------------------------------------------------------------------

TEST(ValueEdgeTest, NanAndInfinitySerializeAsNull) {
  EXPECT_EQ(db::Value(std::nan("")).ToJson(), "null");
  EXPECT_EQ(db::Value(std::numeric_limits<double>::infinity()).ToJson(),
            "null");
}

TEST(ValueEdgeTest, DeepNestingRoundTrips) {
  std::string json = "1";
  for (int i = 0; i < 60; ++i) json = "[" + json + "]";
  auto v = db::Value::FromJson(json);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->ToJson(), json);
}

TEST(ValueEdgeTest, LargeIntegerBoundaries) {
  auto max = db::Value::FromJson("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->as_int(), std::numeric_limits<int64_t>::max());
  // Overflowing integers degrade to double instead of failing.
  auto over = db::Value::FromJson("92233720368547758080");
  ASSERT_TRUE(over.ok());
  EXPECT_TRUE(over->is_double());
}

TEST(ValueEdgeTest, EmptyStringKeysAndValues) {
  auto v = db::Value::FromJson(R"({"":""})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_object().count(""), 1u);
  EXPECT_EQ(v->ToJson(), R"({"":""})");
}

// ---------------------------------------------------------------------------
// Histogram properties
// ---------------------------------------------------------------------------

TEST(HistogramEdgeTest, QuantilesMonotone) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    h.Record(rng.NextExponential(0.01));
  }
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, prev) << q;
    prev = v;
  }
  EXPECT_LE(h.Quantile(1.0), h.max());
  EXPECT_GE(h.Quantile(0.0), h.min());
}

TEST(HistogramEdgeTest, HugeValuesClampToLastBucket) {
  Histogram h;
  h.Record(1e30);
  h.Record(1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e30);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.Quantile(0.99), 1.0);
}

// ---------------------------------------------------------------------------
// Hierarchy with every level present
// ---------------------------------------------------------------------------

class CountingOrigin : public webcache::Origin {
 public:
  webcache::HttpResponse Fetch(const webcache::HttpRequest& req) override {
    fetches++;
    webcache::HttpResponse resp;
    resp.ok = true;
    resp.etag = version;
    resp.ttl = ttl;
    if (req.has_if_none_match && req.if_none_match == version) {
      resp.not_modified = true;
    } else {
      resp.body = "body-v" + std::to_string(version);
    }
    return resp;
  }
  int fetches = 0;
  uint64_t version = 1;
  Micros ttl = 60 * kMicrosPerSecond;
};

TEST(FullHierarchyTest, RevalidateRefreshesEveryLevel) {
  SimulatedClock clock(0);
  CountingOrigin origin;
  webcache::ExpirationCache browser(&clock);
  webcache::ExpirationCache proxy(&clock);
  webcache::InvalidationCache cdn(&clock);
  webcache::CacheHierarchy h(&clock, &browser, &proxy, &cdn, &origin);

  (void)h.Fetch("k", webcache::FetchMode::kNormal);
  origin.version = 2;
  auto fo = h.Fetch("k", webcache::FetchMode::kRevalidate);
  EXPECT_EQ(fo.etag, 2u);
  EXPECT_EQ(browser.Get("k")->etag, 2u);
  EXPECT_EQ(proxy.Get("k")->etag, 2u);
  EXPECT_EQ(cdn.Get("k")->etag, 2u);
}

TEST(FullHierarchyTest, ProxySurvivesCdnPurge) {
  // The crux of §2: expiration-based proxies cannot be purged — after a
  // CDN purge the proxy still serves the old copy until its TTL passes.
  SimulatedClock clock(0);
  CountingOrigin origin;
  webcache::ExpirationCache proxy(&clock);
  webcache::InvalidationCache cdn(&clock);
  webcache::CacheHierarchy h(&clock, nullptr, &proxy, &cdn, &origin);

  (void)h.Fetch("k", webcache::FetchMode::kNormal);
  origin.version = 2;
  cdn.Purge("k");
  auto fo = h.Fetch("k", webcache::FetchMode::kNormal);
  EXPECT_EQ(fo.served_by, webcache::ServedBy::kExpirationCache);
  EXPECT_EQ(fo.etag, 1u);  // stale — exactly why the EBF exists
}

// ---------------------------------------------------------------------------
// Query response etag edge cases
// ---------------------------------------------------------------------------

TEST(QueryResponseEdgeTest, EmptyResultsHaveStableNonZeroEtag) {
  core::QueryResponse a;
  core::QueryResponse b;
  EXPECT_NE(a.ComputeEtag(), 0u);
  EXPECT_EQ(a.ComputeEtag(), b.ComputeEtag());
  b.ids.push_back("t/x");
  EXPECT_NE(a.ComputeEtag(), b.ComputeEtag());
}

TEST(QueryResponseEdgeTest, OrderMattersForEtag) {
  core::QueryResponse a;
  a.representation = ttl::ResultRepresentation::kIdList;
  a.ids = {"t/1", "t/2"};
  core::QueryResponse b = a;
  b.ids = {"t/2", "t/1"};
  EXPECT_NE(a.ComputeEtag(), b.ComputeEtag());
}

// ---------------------------------------------------------------------------
// Simulation: purge latency governs CDN staleness
// ---------------------------------------------------------------------------

TEST(SimPurgeLatencyTest, SlowerPurgesMeanMoreCdnStaleness) {
  workload::WorkloadOptions w;
  w.num_tables = 2;
  w.docs_per_table = 100;
  w.queries_per_table = 10;
  w.update_weight = 0.15;
  w.read_weight = 0.425;
  w.query_weight = 0.425;

  auto run = [&](Micros purge_latency) {
    sim::SimOptions s;
    s.arch = sim::CacheArchitecture::CdnOnly();
    s.num_client_instances = 2;
    s.connections_per_instance = 5;
    s.duration = SecondsToMicros(15.0);
    s.warmup = SecondsToMicros(3.0);
    s.cdn_purge_latency = purge_latency;
    s.seed = 11;
    sim::Simulation simulation(w, s);
    sim::SimResults r = simulation.Run();
    return r.queries.StaleRate() + r.reads.StaleRate();
  };

  const double fast = run(MillisToMicros(5.0));
  const double slow = run(SecondsToMicros(2.0));
  EXPECT_LT(fast, slow);
}

// ---------------------------------------------------------------------------
// Server: kOwnWriteTtl contract
// ---------------------------------------------------------------------------

TEST(WriteResponseTtlTest, WriteTracksTtlEvenWithoutReads) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::QuaestorServer server(&clock, &db);
  ASSERT_TRUE(server.Insert("t", "x", Doc(R"({"v":1})")).ok());
  // The write response's implied TTL is tracked.
  EXPECT_GE(server.ebf().Partition("t")->TrackedCount(), 1u);
  // ... so an immediate second write flags the key.
  clock.Advance(kMicrosPerSecond);
  db::Update u;
  u.Set("v", db::Value(2));
  ASSERT_TRUE(server.Update("t", "x", u).ok());
  EXPECT_TRUE(server.ebf().IsStale("t/x"));
  // And after the write-response TTL passes, the key drains out.
  clock.Advance(core::kOwnWriteTtl + kMicrosPerSecond);
  server.ebf().Partition("t")->Maintain();
  EXPECT_FALSE(server.ebf().IsStale("t/x"));
}

TEST(WriteResponseTtlTest, DeleteDoesNotTrackATtl) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::QuaestorServer server(&clock, &db);
  ASSERT_TRUE(server.Insert("t", "x", Doc(R"({"v":1})")).ok());
  clock.Advance(core::kOwnWriteTtl + kMicrosPerSecond);
  server.ebf().Partition("t")->Maintain();
  ASSERT_TRUE(server.Delete("t", "x").ok());
  // Deletes return no cacheable body; nothing new to track.
  clock.Advance(kMicrosPerSecond);
  EXPECT_FALSE(server.ebf().IsStale("t/x"));
}

}  // namespace
}  // namespace quaestor
