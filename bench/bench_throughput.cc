// Threaded closed-loop throughput of the concurrent read path: the
// striped web-cache hit path, the server revalidation (304) path, and a
// mixed read/write workload across cache + server + db. Sweeps 1→2→4→8
// threads and writes BENCH_throughput.json so CI can gate on the
// multi-thread speedup.
//
// Usage: bench_throughput [output.json] [seconds-per-point]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/thread_driver.h"
#include "common/clock.h"
#include "core/server.h"
#include "db/database.h"
#include "db/query.h"
#include "db/value.h"
#include "webcache/web_cache.h"

namespace quaestor::bench {
namespace {

const std::vector<int> kThreadCounts = {1, 2, 4, 8};

std::string RecordKey(int i) { return "posts/post-" + std::to_string(i); }

db::Value MakeDoc(int i) {
  db::Object o;
  o["title"] = db::Value("Post " + std::to_string(i));
  o["author"] = db::Value("author-" + std::to_string(i % 50));
  o["group"] = db::Value(static_cast<int64_t>(i % 100));
  o["views"] = db::Value(static_cast<int64_t>(i * 7));
  db::Array tags;
  tags.push_back(db::Value("tag" + std::to_string(i % 10)));
  tags.push_back(db::Value("common"));
  o["tags"] = db::Value(std::move(tags));
  return db::Value(std::move(o));
}

/// Pure striped-cache hit path: every Get finds a fresh entry.
ThroughputResult RunCacheHit(int threads, double seconds) {
  webcache::ExpirationCache cache(SystemClock::Default(), 1 << 16);
  constexpr int kKeys = 8192;
  const std::string body(256, 'x');
  for (int i = 0; i < kKeys; ++i) {
    cache.Put(RecordKey(i), body, static_cast<uint64_t>(i + 1),
              3600 * kMicrosPerSecond);
  }
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) keys.push_back(RecordKey(i));
  return MeasureThroughput(
      threads, seconds, [&](size_t t, uint64_t n) {
        const auto& key = keys[(n * 31 + t * 1009) % kKeys];
        auto hit = cache.Get(key);
        if (!hit.has_value()) std::abort();  // the hit path must stay hot
      });
}

struct ServerFixture {
  db::Database database;
  core::QuaestorServer server;
  std::vector<std::string> query_keys;
  std::vector<uint64_t> query_etags;

  explicit ServerFixture(int num_records)
      : database(SystemClock::Default()),
        server(SystemClock::Default(), &database, [] {
          core::ServerOptions o;
          o.ttl_options.max_ttl = 600 * kMicrosPerSecond;
          return o;
        }()) {
    for (int i = 0; i < num_records; ++i) {
      auto res = server.Insert("posts", "post-" + std::to_string(i),
                               MakeDoc(i));
      if (!res.ok()) std::abort();
    }
    database.GetOrCreateTable("posts")->CreateIndex("group");
    for (int g = 0; g < 64; ++g) {
      auto q = db::Query::ParseJson(
          "posts", "{\"group\":" + std::to_string(g) + "}");
      server.RegisterQueryShape(q.value());
      query_keys.push_back(q->NormalizedKey());
    }
    // Warm each query once to learn its etag (what a revalidating cache
    // carries in If-None-Match).
    for (const std::string& key : query_keys) {
      webcache::HttpRequest req;
      req.key = key;
      auto resp = server.Fetch(req);
      if (!resp.ok) std::abort();
      query_etags.push_back(resp.etag);
    }
  }
};

/// Server revalidation path: conditional query fetches answered 304. No
/// write touches the tables, so every fetch is served from the memo entry
/// of the query's last execution (its table commit stamp still matches)
/// instead of re-executing the query.
ThroughputResult RunRevalidation(int threads, double seconds) {
  ServerFixture fx(2000);
  return MeasureThroughput(
      threads, seconds, [&](size_t t, uint64_t n) {
        const size_t qi = (n + t * 17) % fx.query_keys.size();
        webcache::HttpRequest req;
        req.key = fx.query_keys[qi];
        req.has_if_none_match = true;
        req.if_none_match = fx.query_etags[qi];
        auto resp = fx.server.Fetch(req);
        if (!resp.ok) std::abort();
      });
}

/// Mixed workload: 90% record fetches (miss path — serialized body, memo)
/// and 10% writes (exclusive table lock, EBF flag, memo invalidation).
ThroughputResult RunMixed(int threads, double seconds) {
  ServerFixture fx(2000);
  constexpr int kRecords = 2000;
  return MeasureThroughput(
      threads, seconds, [&](size_t t, uint64_t n) {
        const uint64_t x = n * 2654435761u + t * 40503u;
        const int i = static_cast<int>(x % kRecords);
        if (x % 10 == 9) {
          db::Update up;
          up.Set("views", db::Value(static_cast<int64_t>(n)));
          auto res =
              fx.server.Update("posts", "post-" + std::to_string(i), up);
          if (!res.ok()) std::abort();
        } else {
          webcache::HttpRequest req;
          req.key = RecordKey(i);
          auto resp = fx.server.Fetch(req);
          if (!resp.ok) std::abort();
        }
      });
}

db::Value SweepToValue(const std::string& name,
                       ThroughputResult (*run)(int, double), double seconds,
                       db::Object* summary) {
  PrintHeader(name + " (closed loop, " + std::to_string(seconds) +
              "s per point)");
  db::Object per_thread;
  double single = 0.0;
  double best = 0.0;
  for (int threads : kThreadCounts) {
    const ThroughputResult r = run(threads, seconds);
    const double ops = r.OpsPerSecond();
    if (threads == 1) single = ops;
    if (threads == 8) best = ops;
    per_thread["t" + std::to_string(threads)] = db::Value(ops);
    PrintRow("threads=" + std::to_string(threads),
             {static_cast<double>(r.total_ops), ops,
              single > 0.0 ? ops / single : 0.0});
  }
  db::Object out;
  out["ops_per_sec"] = db::Value(std::move(per_thread));
  out["speedup_8_vs_1"] = db::Value(single > 0.0 ? best / single : 0.0);
  (*summary)[name] = db::Value(out);
  return db::Value(std::move(out));
}

}  // namespace
}  // namespace quaestor::bench

int main(int argc, char** argv) {
  using namespace quaestor;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_throughput.json";
  const double seconds = argc > 2 ? std::atof(argv[2]) : 0.4;

  const unsigned hw = std::thread::hardware_concurrency();
  bench::PrintNote("hardware threads: " + std::to_string(hw));
  if (hw < 8) {
    bench::PrintNote(
        "fewer than 8 hardware threads — multi-thread speedups are "
        "bounded by the machine, not the code");
  }

  db::Object workloads;
  bench::SweepToValue("cache_hit", &bench::RunCacheHit, seconds, &workloads);
  bench::SweepToValue("revalidation", &bench::RunRevalidation, seconds,
                      &workloads);
  bench::SweepToValue("mixed", &bench::RunMixed, seconds, &workloads);

  db::Object root;
  root["benchmark"] = db::Value("throughput");
  root["hardware_threads"] = db::Value(static_cast<int64_t>(hw));
  root["seconds_per_point"] = db::Value(seconds);
  db::Array threads_axis;
  for (int t : bench::kThreadCounts) {
    threads_axis.push_back(db::Value(static_cast<int64_t>(t)));
  }
  root["threads"] = db::Value(std::move(threads_axis));
  root["workloads"] = db::Value(std::move(workloads));
  bench::WriteJsonFile(out_path, db::Value(std::move(root)));
  return 0;
}
