// Component micro-benchmarks (google-benchmark): the hot paths that sit
// on Quaestor's critical request path — Bloom filter probes, query
// normalization (cache-key derivation), predicate matching (InvaliDB's
// per-update work), and document JSON (de)serialization.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "db/query.h"
#include "db/table.h"
#include "db/value.h"
#include "ebf/bloom_filter.h"
#include "invalidb/matching_node.h"
#include "invalidb/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace quaestor {
namespace {

/// The binary's metrics registry: every benchmark folds its processed
/// items in, and main() writes the snapshot as BENCH_obs.json.
obs::MetricsRegistry& Registry() {
  static obs::MetricsRegistry registry;
  return registry;
}

void NoteItems(benchmark::State& state, int64_t items) {
  state.SetItemsProcessed(items);
  Registry().Count("bench_items_processed", static_cast<uint64_t>(items));
}

void BM_BloomAdd(benchmark::State& state) {
  ebf::BloomFilter bf;
  size_t i = 0;
  for (auto _ : state) {
    bf.Add("key-" + std::to_string(i++ % 100000));
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_BloomAdd);

void BM_BloomContains(benchmark::State& state) {
  ebf::BloomFilter bf;
  for (int i = 0; i < 20000; ++i) bf.Add("key-" + std::to_string(i));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bf.MaybeContains("key-" + std::to_string(i++ % 40000)));
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_BloomContains);

void BM_CountingBloomAddRemove(benchmark::State& state) {
  ebf::CountingBloomFilter cbf;
  size_t i = 0;
  for (auto _ : state) {
    const std::string key = "key-" + std::to_string(i++ % 10000);
    cbf.Add(key);
    cbf.Remove(key);
  }
  NoteItems(state, state.iterations() * 2);
}
BENCHMARK(BM_CountingBloomAddRemove);

void BM_QueryNormalize(benchmark::State& state) {
  auto q = db::Query::ParseJson(
      "posts",
      R"({"tags":{"$contains":"example"},"views":{"$gte":10,"$lt":500},
          "$or":[{"author":"ada"},{"author":"grace"}]})");
  for (auto _ : state) {
    benchmark::DoNotOptimize(q->NormalizedKey());
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_QueryNormalize);

void BM_PredicateMatch(benchmark::State& state) {
  auto q = db::Query::ParseJson(
      "posts", R"({"tags":{"$contains":"example"},"views":{"$gte":10}})");
  auto doc = db::Value::FromJson(
      R"({"tags":["example","music"],"views":42,"title":"hello"})");
  for (auto _ : state) {
    benchmark::DoNotOptimize(q->Matches(doc.value()));
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_PredicateMatch);

void BM_MatchingNodeSweep(benchmark::State& state) {
  // One update matched against `range(0)` installed queries — the unit of
  // work behind Figure 12's per-node throughput.
  invalidb::MatchingNode node;
  const int num_queries = static_cast<int>(state.range(0));
  for (int g = 0; g < num_queries; ++g) {
    auto q = db::Query::ParseJson("posts",
                                  "{\"group\":" + std::to_string(g) + "}");
    node.AddQuery(q.value(), q->NormalizedKey(), {});
  }
  db::ChangeEvent ev;
  ev.after.table = "posts";
  ev.after.id = "d1";
  ev.after.body = db::Value::FromJson(R"({"group":3,"views":1})").value();
  std::vector<invalidb::Notification> out;
  for (auto _ : state) {
    out.clear();
    node.Match(ev, &out);
    benchmark::DoNotOptimize(out);
  }
  NoteItems(state, state.iterations() *
                          static_cast<int64_t>(num_queries));
}
BENCHMARK(BM_MatchingNodeSweep)->Arg(100)->Arg(500)->Arg(2000);

void BM_TableExecuteScan(benchmark::State& state) {
  db::Table table("t");
  const int docs = static_cast<int>(state.range(0));
  for (int i = 0; i < docs; ++i) {
    (void)table.Insert(
        "d" + std::to_string(i),
        db::Value::FromJson(
            ("{\"group\":" + std::to_string(i % 100) + "}").c_str())
            .value(),
        1);
  }
  auto q = db::Query::ParseJson("t", R"({"group":7})");
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Execute(q.value()));
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_TableExecuteScan)->Arg(1000)->Arg(10000);

void BM_TableExecuteIndexed(benchmark::State& state) {
  db::Table table("t");
  const int docs = static_cast<int>(state.range(0));
  for (int i = 0; i < docs; ++i) {
    (void)table.Insert(
        "d" + std::to_string(i),
        db::Value::FromJson(
            ("{\"group\":" + std::to_string(i % 100) + "}").c_str())
            .value(),
        1);
  }
  table.CreateIndex("group");
  auto q = db::Query::ParseJson("t", R"({"group":7})");
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Execute(q.value()));
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_TableExecuteIndexed)->Arg(1000)->Arg(10000);

void BM_JsonSerialize(benchmark::State& state) {
  auto doc = db::Value::FromJson(
      R"({"group":7,"title":"Post 123","author":"author42",
          "views":10,"tags":["tag1","tag2"],"nested":{"a":[1,2,3]}})");
  for (auto _ : state) {
    benchmark::DoNotOptimize(doc->ToJson());
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_JsonSerialize);

void BM_JsonSerializeAppend(benchmark::State& state) {
  // Single-pass serialization into one reused buffer — the hot-path form
  // (response assembly serializes many values into one body).
  auto doc = db::Value::FromJson(
      R"({"group":7,"title":"Post 123","author":"author42",
          "views":10,"tags":["tag1","tag2"],"nested":{"a":[1,2,3]}})");
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    doc->AppendJson(&buf);
    benchmark::DoNotOptimize(buf);
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_JsonSerializeAppend);

void BM_JsonParse(benchmark::State& state) {
  const std::string json =
      R"({"group":7,"title":"Post 123","author":"author42",)"
      R"("views":10,"tags":["tag1","tag2"],"nested":{"a":[1,2,3]}})";
  for (auto _ : state) {
    auto v = db::Value::FromJson(json);
    benchmark::DoNotOptimize(v);
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_JsonParse);

// -- Transport wire-format costs (every change event crosses the wire
//    inside a change_batch envelope; see DESIGN.md §10) --

db::ChangeEvent SampleChange() {
  db::ChangeEvent ev;
  ev.kind = db::WriteKind::kUpdate;
  ev.after.table = "posts";
  ev.after.id = "post-12345";
  ev.after.version = 7;
  ev.after.write_time = 1234567;
  ev.after.body = db::Value::FromJson(
                      R"({"group":7,"title":"Post 123","views":10,
                          "tags":["tag1","tag2"]})")
                      .value();
  ev.commit_time = 1234567;
  return ev;
}

void BM_TransportEncodeChangeBatch(benchmark::State& state) {
  const std::vector<db::ChangeEvent> events(
      static_cast<size_t>(state.range(0)), SampleChange());
  for (auto _ : state) {
    benchmark::DoNotOptimize(invalidb::transport::EncodeChangeBatch(events));
  }
  NoteItems(state, state.iterations() * state.range(0));
}
BENCHMARK(BM_TransportEncodeChangeBatch)->Arg(1)->Arg(64);

void BM_TransportDecodeChangeBatchCanonical(benchmark::State& state) {
  const std::vector<db::ChangeEvent> events(
      static_cast<size_t>(state.range(0)), SampleChange());
  const std::string wire = invalidb::transport::EncodeChangeBatch(events);
  for (auto _ : state) {
    auto decoded = invalidb::transport::DecodeChangeBatch(wire);
    benchmark::DoNotOptimize(decoded);
  }
  NoteItems(state, state.iterations() * state.range(0));
}
BENCHMARK(BM_TransportDecodeChangeBatchCanonical)->Arg(1)->Arg(64);

// -- Observability-layer costs (the instrumentation is itself on the
//    critical path, so its primitives are benchmarked like any other) --

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::Counter* c = Registry().GetCounter("bm_obs_counter");
  for (auto _ : state) {
    c->Add();
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsLabeledLookup(benchmark::State& state) {
  // Cold-path convenience: name+label → map lookup + atomic add.
  for (auto _ : state) {
    Registry().Count("bm_obs_lookup", {{"op", "read"}});
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_ObsLabeledLookup);

void BM_ObsTimerObserve(benchmark::State& state) {
  obs::Timer* t = Registry().GetTimer("bm_obs_timer_ms");
  for (auto _ : state) {
    t->Observe(0.5);
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_ObsTimerObserve);

void BM_TracerSpanStartEnd(benchmark::State& state) {
  obs::TracerOptions topts;
  topts.max_spans = 1 << 16;
  topts.deterministic_ids = false;
  obs::Tracer tracer(SystemClock::Default(), topts);
  for (auto _ : state) {
    uint64_t id = tracer.StartSpan("bm");
    if (id == 0) {  // buffer full: drain and keep measuring
      tracer.Clear();
      id = tracer.StartSpan("bm");
    }
    tracer.EndSpan(id);
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_TracerSpanStartEnd);

void BM_TracerDisabledSpan(benchmark::State& state) {
  obs::TracerOptions topts;
  topts.enabled = false;
  obs::Tracer tracer(SystemClock::Default(), topts);
  for (auto _ : state) {
    obs::ScopedSpan span(&tracer, "bm");
    benchmark::DoNotOptimize(span.id());
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_TracerDisabledSpan);

}  // namespace
}  // namespace quaestor

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  // Registry snapshot alongside the google-benchmark output (CI uploads
  // this as the BENCH_obs.json artifact).
  quaestor::obs::MetricsSnapshot snapshot = quaestor::Registry().Snapshot();
  quaestor::db::Object root = snapshot.ToValue().as_object();
  root["benchmark"] = quaestor::db::Value("micro_components");
  quaestor::bench::WriteJsonFile("BENCH_obs.json",
                                 quaestor::db::Value(std::move(root)));
  return 0;
}
