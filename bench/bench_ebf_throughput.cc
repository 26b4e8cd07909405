// E1 — §3.3 claim: "the Redis-based implementation of the Expiring Bloom
// Filter provides sufficient performance to sustain a throughput of
// >150 K queries or invalidations per second for each Redis instance."
//
// google-benchmark micro-benchmarks for the in-process EBF across its hot
// operations: ReportRead (every cacheable response), ReportWrite (every
// invalidation), IsStale (every revalidation check) and Snapshot (EBF
// handout / refresh). The figures include no network hop, while the
// paper's figure is per networked Redis instance.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "ebf/expiring_bloom_filter.h"
#include "obs/metrics.h"

namespace quaestor::ebf {
namespace {

/// Binary-wide metrics registry, written as OBS_ebf_throughput.json.
obs::MetricsRegistry& Registry() {
  static obs::MetricsRegistry registry;
  return registry;
}

void NoteItems(benchmark::State& state, int64_t items) {
  state.SetItemsProcessed(items);
  Registry().Count("bench_items_processed", static_cast<uint64_t>(items));
}

std::vector<std::string> MakeKeys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back("t/record-" + std::to_string(i));
  }
  return keys;
}

void BM_InMemoryReportRead(benchmark::State& state) {
  SystemClock* clock = SystemClock::Default();
  ExpiringBloomFilter ebf(clock);
  const auto keys = MakeKeys(10000);
  size_t i = 0;
  for (auto _ : state) {
    ebf.ReportRead(keys[i++ % keys.size()], SecondsToMicros(60.0));
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_InMemoryReportRead);

void BM_InMemoryReportWrite(benchmark::State& state) {
  SystemClock* clock = SystemClock::Default();
  ExpiringBloomFilter ebf(clock);
  const auto keys = MakeKeys(10000);
  for (const auto& k : keys) ebf.ReportRead(k, SecondsToMicros(3600.0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebf.ReportWrite(keys[i++ % keys.size()]));
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_InMemoryReportWrite);

void BM_InMemoryIsStale(benchmark::State& state) {
  SystemClock* clock = SystemClock::Default();
  ExpiringBloomFilter ebf(clock);
  const auto keys = MakeKeys(10000);
  for (const auto& k : keys) ebf.ReportRead(k, SecondsToMicros(3600.0));
  for (size_t i = 0; i < keys.size(); i += 2) ebf.ReportWrite(keys[i]);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebf.IsStale(keys[i++ % keys.size()]));
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_InMemoryIsStale);

void BM_InMemorySnapshot(benchmark::State& state) {
  SystemClock* clock = SystemClock::Default();
  ExpiringBloomFilter ebf(clock);
  const auto keys = MakeKeys(static_cast<size_t>(state.range(0)));
  for (const auto& k : keys) ebf.ReportRead(k, SecondsToMicros(3600.0));
  for (const auto& k : keys) ebf.ReportWrite(k);
  for (auto _ : state) {
    BloomFilter snap = ebf.Snapshot();
    benchmark::DoNotOptimize(snap);
  }
  NoteItems(state, state.iterations());
}
BENCHMARK(BM_InMemorySnapshot)->Arg(1000)->Arg(20000);

}  // namespace
}  // namespace quaestor::ebf

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  quaestor::bench::AccumulateObs(quaestor::ebf::Registry().Snapshot());
  quaestor::bench::WriteObsSnapshot("ebf_throughput");
  return 0;
}
