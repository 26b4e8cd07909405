// Heap footprint of the origin's state on the paper's §6.1 shape (10
// tables × 10,000 documents, 100 queries per table, 10 documents per
// query), measured with glibc's mallinfo2 on one thread, so every
// allocation lands in the main arena that mallinfo2 reports:
//
//   bytes_per_document       the loaded database (documents and the
//                            "group" index) over the documents stored;
//   bytes_per_query          what registering every query (shape
//                            announcement plus first fetch) adds to the
//                            server and its in-process InvaliDB cluster;
//   bytes_per_record_served  what first fetches of distinct records add
//                            (TTL estimates, EBF read tracking, memos).
//
// Prints one JSON row (and writes it to the output file when given), the
// format of BENCH_memory.json's rows.
//
// Usage: bench_memory [output.json] [label] [git-sha]

#include <malloc.h>

#include <cstdio>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "core/server.h"
#include "db/database.h"
#include "db/value.h"
#include "workload/workload.h"

#ifndef QUAESTOR_BUILD_TYPE
#define QUAESTOR_BUILD_TYPE "unknown"
#endif

namespace quaestor::bench {
namespace {

/// Records fetched for the per-record figure: the first kRecordsPerTable
/// documents of every table.
constexpr size_t kRecordsPerTable = 1000;

/// Heap bytes in use: main-arena chunks plus mmapped blocks.
double HeapBytes() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd);
}

workload::WorkloadOptions PaperShape() {
  workload::WorkloadOptions o;
  o.num_tables = 10;
  o.docs_per_table = 10000;
  o.queries_per_table = 100;
  o.docs_per_query = 10;
  return o;
}

int Run(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "";
  const std::string label = argc > 2 ? argv[2] : "run";
  const std::string git_sha = argc > 3 ? argv[3] : "unknown";

  SimulatedClock clock(SecondsToMicros(1.0));
  workload::WorkloadGenerator gen(PaperShape(), 1);
  const workload::WorkloadOptions& o = gen.options();

  db::Database db(&clock);
  const double empty = HeapBytes();
  gen.Load(&db);
  const double loaded = HeapBytes();
  const size_t docs = o.num_tables * o.docs_per_table;

  core::QuaestorServer server(&clock, &db);
  const double idle = HeapBytes();
  size_t queries = 0;
  for (size_t t = 0; t < o.num_tables; ++t) {
    for (const db::Query& q : gen.QueriesFor(t)) {
      server.RegisterQueryShape(q);
      webcache::HttpRequest req;
      req.key = q.NormalizedKey();
      if (!server.Fetch(req).ok) {
        std::fprintf(stderr, "query fetch failed: %s\n", req.key.c_str());
        return 1;
      }
      ++queries;
    }
  }
  const double registered = HeapBytes();

  size_t records = 0;
  for (size_t t = 0; t < o.num_tables; ++t) {
    for (size_t d = 0; d < kRecordsPerTable; ++d) {
      webcache::HttpRequest req;
      req.key = workload::WorkloadGenerator::TableName(t) + "/" +
                workload::WorkloadGenerator::DocId(d);
      if (!server.Fetch(req).ok) {
        std::fprintf(stderr, "record fetch failed: %s\n", req.key.c_str());
        return 1;
      }
      ++records;
    }
  }
  const double served = HeapBytes();

  db::Object row;
  row["label"] = label;
  row["git_sha"] = git_sha;
  row["build_type"] = QUAESTOR_BUILD_TYPE;
  row["hardware_threads"] =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  row["documents"] = static_cast<int64_t>(docs);
  row["queries"] = static_cast<int64_t>(queries);
  row["records_served"] = static_cast<int64_t>(records);
  row["bytes_per_document"] = (loaded - empty) / static_cast<double>(docs);
  row["bytes_per_query"] = (registered - idle) / static_cast<double>(queries);
  row["bytes_per_record_served"] =
      (served - registered) / static_cast<double>(records);
  const db::Value result(std::move(row));
  std::printf("%s\n", result.ToJson().c_str());
  if (!out_path.empty() && !WriteJsonFile(out_path, result)) return 1;
  return 0;
}

}  // namespace
}  // namespace quaestor::bench

int main(int argc, char** argv) { return quaestor::bench::Run(argc, argv); }
