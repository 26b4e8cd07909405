// Offline consistency check for the sdk-mix workload. During the run the
// generators only append one fixed-size entry per SDK call and the change
// listener only appends the commit; after the run the commits and reads
// are replayed, in time order, into check::ConsistencyOracle over a replica
// database. Nothing of the oracle's cost lands inside a timed operation or
// on the server's threads.

#ifndef QUAESTOR_PERFBENCH_ORACLE_REPLAY_H_
#define QUAESTOR_PERFBENCH_ORACLE_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "db/document.h"

namespace quaestor::perfbench {

/// One SDK call as the oracle needs it.
struct CheckEntry {
  enum Kind : uint8_t { kRead = 0, kQuery = 1 };
  Micros start_us = 0;  // SystemClock time the call started
  Micros end_us = 0;    // ... and returned
  uint64_t value = 0;   // record version (reads) or result etag (queries)
  uint32_t index = 0;   // t * docs_per_table + d, or t * queries + group
  Kind kind = kRead;
  uint8_t session = 0;
  uint8_t representation = 0;  // ttl::ResultRepresentation
  bool ok = false;
};

struct ReplayResult {
  size_t checks = 0;
  size_t violations = 0;
  std::string first_violation;
  /// Replica versions that disagreed with the logged commit (a replay
  /// fault, not a system fault — still fails the run).
  size_t version_mismatches = 0;
  /// Record reads that returned a version older than the latest commit
  /// at the moment the read started.
  uint64_t record_reads = 0;
  uint64_t stale_reads = 0;
};

/// Replays `commits` (commit order) and `checks` (any order) against a
/// replica loaded from the same seed. `bound` is the staleness bound the
/// oracle asserts.
ReplayResult ReplayOracle(uint64_t seed, const std::vector<db::ChangeEvent>& commits,
                          std::vector<CheckEntry> checks, Micros bound);

}  // namespace quaestor::perfbench

#endif  // QUAESTOR_PERFBENCH_ORACLE_REPLAY_H_
