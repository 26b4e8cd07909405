#ifndef QUAESTOR_DB_TABLE_H_
#define QUAESTOR_DB_TABLE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "db/document.h"
#include "db/query.h"
#include "db/update.h"

namespace quaestor::db {

/// Execution-plan counters for one table (diagnostics; see Execute()).
struct TableIndexStats {
  uint64_t eq_lookups = 0;     // bucket lookups ($eq / $in conjuncts)
  uint64_t range_scans = 0;    // ordered scans ($gt/$gte/$lt/$lte/$prefix)
  uint64_t order_scans = 0;    // ORDER BY + LIMIT top-k index traversals
  uint64_t full_scans = 0;     // no usable index: predicate scan
};

/// A single document table: id → versioned document. Thread-safe: reads
/// (point lookups, query execution, introspection) take a shared lock and
/// run concurrently with each other; only writers (CRUD, index DDL) take
/// the lock exclusively. Plan counters are atomics so concurrent readers
/// never write shared state.
///
/// Query execution picks the cheapest applicable plan: (1) an equality /
/// $in bucket lookup on an ordered secondary index, (2) an ordered range
/// scan for $gt/$gte/$lt/$lte/$prefix conjuncts, (3) an ORDER BY + LIMIT
/// top-k traversal of the sort key's index with early termination, or
/// (4) a full predicate scan. Index candidates are always re-verified
/// against the complete predicate, so plans never change results.
class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }

  /// Inserts a new document. Fails with AlreadyExists if the id is live.
  /// Returns the committed after-image.
  Result<Document> Insert(const std::string& id, Value body, Micros now);

  /// Inserts or fully replaces. Returns the committed after-image.
  Result<Document> Upsert(const std::string& id, Value body, Micros now);

  /// Applies a partial update. Fails with NotFound for missing/deleted ids.
  Result<Document> Apply(const std::string& id, const Update& update,
                         Micros now);

  /// Deletes a document. Returns the tombstone after-image.
  Result<Document> Delete(const std::string& id, Micros now);

  /// Point lookup of the live version.
  Result<Document> Get(const std::string& id) const;

  /// Point lookup of the live version's number and commit time under the
  /// shared lock, without copying the document.
  Result<DocumentVersion> GetVersion(const std::string& id) const;

  /// Executes a query: plan selection + filter + order/offset/limit. If
  /// `commit_stamp` is set, it receives commit_count() as read under the
  /// same lock as the result: the result is current for as long as
  /// commit_count() still returns that value.
  std::vector<Document> Execute(const Query& query,
                                uint64_t* commit_stamp = nullptr) const;

  /// Number of committed mutations (CRUD writes and index DDL) so far.
  /// Lock-free; a query result stamped with this value is still current.
  uint64_t commit_count() const {
    return commits_.load(std::memory_order_acquire);
  }

  /// Number of live (non-deleted) documents.
  size_t LiveCount() const;

  /// Ids of all live documents (snapshot).
  std::vector<std::string> LiveIds() const;

  // -- Secondary indexes --

  /// Creates a multikey ordered index on a dot-path (MongoDB-style: array
  /// values index every element and the whole array). Keys are Values
  /// ordered by Value::Compare, so equality, range, and prefix predicates
  /// as well as single-key ORDER BY can be served from it. Built from
  /// existing documents; maintained on every write. Idempotent.
  void CreateIndex(const std::string& path);

  void DropIndex(const std::string& path);

  bool HasIndex(const std::string& path) const;

  /// How many Execute() calls were answered via an index (diagnostics).
  /// Counts eq lookups + range scans + order scans.
  uint64_t index_lookups() const;
  /// How many Execute() calls fell back to a full scan.
  uint64_t full_scans() const;
  /// Per-plan counters.
  TableIndexStats index_stats() const;

 private:
  /// Ordered multikey index: value → ids holding that value at the path
  /// (arrays contribute each element and the whole array).
  struct SecondaryIndex {
    std::map<Value, std::unordered_set<std::string>, ValueLess> buckets;
    /// Live docs contributing more than one key (array values). The top-k
    /// plan requires 0: a multikey doc would appear at several positions.
    size_t multikey_docs = 0;
    /// Live docs with no value at the path. The top-k plan requires 0:
    /// absent docs sort as null (first ascending / last descending) but
    /// are invisible to the index.
    size_t absent_docs = 0;
  };

  static void IndexKeysFor(const Value& body, const std::string& path,
                           std::vector<Value>* out);
  void AddToIndexesLocked(const Document& doc);
  /// Counts one committed mutation (caller holds the exclusive lock).
  void CommitLocked() { commits_.fetch_add(1, std::memory_order_release); }
  void RemoveFromIndexesLocked(const Document& doc);

  /// Appends live matching docs via an eq/$in bucket plan. `conjunct` must
  /// be an indexable equality. Ids reaching `out` satisfy the full query
  /// predicate.
  void ExecuteEqLocked(const Query& query, const Predicate& conjunct,
                       std::vector<const Document*>* out) const;

  /// Appends live matching docs via an ordered range scan over `path`'s
  /// index between the given bounds (either may be null = unbounded).
  void ExecuteRangeLocked(const Query& query, const std::string& path,
                          const Value* lo, bool lo_incl, const Value* hi,
                          bool hi_incl,
                          std::vector<const Document*>* out) const;

  /// Top-k via the ORDER BY path's index: emits up to offset+limit
  /// matching docs already in query order, stopping early. Returns false
  /// if the plan is inapplicable (multikey/absent docs, no index).
  bool ExecuteTopKLocked(const Query& query,
                         std::vector<const Document*>* out) const;

  std::string name_;
  /// Readers shared, writers exclusive. Ordered after the database's
  /// table-registry lock and before any cache-shard lock (see DESIGN.md
  /// "Concurrency model").
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Document> docs_;
  std::map<std::string, SecondaryIndex> indexes_;
  /// Bumped under the exclusive lock by every committed mutation.
  std::atomic<uint64_t> commits_{0};
  /// Per-plan counters, bumped relaxed under the shared lock.
  mutable std::atomic<uint64_t> eq_lookups_{0};
  mutable std::atomic<uint64_t> range_scans_{0};
  mutable std::atomic<uint64_t> order_scans_{0};
  mutable std::atomic<uint64_t> full_scans_{0};
};

}  // namespace quaestor::db

#endif  // QUAESTOR_DB_TABLE_H_
