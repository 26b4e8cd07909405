#ifndef QUAESTOR_DB_TABLE_H_
#define QUAESTOR_DB_TABLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
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

/// The index-key slots a query result read (see Table::Execute). Empty
/// means the result may depend on any document of the table.
struct StampSlots {
  /// A `$in` with more elements than this stamps the whole table.
  static constexpr size_t kMax = 8;
  uint8_t count = 0;
  /// ids[0, count) in lookup order, without repeats; the rest stay 0, so
  /// equal slot lists compare equal.
  std::array<uint16_t, kMax> ids{};

  bool empty() const { return count == 0; }
  friend bool operator==(const StampSlots&, const StampSlots&) = default;
};

/// What a query result depended on, read under the table lock together
/// with the result: Table::IsCurrent tells, without the lock, whether a
/// re-execution could return anything else.
struct ResultStamp {
  /// Table::commit_count() as read with the result.
  uint64_t commit = 0;
  StampSlots slots;
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
  /// `stamp` is set, it receives what the result depended on, read under
  /// the same lock as the result: commit_count(), plus the slots of the
  /// index keys an eq/$in bucket plan looked up. Range, top-k and
  /// full-scan plans, and a $in over more than StampSlots::kMax elements,
  /// leave the slot list empty (the whole table).
  std::vector<Document> Execute(const Query& query,
                                ResultStamp* stamp = nullptr) const;

  /// Whether a result stamped with `stamp` is still what Execute would
  /// return. Lock-free. With slots: no index DDL and no write touching
  /// one of the slots has committed since. Without: no commit at all.
  bool IsCurrent(const ResultStamp& stamp) const;

  /// Number of committed mutations (CRUD writes and index DDL) so far.
  /// Lock-free.
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
  /// Commit slots per table (see slot_commits_).
  static constexpr size_t kStampSlots = 8192;
  static_assert((kStampSlots & (kStampSlots - 1)) == 0 &&
                    kStampSlots - 1 <= UINT16_MAX,
                "slots are picked by mask and named by StampSlots' uint16_t");

  /// Ordered multikey index: value → ids holding that value at the path
  /// (arrays contribute each element and the whole array).
  struct SecondaryIndex {
    /// Seeds the commit-slot hash of this index's keys.
    uint64_t path_hash = 0;
    std::map<Value, std::unordered_set<std::string>, ValueLess> buckets;
    /// Live docs contributing more than one key (array values). The top-k
    /// plan requires 0: a multikey doc would appear at several positions.
    size_t multikey_docs = 0;
    /// Live docs with no value at the path. The top-k plan requires 0:
    /// absent docs sort as null (first ascending / last descending) but
    /// are invisible to the index.
    size_t absent_docs = 0;
  };

  /// The index keys of `body` at `path`, pointing into `body`.
  static void IndexKeysFor(const Value& body, const std::string& path,
                           std::vector<const Value*>* out);
  /// The commit slot of `key` in the index seeded by `path_hash`, or -1
  /// for NaN, which compares equal to every number and so has no slot.
  /// Keys equal under Value::Compare share a slot: numbers hash by their
  /// double value, and arrays and objects share one slot per path.
  static int SlotOf(uint64_t path_hash, const Value& key);

  /// Stores `commit` into the slot of each key (a NaN key stands for
  /// every slot, so it goes to table_wide_commit_).
  void TouchSlotsLocked(const SecondaryIndex& index,
                        const std::vector<const Value*>& keys,
                        uint64_t commit);
  void AddToIndexLocked(const std::string& id,
                        const std::vector<const Value*>& keys,
                        SecondaryIndex* index);
  void RemoveFromIndexLocked(const std::string& id,
                             const std::vector<const Value*>& keys,
                             SecondaryIndex* index);
  /// Commits one write of `id` (caller holds the exclusive lock): moves
  /// it in every index from the keys of `before` to those of `after`
  /// (null: not live, i.e. an insert or a delete), stamps the slots of
  /// both key sets with the write's commit number, and only then
  /// publishes that number as commit_count(), so a reader that sees the
  /// count also sees the slots. An index whose keys did not change keeps
  /// its buckets; its slots are still stamped, because the document's
  /// content changed.
  void CommitWriteLocked(const std::string& id, const Value* before,
                         const Value* after);
  /// Commits index DDL: a table-wide commit (caller holds the exclusive
  /// lock).
  void CommitDdlLocked();

  using DocMap = std::unordered_map<std::string, Document>;
  /// Stores `body` as the next version of `id` (`it` is its docs_ entry or
  /// end(); a live entry is replaced) and commits the write. Returns the
  /// after-image.
  Document PutLocked(DocMap::iterator it, const std::string& id, Value body,
                     Micros now);

  /// Appends live matching docs via an eq/$in bucket plan. `conjunct` must
  /// be an indexable equality. Ids reaching `out` satisfy the full query
  /// predicate. If `slots` is set, it receives the looked-up keys' slots
  /// (left empty past StampSlots::kMax keys or for a NaN key).
  void ExecuteEqLocked(const Query& query, const Predicate& conjunct,
                       std::vector<const Document*>* out,
                       StampSlots* slots) const;

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
  DocMap docs_;
  std::map<std::string, SecondaryIndex> indexes_;
  /// Advanced under the exclusive lock by every committed mutation, after
  /// the mutation's slot stamps.
  std::atomic<uint64_t> commits_{0};
  /// The last commit that touched each slot: every write stores its
  /// number into the slot of each index key of its before- and
  /// after-image. Allocated with the first index, under the exclusive
  /// lock, and never replaced: a stamp with slots comes from an execution
  /// that ran after the allocation, so IsCurrent reads it without the lock.
  std::unique_ptr<std::atomic<uint64_t>[]> slot_commits_;
  /// The last commit that every slot stamp depends on: index DDL (it
  /// changes plans) and writes of a NaN key.
  std::atomic<uint64_t> table_wide_commit_{0};
  /// Per-plan counters, bumped relaxed under the shared lock.
  mutable std::atomic<uint64_t> eq_lookups_{0};
  mutable std::atomic<uint64_t> range_scans_{0};
  mutable std::atomic<uint64_t> order_scans_{0};
  mutable std::atomic<uint64_t> full_scans_{0};
};

}  // namespace quaestor::db

#endif  // QUAESTOR_DB_TABLE_H_
