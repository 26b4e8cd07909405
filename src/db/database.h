#ifndef QUAESTOR_DB_DATABASE_H_
#define QUAESTOR_DB_DATABASE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/result.h"
#include "db/document.h"
#include "db/query.h"
#include "db/table.h"
#include "db/update.h"

namespace quaestor::db {

/// Listener invoked synchronously after each committed write with the
/// record's after-image. Quaestor's server wires this into InvaliDB's
/// change-stream ingestion (§4.1).
using ChangeListener = std::function<void(const ChangeEvent&)>;

/// Per-shard and total operation counters.
struct DatabaseStats {
  uint64_t inserts = 0;
  uint64_t updates = 0;
  uint64_t deletes = 0;
  uint64_t reads = 0;
  uint64_t queries = 0;
};

/// A multi-table document database with a change stream — the MongoDB
/// stand-in. Documents are hash-sharded by primary key across
/// `num_shards` logical shards (shard assignment is observable for load
/// accounting; all shards live in this process).
class Database {
 public:
  explicit Database(Clock* clock, size_t num_shards = 1)
      : clock_(clock), num_shards_(num_shards == 0 ? 1 : num_shards) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Returns the table, creating it on first use.
  Table* GetOrCreateTable(const std::string& name);

  /// Returns the table or nullptr.
  Table* FindTable(const std::string& name) const;

  // -- CRUD (each committed write notifies change listeners) --

  Result<Document> Insert(const std::string& table, const std::string& id,
                          Value body);
  Result<Document> Upsert(const std::string& table, const std::string& id,
                          Value body);
  Result<Document> Apply(const std::string& table, const std::string& id,
                         const Update& update);
  Result<Document> Delete(const std::string& table, const std::string& id);
  Result<Document> Get(const std::string& table, const std::string& id) const;
  /// Table::GetVersion of `table`; counts as a read like Get.
  Result<DocumentVersion> GetVersion(const std::string& table,
                                     const std::string& id) const;

  /// Executes a query against its table (empty result for missing tables).
  /// `stamp`, if set, receives what the result depended on (see
  /// Table::Execute); a missing table stamps commit 0 and no slots.
  std::vector<Document> Execute(const Query& query,
                                ResultStamp* stamp = nullptr) const;

  /// Table::IsCurrent of `table`. While the table does not exist only the
  /// stamp of a missing table (commit 0, no slots) is current: the
  /// table's first mutation makes its commit count non-zero.
  bool IsCurrent(const std::string& table, const ResultStamp& stamp) const;

  /// Registers a change listener. Not thread-safe with respect to
  /// concurrent writes; register listeners during setup.
  void AddChangeListener(ChangeListener listener);

  /// Logical shard for a record key (hashed primary key, like the paper's
  /// MongoDB cluster configuration).
  size_t ShardOf(const std::string& id) const {
    return static_cast<size_t>(Hash64(id) % num_shards_);
  }

  size_t num_shards() const { return num_shards_; }

  DatabaseStats stats() const {
    DatabaseStats s;
    s.inserts = inserts_.load(std::memory_order_relaxed);
    s.updates = updates_.load(std::memory_order_relaxed);
    s.deletes = deletes_.load(std::memory_order_relaxed);
    s.reads = reads_.load(std::memory_order_relaxed);
    s.queries = queries_.load(std::memory_order_relaxed);
    return s;
  }

  std::vector<std::string> TableNames() const;

 private:
  void Notify(WriteKind kind, const Document& after);

  Clock* clock_;
  const size_t num_shards_;
  /// Table registry: looked up shared (every read and write resolves its
  /// table), extended exclusively on first use of a new table name.
  mutable std::shared_mutex tables_mu_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::vector<ChangeListener> listeners_;
  /// Operation counters, relaxed atomics: read/query paths must not share
  /// a hot mutex.
  mutable std::atomic<uint64_t> inserts_{0};
  mutable std::atomic<uint64_t> updates_{0};
  mutable std::atomic<uint64_t> deletes_{0};
  mutable std::atomic<uint64_t> reads_{0};
  mutable std::atomic<uint64_t> queries_{0};
};

}  // namespace quaestor::db

#endif  // QUAESTOR_DB_DATABASE_H_
