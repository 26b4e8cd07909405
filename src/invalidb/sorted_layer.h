#ifndef QUAESTOR_INVALIDB_SORTED_LAYER_H_
#define QUAESTOR_INVALIDB_SORTED_LAYER_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/document.h"
#include "db/query.h"
#include "invalidb/notification.h"

namespace quaestor::invalidb {

/// Maintains the ordered result of one stateful query (ORDER BY / LIMIT /
/// OFFSET, §4.1 "Managing Query State"). The matching grid tracks raw
/// predicate membership; this layer keeps the full ordered matching set
/// and translates raw membership events into events on the *visible
/// window* [offset, offset+limit): add/remove when records enter or leave
/// the window, change for in-place updates, changeIndex for positional
/// shifts within the window.
class SortedQueryState {
 public:
  /// `query` must carry the ORDER BY/LIMIT/OFFSET; `initial_result` is the
  /// full (unwindowed) predicate-matching set.
  SortedQueryState(db::Query query, std::vector<db::Document> initial_result);

  /// Processes one raw membership event from the grid; appends windowed
  /// notifications to `out`. Thread-safe (events for one query may arrive
  /// from all object partitions).
  void OnRawEvent(NotificationType raw_type, const db::Document& doc,
                  Micros event_time, std::vector<Notification>* out);

  /// Ids currently visible in the window, in order.
  std::vector<std::string> WindowIds() const;

 private:
  struct Member {
    std::string id;
    db::Value body;
  };

  /// Index of id in members_, or npos.
  size_t FindLocked(const std::string& id) const;

  /// Insert position for a document per the query's order.
  size_t LowerBoundLocked(const db::Document& doc) const;

  std::vector<std::string> WindowIdsLocked() const;

  db::Query query_;
  mutable std::mutex mu_;
  std::vector<Member> members_;  // full matching set, sorted
};

/// The separate processing layer holding all stateful queries, partitioned
/// by query (§4.1: "Our current implementation maintains order-related
/// state in a separate processing layer partitioned by query").
class SortedLayer {
 public:
  void AddQuery(const db::Query& query, const std::string& query_key,
                std::vector<db::Document> initial_result);

  void RemoveQuery(const std::string& query_key);

  /// True if the key belongs to a stateful query handled here.
  bool Handles(const std::string& query_key) const;

  /// Routes a raw grid event to the query's state.
  void OnRawEvent(const std::string& query_key, NotificationType raw_type,
                  const db::Document& doc, Micros event_time,
                  std::vector<Notification>* out);

  /// Current visible window of a query (empty if unknown).
  std::vector<std::string> WindowIds(const std::string& query_key) const;

  size_t QueryCount() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<SortedQueryState>> states_;
};

}  // namespace quaestor::invalidb

#endif  // QUAESTOR_INVALIDB_SORTED_LAYER_H_
