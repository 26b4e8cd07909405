#ifndef QUAESTOR_CORE_STREAMS_H_
#define QUAESTOR_CORE_STREAMS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "db/document.h"
#include "db/query.h"
#include "invalidb/notification.h"

namespace quaestor::core {

class QuaestorServer;

/// An event delivered to a change-stream subscriber: the notification
/// plus the current after-image body for adds/changes (what a websocket
/// frame would carry).
struct StreamEvent {
  invalidb::NotificationType type = invalidb::NotificationType::kChange;
  std::string query_key;
  std::string record_id;
  Micros event_time = 0;
  int64_t new_index = -1;
  /// Present for add/change events (the record's current state).
  db::Value body;
  bool has_body = false;
};

using StreamCallback = std::function<void(const StreamEvent&)>;

/// Self-maintaining query result streams (§3.2): "clients can directly
/// subscribe to websocket-based query result change streams ... the
/// application can define its critical data set through queries and keep
/// it up-to-date in real-time."
///
/// Subscribing registers the query in InvaliDB (if not already active for
/// caching) and returns the initial result; every subsequent add / remove
/// / change / changeIndex on the result is pushed to the callback.
/// Thread-compatible with the server's notification dispatch.
class ChangeStreamHub {
 public:
  explicit ChangeStreamHub(QuaestorServer* server);

  ChangeStreamHub(const ChangeStreamHub&) = delete;
  ChangeStreamHub& operator=(const ChangeStreamHub&) = delete;

  /// Subscribes to a query's change stream. `initial_result` receives the
  /// query's current (windowed) result. Returns a subscription id.
  Result<uint64_t> Subscribe(const db::Query& query, StreamCallback callback,
                             std::vector<db::Document>* initial_result);

  /// Cancels a subscription. When it was the query's last one, the query
  /// is no longer streamed: the server's filter goes back to the cached
  /// representation's events, and a query the cache does not maintain is
  /// deregistered.
  void Unsubscribe(uint64_t subscription_id);

  size_t SubscriberCount(const std::string& query_key) const;
  size_t TotalSubscriptions() const;

 private:
  /// Wired into the server's notification tap: one lock per delivery.
  void OnNotificationBatch(const std::vector<invalidb::Notification>& batch);

  QuaestorServer* server_;
  /// Orders a query's activation by a new subscriber against its release
  /// by the last one leaving. Taken before mu_.
  std::mutex activation_mu_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  struct Subscription {
    std::string query_key;
    StreamCallback callback;
  };
  std::unordered_map<uint64_t, Subscription> subscriptions_;
  // query key → subscription ids
  std::unordered_map<std::string, std::vector<uint64_t>> by_query_;
};

}  // namespace quaestor::core

#endif  // QUAESTOR_CORE_STREAMS_H_
