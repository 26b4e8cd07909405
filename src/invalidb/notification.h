#ifndef QUAESTOR_INVALIDB_NOTIFICATION_H_
#define QUAESTOR_INVALIDB_NOTIFICATION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "db/document.h"

namespace quaestor::invalidb {

/// Notification kinds (§4.1 "Notification Events"): add — an object enters
/// a result set; remove — it leaves; change — a contained object is
/// updated without altering membership; changeIndex — a positional change
/// within a sorted result (§4.1 "Managing Query State").
enum class NotificationType : uint8_t {
  kAdd,
  kRemove,
  kChange,
  kChangeIndex,
};

std::string_view NotificationTypeName(NotificationType t);

/// Bitmask of notification events. A registration delivers every event
/// its query can emit; the server's filter (CacheEvents in
/// core/server.cc) applies the paper's "only two combinations of event
/// notifications are useful" (§4.1) per cached copy: id-list results only
/// need membership changes (add/remove), object-list results additionally
/// need change, and sorted results also need changeIndex.
enum EventMask : uint8_t {
  kEventAdd = 1 << 0,
  kEventRemove = 1 << 1,
  kEventChange = 1 << 2,
  kEventChangeIndex = 1 << 3,

  kEventsIdList = kEventAdd | kEventRemove,
  kEventsObjectList = kEventAdd | kEventRemove | kEventChange,
};

constexpr EventMask operator|(EventMask a, EventMask b) {
  return static_cast<EventMask>(static_cast<uint8_t>(a) |
                                static_cast<uint8_t>(b));
}

constexpr EventMask EventBit(NotificationType t) {
  switch (t) {
    case NotificationType::kAdd:
      return kEventAdd;
    case NotificationType::kRemove:
      return kEventRemove;
    case NotificationType::kChange:
      return kEventChange;
    case NotificationType::kChangeIndex:
      return kEventChangeIndex;
  }
  return kEventAdd;
}

/// A single invalidation notification delivered to Quaestor.
struct Notification {
  NotificationType type = NotificationType::kChange;
  std::string query_key;
  std::string record_id;
  /// Commit time of the triggering write (for latency measurement and the
  /// actual-TTL feedback to the TTL estimator).
  Micros event_time = 0;
  /// For changeIndex: the new position of the record in the sorted result.
  int64_t new_index = -1;
};

/// Receives the notifications of one delivery (one matching dispatch, one
/// decoded notify_batch envelope) in a single call, in emission order.
using NotificationBatchSink =
    std::function<void(const std::vector<Notification>&)>;

}  // namespace quaestor::invalidb

#endif  // QUAESTOR_INVALIDB_NOTIFICATION_H_
