#include "fault/faulty_send.h"

#include <utility>
#include <vector>

namespace quaestor::fault {

size_t FaultySend::ReleaseDue(const std::string* overtaking_queue,
                              bool all) {
  std::vector<Held> release;
  {
    std::lock_guard<std::mutex> lock(held_mu_);
    const Micros now = clock_->NowMicros();
    for (auto h = held_.begin(); h != held_.end();) {
      if (overtaking_queue != nullptr && h->overtakes_left > 0 &&
          h->queue == *overtaking_queue) {
        h->overtakes_left--;
      }
      const bool due = all || (h->due_time >= 0 && now >= h->due_time) ||
                       h->overtakes_left == 0;
      if (due) {
        release.push_back(std::move(*h));
        h = held_.erase(h);
      } else {
        ++h;
      }
    }
  }
  for (Held& h : release) inner_(h.queue, std::move(h.message));
  return release.size();
}

void FaultySend::Send(const std::string& queue, std::string message) {
  // This send overtakes the reordered messages held for its queue.
  ReleaseDue(&queue);
  if (injector_->ShouldDrop()) return;
  if (injector_->ShouldCorrupt()) injector_->Corrupt(&message);
  const bool duplicate = injector_->ShouldDuplicate();
  std::string copy = duplicate ? message : std::string();

  Held h;
  if (const Micros delay = injector_->DelayFor(); delay > 0) {
    h.due_time = clock_->NowMicros() + delay;
  } else if (injector_->ShouldReorder()) {
    h.overtakes_left = 1 + static_cast<int>(injector_->NextUint64(3));
  }
  if (h.due_time >= 0 || h.overtakes_left > 0) {
    h.queue = queue;
    h.message = std::move(message);
    std::lock_guard<std::mutex> lock(held_mu_);
    held_.push_back(std::move(h));
  } else {
    inner_(queue, std::move(message));
  }
  if (duplicate) inner_(queue, std::move(copy));
}

size_t FaultySend::Release() { return ReleaseDue(nullptr); }

size_t FaultySend::FlushHeld() { return ReleaseDue(nullptr, /*all=*/true); }

size_t FaultySend::held_count() const {
  std::lock_guard<std::mutex> lock(held_mu_);
  return held_.size();
}

}  // namespace quaestor::fault
