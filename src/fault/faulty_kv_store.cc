#include "fault/faulty_kv_store.h"

#include <vector>

namespace quaestor::fault {

void FaultyKvStore::ReleaseDue(const std::string& queue,
                               bool overtaking_push) {
  std::vector<std::string> release;
  {
    std::lock_guard<std::mutex> lock(held_mu_);
    auto it = held_.find(queue);
    if (it == held_.end()) return;
    const Micros now = clock_->NowMicros();
    auto& pen = it->second;
    for (auto h = pen.begin(); h != pen.end();) {
      if (overtaking_push && h->overtakes_left > 0) h->overtakes_left--;
      const bool due = (h->due_time >= 0 && now >= h->due_time) ||
                       h->overtakes_left == 0;
      if (due) {
        release.push_back(std::move(h->message));
        h = pen.erase(h);
      } else {
        ++h;
      }
    }
    if (pen.empty()) held_.erase(it);
  }
  for (std::string& m : release) {
    kv::KvStore::QueuePush(queue, std::move(m));
  }
}

void FaultyKvStore::QueuePush(const std::string& queue, std::string message) {
  // This push overtakes any reordered messages parked earlier.
  ReleaseDue(queue, /*overtaking_push=*/true);
  if (injector_->ShouldDrop()) return;
  if (injector_->ShouldCorrupt()) injector_->Corrupt(&message);
  const bool duplicate = injector_->ShouldDuplicate();
  std::string copy = duplicate ? message : std::string();

  const Micros delay = injector_->DelayFor();
  if (delay > 0) {
    Held h;
    h.message = std::move(message);
    h.due_time = clock_->NowMicros() + delay;
    std::lock_guard<std::mutex> lock(held_mu_);
    held_[queue].push_back(std::move(h));
  } else if (injector_->ShouldReorder()) {
    Held h;
    h.message = std::move(message);
    h.overtakes_left = 1 + static_cast<int>(injector_->NextUint64(3));
    std::lock_guard<std::mutex> lock(held_mu_);
    held_[queue].push_back(std::move(h));
  } else {
    kv::KvStore::QueuePush(queue, std::move(message));
  }
  if (duplicate) {
    kv::KvStore::QueuePush(queue, std::move(copy));
  }
}

std::optional<std::string> FaultyKvStore::QueueTryPop(
    const std::string& queue) {
  ReleaseDue(queue, /*overtaking_push=*/false);
  return kv::KvStore::QueueTryPop(queue);
}

size_t FaultyKvStore::QueueLen(const std::string& queue) const {
  size_t held = 0;
  {
    std::lock_guard<std::mutex> lock(held_mu_);
    auto it = held_.find(queue);
    if (it != held_.end()) held = it->second.size();
  }
  return kv::KvStore::QueueLen(queue) + held;
}

size_t FaultyKvStore::FlushHeld() {
  std::unordered_map<std::string, std::deque<Held>> pens;
  {
    std::lock_guard<std::mutex> lock(held_mu_);
    pens.swap(held_);
  }
  size_t released = 0;
  for (auto& [queue, pen] : pens) {
    for (Held& h : pen) {
      kv::KvStore::QueuePush(queue, std::move(h.message));
      released++;
    }
  }
  return released;
}

size_t FaultyKvStore::held_count() const {
  std::lock_guard<std::mutex> lock(held_mu_);
  size_t n = 0;
  for (const auto& [queue, pen] : held_) n += pen.size();
  return n;
}

}  // namespace quaestor::fault
