#include "invalidb/sorted_layer.h"

#include <algorithm>

namespace quaestor::invalidb {

SortedQueryState::SortedQueryState(db::Query query,
                                   std::vector<db::Document> initial_result)
    : query_(std::move(query)) {
  members_.reserve(initial_result.size());
  for (db::Document& doc : initial_result) {
    members_.push_back(Member{doc.id, std::move(doc.body)});
  }
  std::sort(members_.begin(), members_.end(),
            [this](const Member& a, const Member& b) {
              return query_.OrderedBefore(a.body, a.id, b.body, b.id);
            });
}

size_t SortedQueryState::FindLocked(const std::string& id) const {
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].id == id) return i;
  }
  return static_cast<size_t>(-1);
}

size_t SortedQueryState::LowerBoundLocked(const db::Document& doc) const {
  size_t lo = 0;
  size_t hi = members_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (query_.OrderedBefore(members_[mid].body, members_[mid].id, doc.body,
                             doc.id)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<std::string> SortedQueryState::WindowIdsLocked() const {
  const size_t offset = static_cast<size_t>(
      std::max<int64_t>(0, query_.offset()));
  size_t end = members_.size();
  if (query_.limit() >= 0) {
    end = std::min(end, offset + static_cast<size_t>(query_.limit()));
  }
  std::vector<std::string> out;
  for (size_t i = offset; i < end && i < members_.size(); ++i) {
    out.push_back(members_[i].id);
  }
  return out;
}

std::vector<std::string> SortedQueryState::WindowIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return WindowIdsLocked();
}

void SortedQueryState::OnRawEvent(NotificationType raw_type,
                                  const db::Document& doc, Micros event_time,
                                  std::vector<Notification>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<std::string> old_window = WindowIdsLocked();

  // Apply the mutation to the full ordered set.
  const size_t existing = FindLocked(doc.id);
  const bool had = existing != static_cast<size_t>(-1);
  if (raw_type == NotificationType::kRemove) {
    if (had) members_.erase(members_.begin() + static_cast<long>(existing));
  } else {  // add or change: (re)position with the new body
    if (had) members_.erase(members_.begin() + static_cast<long>(existing));
    const size_t pos = LowerBoundLocked(doc);
    members_.insert(members_.begin() + static_cast<long>(pos),
                    Member{doc.id, doc.body});
  }

  const std::vector<std::string> new_window = WindowIdsLocked();

  // Diff the visible windows.
  auto index_of = [](const std::vector<std::string>& w,
                     const std::string& id) -> int64_t {
    for (size_t i = 0; i < w.size(); ++i) {
      if (w[i] == id) return static_cast<int64_t>(i);
    }
    return -1;
  };

  auto emit = [&](NotificationType t, const std::string& id, int64_t idx) {
    Notification n;
    n.type = t;
    n.query_key = query_.NormalizedKey();
    n.record_id = id;
    n.event_time = event_time;
    n.new_index = idx;
    out->push_back(std::move(n));
  };

  // Records leaving the window.
  for (const std::string& id : old_window) {
    if (index_of(new_window, id) < 0) {
      emit(NotificationType::kRemove, id, -1);
    }
  }
  // Records entering, moving, or changing within the window.
  for (size_t i = 0; i < new_window.size(); ++i) {
    const std::string& id = new_window[i];
    const int64_t old_idx = index_of(old_window, id);
    if (old_idx < 0) {
      emit(NotificationType::kAdd, id, static_cast<int64_t>(i));
    } else if (old_idx != static_cast<int64_t>(i)) {
      emit(NotificationType::kChangeIndex, id, static_cast<int64_t>(i));
    } else if (id == doc.id && raw_type == NotificationType::kChange) {
      emit(NotificationType::kChange, id, static_cast<int64_t>(i));
    }
  }
}

void SortedLayer::AddQuery(const db::Query& query,
                           const std::string& query_key,
                           std::vector<db::Document> initial_result) {
  auto state =
      std::make_shared<SortedQueryState>(query, std::move(initial_result));
  std::lock_guard<std::mutex> lock(mu_);
  states_[query_key] = std::move(state);
}

void SortedLayer::RemoveQuery(const std::string& query_key) {
  std::lock_guard<std::mutex> lock(mu_);
  states_.erase(query_key);
}

bool SortedLayer::Handles(const std::string& query_key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_.find(query_key) != states_.end();
}

void SortedLayer::OnRawEvent(const std::string& query_key,
                             NotificationType raw_type,
                             const db::Document& doc, Micros event_time,
                             std::vector<Notification>* out) {
  std::shared_ptr<SortedQueryState> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = states_.find(query_key);
    if (it == states_.end()) return;
    state = it->second;
  }
  state->OnRawEvent(raw_type, doc, event_time, out);
}

std::vector<std::string> SortedLayer::WindowIds(
    const std::string& query_key) const {
  std::shared_ptr<SortedQueryState> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = states_.find(query_key);
    if (it == states_.end()) return {};
    state = it->second;
  }
  return state->WindowIds();
}

size_t SortedLayer::QueryCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_.size();
}

}  // namespace quaestor::invalidb
