#include "invalidb/matching_node.h"

#include <algorithm>

namespace quaestor::invalidb {

std::string_view NotificationTypeName(NotificationType t) {
  switch (t) {
    case NotificationType::kAdd:
      return "add";
    case NotificationType::kRemove:
      return "remove";
    case NotificationType::kChange:
      return "change";
    case NotificationType::kChangeIndex:
      return "changeIndex";
  }
  return "unknown";
}

namespace {

std::string RecordKey(const db::Document& doc) {
  std::string key;
  key.reserve(doc.table.size() + 1 + doc.id.size());
  key += doc.table;
  key += '/';
  key += doc.id;
  return key;
}

}  // namespace

void MatchingNode::AddQuery(const db::Query& query,
                            const std::string& query_key,
                            std::vector<std::string> initial_matching_ids) {
  RemoveQuery(query_key);  // reinstallation resets all per-query state
  QueryState& st = queries_[query_key];
  st.query = query;
  st.key = query_key;
  for (std::string& id : initial_matching_ids) {
    by_record_[query.table() + "/" + id].insert(&st);
    st.matching_ids.insert(std::move(id));
  }
  if (use_index_) index_.Add(query_key, query);
  query_count_.store(queries_.size(), std::memory_order_relaxed);
}

void MatchingNode::RemoveQuery(const std::string& query_key) {
  auto it = queries_.find(query_key);
  if (it == queries_.end()) return;
  QueryState& st = it->second;
  for (const std::string& id : st.matching_ids) {
    auto rec = by_record_.find(st.query.table() + "/" + id);
    if (rec == by_record_.end()) continue;
    rec->second.erase(&st);
    if (rec->second.empty()) by_record_.erase(rec);
  }
  if (use_index_) index_.Remove(query_key);
  queries_.erase(it);
  query_count_.store(queries_.size(), std::memory_order_relaxed);
}

void MatchingNode::Clear() {
  std::vector<std::string> keys;
  keys.reserve(queries_.size());
  for (const auto& [key, st] : queries_) keys.push_back(key);
  for (const std::string& key : keys) RemoveQuery(key);
}

bool MatchingNode::HasQuery(const std::string& query_key) const {
  return queries_.find(query_key) != queries_.end();
}

void MatchingNode::MatchQuery(QueryState& st, const db::ChangeEvent& event,
                              const std::string& record_key,
                              std::vector<Notification>* out) {
  const db::Document& doc = event.after;
  if (st.query.table() != doc.table) return;
  const bool was_match = st.matching_ids.count(doc.id) > 0;
  const bool is_match = !doc.deleted && st.query.Matches(doc.body);
  if (!was_match && !is_match) return;

  Notification n;
  n.query_key = st.key;
  n.record_id = doc.id;
  n.event_time = event.commit_time;
  if (was_match && is_match) {
    n.type = NotificationType::kChange;
  } else if (!was_match && is_match) {
    n.type = NotificationType::kAdd;
    st.matching_ids.insert(doc.id);
    by_record_[record_key].insert(&st);
  } else {  // was_match && !is_match
    n.type = NotificationType::kRemove;
    st.matching_ids.erase(doc.id);
    auto rec = by_record_.find(record_key);
    if (rec != by_record_.end()) {
      rec->second.erase(&st);
      if (rec->second.empty()) by_record_.erase(rec);
    }
  }
  out->push_back(std::move(n));
}

MatchingNode::MatchStats MatchingNode::Match(const db::ChangeEvent& event,
                                             std::vector<Notification>* out) {
  obs::ScopedSpan span(tracer_, "invalidb.match");
  if (use_index_) return MatchIndexed(event, out, /*reuse_probe=*/false);

  processed_ops_.fetch_add(1, std::memory_order_relaxed);
  MatchStats stats;
  stats.installed = queries_.size();
  const std::string record_key = RecordKey(event.after);
  for (auto& [key, st] : queries_) {
    MatchQuery(st, event, record_key, out);
  }
  stats.checked = stats.installed;
  return stats;
}

MatchingNode::MatchStats MatchingNode::MatchIndexed(
    const db::ChangeEvent& event, std::vector<Notification>* out,
    bool reuse_probe) {
  processed_ops_.fetch_add(1, std::memory_order_relaxed);
  MatchStats stats;
  stats.installed = queries_.size();
  const std::string record_key = RecordKey(event.after);

  // Candidate union, deduped by per-query epoch stamps:
  //   (a) queries whose indexed conjunct the after-image can satisfy, and
  //   (b) queries currently containing the record (before-image members),
  //       so leaves are never missed.
  ++epoch_;
  candidates_.clear();
  if (!reuse_probe) {
    candidate_keys_.clear();
    last_probe_ = index_.CollectCandidates(event.after.table,
                                           event.after.body,
                                           &candidate_keys_);
  }
  stats.index_candidates = last_probe_.index_candidates;
  stats.residual_candidates = last_probe_.residual_candidates;
  for (const std::string* key : candidate_keys_) {
    auto it = queries_.find(*key);
    if (it == queries_.end()) continue;
    QueryState& st = it->second;
    if (st.epoch == epoch_) continue;
    st.epoch = epoch_;
    candidates_.push_back(&st);
  }
  if (auto rec = by_record_.find(record_key); rec != by_record_.end()) {
    for (QueryState* st : rec->second) {
      if (st->epoch == epoch_) continue;
      st->epoch = epoch_;
      candidates_.push_back(st);
    }
  }

  // Evaluation is separated from collection: MatchQuery mutates
  // by_record_, which must not be iterated concurrently.
  for (QueryState* st : candidates_) {
    MatchQuery(*st, event, record_key, out);
  }
  stats.checked = candidates_.size();
  return stats;
}

MatchingNode::MatchStats MatchingNode::MatchBatch(
    const std::vector<db::ChangeEvent>& events,
    std::vector<Notification>* out, std::vector<size_t>* offsets) {
  obs::ScopedSpan span(tracer_, "invalidb.match");
  MatchStats total;
  offsets->clear();
  offsets->reserve(events.size() + 1);
  offsets->push_back(out->size());
  const db::ChangeEvent* prev = nullptr;
  for (const db::ChangeEvent& event : events) {
    MatchStats s;
    if (use_index_) {
      // candidate_keys_ holds pointers into the index; they stay valid
      // across the batch because no query is added or removed between
      // events of one batch.
      const bool reuse = prev != nullptr &&
                         prev->after.table == event.after.table &&
                         prev->after.body == event.after.body;
      s = MatchIndexed(event, out, reuse);
      prev = &event;
    } else {
      s = Match(event, out);
    }
    total.checked += s.checked;
    total.installed += s.installed;
    total.index_candidates += s.index_candidates;
    total.residual_candidates += s.residual_candidates;
    offsets->push_back(out->size());
  }
  return total;
}

void MatchingNode::MatchSingle(const std::string& query_key,
                               const db::ChangeEvent& event,
                               std::vector<Notification>* out) {
  auto it = queries_.find(query_key);
  if (it == queries_.end()) return;
  MatchQuery(it->second, event, RecordKey(event.after), out);
}

std::vector<std::string> MatchingNode::MatchingIdsOf(
    const std::string& query_key) const {
  std::vector<std::string> ids;
  auto it = queries_.find(query_key);
  if (it == queries_.end()) return ids;
  ids.assign(it->second.matching_ids.begin(), it->second.matching_ids.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace quaestor::invalidb
