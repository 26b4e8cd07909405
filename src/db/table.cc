#include "db/table.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <utility>

#include "common/hash.h"

namespace quaestor::db {

void Table::IndexKeysFor(const Value& body, const std::string& path,
                         std::vector<const Value*>* out) {
  const Value* v = body.Find(path);
  if (v == nullptr) return;
  out->push_back(v);
  if (v->is_array()) {
    // Multikey: {tags: "x"} equality matches array elements.
    for (const Value& e : v->as_array()) out->push_back(&e);
  }
}

int Table::SlotOf(uint64_t path_hash, const Value& key) {
  uint64_t h = 0;
  switch (key.type()) {
    case Value::Type::kNull:
      h = Hash64(uint64_t{1}, path_hash);
      break;
    case Value::Type::kBool:
      h = Hash64(uint64_t{2} + (key.as_bool() ? 1 : 0), path_hash);
      break;
    case Value::Type::kInt:
    case Value::Type::kDouble: {
      // Compare treats 1 and 1.0 (and -0.0 and 0) as one key.
      double d = key.as_number();
      if (std::isnan(d)) return -1;
      if (d == 0) d = 0;
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof bits);
      h = Hash64(bits, path_hash);
      break;
    }
    case Value::Type::kString:
      h = Hash64(key.as_string(), path_hash);
      break;
    case Value::Type::kArray:
    case Value::Type::kObject:
      h = Hash64(uint64_t{4}, path_hash);
      break;
  }
  return static_cast<int>(h & (kStampSlots - 1));
}

void Table::TouchSlotsLocked(const SecondaryIndex& index,
                             const std::vector<const Value*>& keys,
                             uint64_t commit) {
  for (const Value* k : keys) {
    const int slot = SlotOf(index.path_hash, *k);
    std::atomic<uint64_t>& target =
        slot < 0 ? table_wide_commit_ : slot_commits_[slot];
    target.store(commit, std::memory_order_release);
  }
}

void Table::AddToIndexLocked(const Entry* entry,
                             const std::vector<const Value*>& keys,
                             SecondaryIndex* index) {
  if (keys.empty()) {
    index->absent_docs++;
  } else if (keys.size() > 1) {
    index->multikey_docs++;
  }
  for (const Value* k : keys) index->buckets[*k].insert(entry);
}

void Table::RemoveFromIndexLocked(const Entry* entry,
                                  const std::vector<const Value*>& keys,
                                  SecondaryIndex* index) {
  if (keys.empty()) {
    index->absent_docs--;
  } else if (keys.size() > 1) {
    index->multikey_docs--;
  }
  for (const Value* k : keys) {
    auto it = index->buckets.find(*k);
    if (it == index->buckets.end()) continue;
    it->second.erase(entry);
    if (it->second.empty()) index->buckets.erase(it);
  }
}

void Table::CommitWriteLocked(const Entry& entry, const Value* before,
                              const Value* after) {
  const uint64_t commit = commits_.load(std::memory_order_relaxed) + 1;
  std::vector<const Value*> old_keys;
  std::vector<const Value*> new_keys;
  for (auto& [path, index] : indexes_) {
    old_keys.clear();
    new_keys.clear();
    if (before != nullptr) IndexKeysFor(*before, path, &old_keys);
    if (after != nullptr) IndexKeysFor(*after, path, &new_keys);
    TouchSlotsLocked(index, old_keys, commit);
    const bool same_keys =
        before != nullptr && after != nullptr &&
        std::equal(old_keys.begin(), old_keys.end(), new_keys.begin(),
                   new_keys.end(), [](const Value* a, const Value* b) {
                     return Value::Compare(*a, *b) == 0;
                   });
    if (same_keys) continue;  // e.g. a counter bump: buckets stay as they are
    TouchSlotsLocked(index, new_keys, commit);
    if (before != nullptr) RemoveFromIndexLocked(&entry, old_keys, &index);
    if (after != nullptr) AddToIndexLocked(&entry, new_keys, &index);
  }
  commits_.store(commit, std::memory_order_release);
}

void Table::CommitDdlLocked() {
  const uint64_t commit = commits_.load(std::memory_order_relaxed) + 1;
  table_wide_commit_.store(commit, std::memory_order_release);
  commits_.store(commit, std::memory_order_release);
}

void Table::CreateIndex(const std::string& path) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (indexes_.count(path) > 0) return;
  if (slot_commits_ == nullptr) {
    slot_commits_ = std::make_unique<std::atomic<uint64_t>[]>(kStampSlots);
  }
  SecondaryIndex& index = indexes_[path];
  index.path_hash = Hash64(path);
  std::vector<const Value*> keys;
  for (const Entry& entry : docs_) {
    if (entry.second.deleted) continue;
    keys.clear();
    IndexKeysFor(entry.second.body, path, &keys);
    AddToIndexLocked(&entry, keys, &index);
  }
  CommitDdlLocked();
}

void Table::DropIndex(const std::string& path) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (indexes_.erase(path) > 0) CommitDdlLocked();
}

bool Table::IsCurrent(const ResultStamp& stamp) const {
  if (stamp.slots.empty()) return commit_count() == stamp.commit;
  if (table_wide_commit_.load(std::memory_order_acquire) > stamp.commit) {
    return false;
  }
  for (size_t i = 0; i < stamp.slots.count; ++i) {
    if (slot_commits_[stamp.slots.ids[i]].load(std::memory_order_acquire) >
        stamp.commit) {
      return false;
    }
  }
  return true;
}

bool Table::HasIndex(const std::string& path) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return indexes_.count(path) > 0;
}

uint64_t Table::index_lookups() const {
  return eq_lookups_.load(std::memory_order_relaxed) +
         range_scans_.load(std::memory_order_relaxed) +
         order_scans_.load(std::memory_order_relaxed);
}

uint64_t Table::full_scans() const {
  return full_scans_.load(std::memory_order_relaxed);
}

TableIndexStats Table::index_stats() const {
  TableIndexStats s;
  s.eq_lookups = eq_lookups_.load(std::memory_order_relaxed);
  s.range_scans = range_scans_.load(std::memory_order_relaxed);
  s.order_scans = order_scans_.load(std::memory_order_relaxed);
  s.full_scans = full_scans_.load(std::memory_order_relaxed);
  return s;
}

Result<Document> Table::Insert(const std::string& id, Value body, Micros now) {
  if (!body.is_object()) {
    return Status::InvalidArgument("document body must be an object");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = docs_.find(id);
  if (it != docs_.end() && !it->second.deleted) {
    return Status::AlreadyExists(name_ + "/" + id);
  }
  return PutLocked(it, id, std::move(body), now);
}

Result<Document> Table::Upsert(const std::string& id, Value body, Micros now) {
  if (!body.is_object()) {
    return Status::InvalidArgument("document body must be an object");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  return PutLocked(docs_.find(id), id, std::move(body), now);
}

Document Table::ToDocument(const Entry& entry) const {
  const StoredDoc& doc = entry.second;
  return Document{name_, entry.first, doc.version, doc.write_time,
                  doc.deleted, doc.body};
}

Document Table::PutLocked(DocMap::iterator it, const std::string& id,
                          Value body, Micros now) {
  if (it == docs_.end()) it = docs_.try_emplace(id).first;
  StoredDoc& doc = it->second;
  const bool was_live = !doc.deleted;
  const Value before = std::exchange(doc.body, std::move(body));
  doc.version++;
  doc.write_time = now;
  doc.deleted = false;
  CommitWriteLocked(*it, was_live ? &before : nullptr, &doc.body);
  return ToDocument(*it);
}

Result<Document> Table::Apply(const std::string& id, const Update& update,
                              Micros now) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = docs_.find(id);
  if (it == docs_.end() || it->second.deleted) {
    return Status::NotFound(name_ + "/" + id);
  }
  StoredDoc& doc = it->second;
  // The commit's one copy of the body; the before-image moves out.
  QUAESTOR_ASSIGN_OR_RETURN(Value after, update.Applied(doc.body));
  const Value before = std::exchange(doc.body, std::move(after));
  doc.version++;
  doc.write_time = now;
  CommitWriteLocked(*it, &before, &doc.body);
  return ToDocument(*it);
}

Result<Document> Table::Delete(const std::string& id, Micros now) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = docs_.find(id);
  if (it == docs_.end() || it->second.deleted) {
    return Status::NotFound(name_ + "/" + id);
  }
  StoredDoc& doc = it->second;
  CommitWriteLocked(*it, &doc.body, nullptr);
  doc.version++;
  doc.write_time = now;
  doc.deleted = true;
  return ToDocument(*it);
}

Result<Document> Table::Get(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = docs_.find(id);
  if (it == docs_.end() || it->second.deleted) {
    return Status::NotFound(name_ + "/" + id);
  }
  return ToDocument(*it);
}

Result<DocumentVersion> Table::GetVersion(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = docs_.find(id);
  if (it == docs_.end() || it->second.deleted) {
    return Status::NotFound(name_ + "/" + id);
  }
  return DocumentVersion{it->second.version, it->second.write_time};
}

void Table::ExecuteEqLocked(const Query& query, const Predicate& conjunct,
                            std::vector<const Entry*>* out,
                            StampSlots* slots) const {
  const SecondaryIndex& index = indexes_.at(conjunct.path);
  // The looked-up keys: the operand, or each element of a $in.
  const bool in = conjunct.op == CompareOp::kIn;
  const Value* keys = in ? conjunct.operand.as_array().data()
                         : &conjunct.operand;
  const size_t num_keys = in ? conjunct.operand.as_array().size() : 1;
  if (slots != nullptr && num_keys <= StampSlots::kMax) {
    for (size_t i = 0; i < num_keys; ++i) {
      const int slot = SlotOf(index.path_hash, keys[i]);
      if (slot < 0) {
        *slots = StampSlots();
        break;
      }
      const auto end = slots->ids.begin() + slots->count;
      if (std::find(slots->ids.begin(), end, slot) == end) {
        slots->ids[slots->count++] = static_cast<uint16_t>(slot);
      }
    }
  }
  // A $in is the union of the element buckets; a multikey doc can sit in
  // several, so dedup. Buckets hold live entries only.
  std::unordered_set<const Entry*> seen;
  for (size_t i = 0; i < num_keys; ++i) {
    auto bucket = index.buckets.find(keys[i]);
    if (bucket == index.buckets.end()) continue;
    for (const Entry* entry : bucket->second) {
      if (in && !seen.insert(entry).second) continue;
      if (query.Matches(entry->second.body)) out->push_back(entry);
    }
  }
}

void Table::ExecuteRangeLocked(const Query& query, const std::string& path,
                               const Value* lo, bool lo_incl, const Value* hi,
                               bool hi_incl,
                               std::vector<const Entry*>* out) const {
  const SecondaryIndex& index = indexes_.at(path);
  const int cls = RangeClassOf(lo != nullptr ? *lo : *hi);
  const Value class_min = RangeClassMin(cls);
  auto it = lo == nullptr
                ? index.buckets.lower_bound(class_min)
                : (lo_incl ? index.buckets.lower_bound(*lo)
                           : index.buckets.upper_bound(*lo));
  for (; it != index.buckets.end(); ++it) {
    const int key_cls = RangeClassOf(it->first);
    if (key_cls != cls) break;  // left the class bracket — keys are sorted
    if (hi != nullptr) {
      const int c = Value::Compare(it->first, *hi);
      if (c > 0 || (c == 0 && !hi_incl)) break;
    }
    for (const Entry* entry : it->second) {
      if (query.Matches(entry->second.body)) out->push_back(entry);
    }
  }
  // Multikey docs can land in the scanned window via several array
  // elements; dedup keeps windowing exact.
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

bool Table::ExecuteTopKLocked(const Query& query,
                              std::vector<const Entry*>* out) const {
  if (query.order_by().size() != 1 || query.limit() < 0) return false;
  auto idx = indexes_.find(query.order_by()[0].path);
  if (idx == indexes_.end()) return false;
  const SecondaryIndex& index = idx->second;
  // Multikey docs appear at several index positions; absent docs sort as
  // null but are invisible to the index. Either breaks in-order traversal.
  if (index.multikey_docs > 0 || index.absent_docs > 0) return false;

  const size_t skip =
      static_cast<size_t>(std::max<int64_t>(0, query.offset()));
  const size_t want = static_cast<size_t>(query.limit());
  if (want == 0) return true;  // LIMIT 0 → empty result, nothing to scan
  size_t skipped = 0;
  std::vector<const Entry*> sorted;
  auto emit_bucket = [&](const std::unordered_set<const Entry*>& bucket) {
    // Within one bucket the sort key compares equal → tie-break by id asc.
    sorted.assign(bucket.begin(), bucket.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry* a, const Entry* b) {
                return a->first < b->first;
              });
    for (const Entry* entry : sorted) {
      if (!query.Matches(entry->second.body)) continue;
      if (skipped < skip) {
        skipped++;
        continue;
      }
      out->push_back(entry);
      if (out->size() >= want) return true;  // early termination
    }
    return false;
  };
  if (query.order_by()[0].ascending) {
    for (auto it = index.buckets.begin(); it != index.buckets.end(); ++it) {
      if (emit_bucket(it->second)) break;
    }
  } else {
    for (auto it = index.buckets.rbegin(); it != index.buckets.rend(); ++it) {
      if (emit_bucket(it->second)) break;
    }
  }
  return true;
}

std::vector<Document> Table::Execute(const Query& query,
                                     ResultStamp* stamp) const {
  std::vector<Document> out;
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (stamp != nullptr) {
    *stamp = ResultStamp();
    stamp->commit = commits_.load(std::memory_order_relaxed);
  }
  std::vector<const Entry*> matches;

  // Plan selection over the top-level conjuncts.
  std::vector<const Predicate*> conjuncts;
  TopLevelConjuncts(query.filter(), &conjuncts);

  // (1) Equality / $in bucket lookup. Equality with a null operand also
  // matches documents missing the field entirely, which the index cannot
  // see — those stay on the scan path.
  const Predicate* eq = nullptr;
  for (const Predicate* c : conjuncts) {
    if (indexes_.count(c->path) == 0) continue;
    if (c->op == CompareOp::kEq && !c->operand.is_null()) {
      eq = c;
      break;
    }
    if (c->op == CompareOp::kIn && c->operand.is_array() &&
        !c->operand.as_array().empty()) {
      bool all_non_null = true;
      for (const Value& e : c->operand.as_array()) {
        if (e.is_null()) {
          all_non_null = false;
          break;
        }
      }
      if (all_non_null) {
        eq = c;
        break;
      }
    }
  }

  bool windowed_in_order = false;
  if (eq != nullptr) {
    eq_lookups_.fetch_add(1, std::memory_order_relaxed);
    ExecuteEqLocked(query, *eq, &matches,
                    stamp != nullptr ? &stamp->slots : nullptr);
  } else {
    // (2) Range / prefix scan: intersect all comparable bounds on the
    // first indexed path carrying one.
    const std::string* range_path = nullptr;
    const Value* lo = nullptr;
    const Value* hi = nullptr;
    Value prefix_hi;
    bool lo_incl = false, hi_incl = false, prefix_unbounded = false;
    int cls = -1;
    for (const Predicate* c : conjuncts) {
      const bool range = IsRangeOp(c->op) && RangeClassOf(c->operand) >= 0;
      const bool prefix = c->op == CompareOp::kPrefix && c->operand.is_string();
      if (!range && !prefix) continue;
      if (indexes_.count(c->path) == 0) continue;
      if (range_path == nullptr) {
        range_path = &c->path;
        cls = prefix ? 2 : RangeClassOf(c->operand);
      } else if (*range_path != c->path) {
        continue;  // one path per scan; other conjuncts verify candidates
      }
      if (prefix ? cls != 2 : RangeClassOf(c->operand) != cls) {
        continue;  // cross-class bound can't tighten this scan
      }
      auto tighten_lo = [&](const Value* v, bool incl) {
        const int c2 = lo == nullptr ? 1 : Value::Compare(*v, *lo);
        if (c2 > 0 || (c2 == 0 && !incl)) {
          lo = v;
          lo_incl = incl;
        }
      };
      auto tighten_hi = [&](const Value* v, bool incl) {
        const int c2 = hi == nullptr ? -1 : Value::Compare(*v, *hi);
        if (c2 < 0 || (c2 == 0 && !incl)) {
          hi = v;
          hi_incl = incl;
        }
      };
      switch (c->op) {
        case CompareOp::kGt:
          tighten_lo(&c->operand, false);
          break;
        case CompareOp::kGte:
          tighten_lo(&c->operand, true);
          break;
        case CompareOp::kLt:
          tighten_hi(&c->operand, false);
          break;
        case CompareOp::kLte:
          tighten_hi(&c->operand, true);
          break;
        case CompareOp::kPrefix: {
          tighten_lo(&c->operand, true);
          std::string upper;
          if (!prefix_unbounded &&
              PrefixUpperBound(c->operand.as_string(), &upper)) {
            prefix_hi = Value(std::move(upper));
            tighten_hi(&prefix_hi, false);
          } else {
            prefix_unbounded = true;
          }
          break;
        }
        default:
          break;
      }
    }
    if (range_path != nullptr && (lo != nullptr || hi != nullptr)) {
      range_scans_.fetch_add(1, std::memory_order_relaxed);
      ExecuteRangeLocked(query, *range_path, lo, lo_incl, hi, hi_incl,
                         &matches);
    } else if (ExecuteTopKLocked(query, &matches)) {
      // (3) ORDER BY + LIMIT top-k with early termination: `matches` is
      // already the final window in final order.
      order_scans_.fetch_add(1, std::memory_order_relaxed);
      windowed_in_order = true;
    } else {
      // (4) Full predicate scan.
      full_scans_.fetch_add(1, std::memory_order_relaxed);
      for (const Entry& entry : docs_) {
        if (entry.second.deleted) continue;
        if (query.Matches(entry.second.body)) matches.push_back(&entry);
      }
    }
  }

  if (!windowed_in_order) {
    if (!query.order_by().empty()) {
      std::sort(matches.begin(), matches.end(),
                [&query](const Entry* a, const Entry* b) {
                  return query.OrderedBefore(a->second.body, a->first,
                                             b->second.body, b->first);
                });
    } else {
      // Deterministic order even without ORDER BY (scan order of a hash
      // map is arbitrary; id order keeps results and result-based cache
      // entries stable).
      std::sort(matches.begin(), matches.end(),
                [](const Entry* a, const Entry* b) {
                  return a->first < b->first;
                });
    }
    // OFFSET / LIMIT window over the pointers; only survivors are copied.
    const size_t offset =
        static_cast<size_t>(std::max<int64_t>(0, query.offset()));
    if (offset >= matches.size()) return {};
    size_t end = matches.size();
    if (query.limit() >= 0) {
      end = std::min(end, offset + static_cast<size_t>(query.limit()));
    }
    matches.erase(matches.begin() + end, matches.end());
    matches.erase(matches.begin(), matches.begin() + offset);
  }

  out.reserve(matches.size());
  for (const Entry* entry : matches) out.push_back(ToDocument(*entry));
  return out;
}

size_t Table::LiveCount() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [id, doc] : docs_) {
    if (!doc.deleted) ++n;
  }
  return n;
}

std::vector<std::string> Table::LiveIds() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(docs_.size());
  for (const auto& [id, doc] : docs_) {
    if (!doc.deleted) ids.push_back(id);
  }
  return ids;
}

}  // namespace quaestor::db
