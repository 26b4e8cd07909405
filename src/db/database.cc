#include "db/database.h"

#include <mutex>

namespace quaestor::db {

Table* Database::GetOrCreateTable(const std::string& name) {
  // Fast path: the table already exists (every request after the first).
  {
    std::shared_lock<std::shared_mutex> lock(tables_mu_);
    auto it = tables_.find(name);
    if (it != tables_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(tables_mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    it = tables_.emplace(name, std::make_unique<Table>(name)).first;
  }
  return it->second.get();
}

Table* Database::FindTable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(tables_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Result<Document> Database::Insert(const std::string& table,
                                  const std::string& id, Value body) {
  auto res = GetOrCreateTable(table)->Insert(id, std::move(body),
                                             clock_->NowMicros());
  if (res.ok()) {
    inserts_.fetch_add(1, std::memory_order_relaxed);
    Notify(WriteKind::kInsert, res.value());
  }
  return res;
}

Result<Document> Database::Upsert(const std::string& table,
                                  const std::string& id, Value body) {
  auto res = GetOrCreateTable(table)->Upsert(id, std::move(body),
                                             clock_->NowMicros());
  if (res.ok()) {
    const bool was_insert = res.value().version == 1;
    (was_insert ? inserts_ : updates_)
        .fetch_add(1, std::memory_order_relaxed);
    Notify(was_insert ? WriteKind::kInsert : WriteKind::kUpdate, res.value());
  }
  return res;
}

Result<Document> Database::Apply(const std::string& table,
                                 const std::string& id, const Update& update) {
  Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound(table + "/" + id);
  auto res = t->Apply(id, update, clock_->NowMicros());
  if (res.ok()) {
    updates_.fetch_add(1, std::memory_order_relaxed);
    Notify(WriteKind::kUpdate, res.value());
  }
  return res;
}

Result<Document> Database::Delete(const std::string& table,
                                  const std::string& id) {
  Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound(table + "/" + id);
  auto res = t->Delete(id, clock_->NowMicros());
  if (res.ok()) {
    deletes_.fetch_add(1, std::memory_order_relaxed);
    Notify(WriteKind::kDelete, res.value());
  }
  return res;
}

Result<Document> Database::Get(const std::string& table,
                               const std::string& id) const {
  reads_.fetch_add(1, std::memory_order_relaxed);
  Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound(table + "/" + id);
  return t->Get(id);
}

Result<DocumentVersion> Database::GetVersion(const std::string& table,
                                             const std::string& id) const {
  reads_.fetch_add(1, std::memory_order_relaxed);
  Table* t = FindTable(table);
  if (t == nullptr) return Status::NotFound(table + "/" + id);
  return t->GetVersion(id);
}

std::vector<Document> Database::Execute(const Query& query,
                                        ResultStamp* stamp) const {
  queries_.fetch_add(1, std::memory_order_relaxed);
  Table* t = FindTable(query.table());
  if (t == nullptr) {
    if (stamp != nullptr) *stamp = ResultStamp();
    return {};
  }
  return t->Execute(query, stamp);
}

bool Database::IsCurrent(const std::string& table,
                         const ResultStamp& stamp) const {
  Table* t = FindTable(table);
  if (t == nullptr) return stamp.commit == 0 && stamp.slots.empty();
  return t->IsCurrent(stamp);
}

void Database::AddChangeListener(ChangeListener listener) {
  listeners_.push_back(std::move(listener));
}

void Database::Notify(WriteKind kind, const Document& after) {
  if (listeners_.empty()) return;
  ChangeEvent ev;
  ev.kind = kind;
  ev.after = after;
  ev.commit_time = after.write_time;
  for (const ChangeListener& l : listeners_) l(ev);
}

std::vector<std::string> Database::TableNames() const {
  std::shared_lock<std::shared_mutex> lock(tables_mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, t] : tables_) names.push_back(name);
  return names;
}

}  // namespace quaestor::db
