#include "kv/kv_store.h"

#include <charconv>

namespace quaestor::kv {

namespace {
Result<int64_t> ParseInt(const std::string& s) {
  int64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size()) {
    return Status::InvalidArgument("value is not an integer: " + s);
  }
  return v;
}
}  // namespace

bool KvStore::Del(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  return data_.erase(key) > 0;
}

bool KvStore::HSet(const std::string& key, const std::string& field,
                   std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  return data_[key].insert_or_assign(field, std::move(value)).second;
}

Result<std::string> KvStore::HGet(const std::string& key,
                                  const std::string& field) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto hash = data_.find(key);
  if (hash == data_.end()) return Status::NotFound(key);
  auto it = hash->second.find(field);
  if (it == hash->second.end()) return Status::NotFound(key + "." + field);
  return it->second;
}

bool KvStore::HDel(const std::string& key, const std::string& field) {
  std::lock_guard<std::mutex> lock(mu_);
  auto hash = data_.find(key);
  if (hash == data_.end()) return false;
  const bool removed = hash->second.erase(field) > 0;
  if (hash->second.empty()) data_.erase(hash);
  return removed;
}

std::map<std::string, std::string> KvStore::HGetAll(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto hash = data_.find(key);
  if (hash == data_.end()) return {};
  return hash->second;
}

Result<int64_t> KvStore::HIncrBy(const std::string& key,
                                 const std::string& field, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  Hash& hash = data_[key];
  int64_t current = 0;
  auto it = hash.find(field);
  if (it != hash.end()) {
    auto parsed = ParseInt(it->second);
    if (!parsed.ok()) return parsed.status();
    current = parsed.value();
  }
  current += delta;
  hash[field] = std::to_string(current);
  return current;
}

}  // namespace quaestor::kv
