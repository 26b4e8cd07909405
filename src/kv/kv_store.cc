#include "kv/kv_store.h"

#include <charconv>

namespace quaestor::kv {

KvStore::Entry* KvStore::FindLive(const std::string& key) {
  auto it = data_.find(key);
  if (it == data_.end()) return nullptr;
  if (IsExpiredLocked(it->second)) {
    data_.erase(it);
    return nullptr;
  }
  return &it->second;
}

const KvStore::Entry* KvStore::FindLive(const std::string& key) const {
  auto it = data_.find(key);
  if (it == data_.end()) return nullptr;
  if (IsExpiredLocked(it->second)) {
    data_.erase(it);
    return nullptr;
  }
  return &it->second;
}

void KvStore::Set(const std::string& key, std::string value,
                  Micros ttl_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = data_[key];
  e.value = std::move(value);
  e.is_hash = false;
  e.hash.clear();
  e.expire_at = ttl_micros < 0 ? -1 : clock_->NowMicros() + ttl_micros;
}

Result<std::string> KvStore::Get(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = FindLive(key);
  if (e == nullptr || e->is_hash) return Status::NotFound(key);
  return e->value;
}

bool KvStore::Del(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = FindLive(key);
  if (e == nullptr) return false;
  data_.erase(key);
  return true;
}

bool KvStore::Exists(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FindLive(key) != nullptr;
}

bool KvStore::Expire(const std::string& key, Micros ttl_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = FindLive(key);
  if (e == nullptr) return false;
  e->expire_at = ttl_micros < 0 ? -1 : clock_->NowMicros() + ttl_micros;
  return true;
}

std::optional<Micros> KvStore::Ttl(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = FindLive(key);
  if (e == nullptr) return std::nullopt;
  if (e->expire_at < 0) return -1;
  return e->expire_at - clock_->NowMicros();
}

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

Result<int64_t> KvStore::IncrBy(const std::string& key, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = FindLive(key);
  int64_t current = 0;
  Micros expire_at = -1;
  if (e != nullptr) {
    if (e->is_hash) return Status::InvalidArgument("key holds a hash");
    auto parsed = ParseInt(e->value);
    if (!parsed.ok()) return parsed.status();
    current = parsed.value();
    expire_at = e->expire_at;
  }
  current += delta;
  Entry& slot = data_[key];
  slot.value = std::to_string(current);
  slot.is_hash = false;
  slot.expire_at = expire_at;
  return current;
}

bool KvStore::HSet(const std::string& key, const std::string& field,
                   std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* live = FindLive(key);
  Entry& e = live != nullptr ? *live : data_[key];
  e.is_hash = true;
  auto [it, inserted] = e.hash.insert_or_assign(field, std::move(value));
  (void)it;
  return inserted;
}

Result<std::string> KvStore::HGet(const std::string& key,
                                  const std::string& field) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = FindLive(key);
  if (e == nullptr || !e->is_hash) return Status::NotFound(key);
  auto it = e->hash.find(field);
  if (it == e->hash.end()) return Status::NotFound(key + "." + field);
  return it->second;
}

bool KvStore::HDel(const std::string& key, const std::string& field) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = FindLive(key);
  if (e == nullptr || !e->is_hash) return false;
  const bool removed = e->hash.erase(field) > 0;
  if (e->hash.empty()) data_.erase(key);
  return removed;
}

std::map<std::string, std::string> KvStore::HGetAll(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = FindLive(key);
  if (e == nullptr || !e->is_hash) return {};
  return e->hash;
}

Result<int64_t> KvStore::HIncrBy(const std::string& key,
                                 const std::string& field, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* live = FindLive(key);
  Entry& e = live != nullptr ? *live : data_[key];
  e.is_hash = true;
  int64_t current = 0;
  auto it = e.hash.find(field);
  if (it != e.hash.end()) {
    auto parsed = ParseInt(it->second);
    if (!parsed.ok()) return parsed.status();
    current = parsed.value();
  }
  current += delta;
  e.hash[field] = std::to_string(current);
  return current;
}

uint64_t KvStore::Subscribe(const std::string& channel,
                            Subscriber subscriber) {
  std::lock_guard<std::mutex> lock(sub_mu_);
  const uint64_t id = next_sub_id_++;
  subs_[channel][id] = std::move(subscriber);
  sub_channels_[id] = channel;
  return id;
}

void KvStore::Unsubscribe(uint64_t subscription_id) {
  std::lock_guard<std::mutex> lock(sub_mu_);
  auto chan_it = sub_channels_.find(subscription_id);
  if (chan_it == sub_channels_.end()) return;
  auto subs_it = subs_.find(chan_it->second);
  if (subs_it != subs_.end()) {
    subs_it->second.erase(subscription_id);
    if (subs_it->second.empty()) subs_.erase(subs_it);
  }
  sub_channels_.erase(chan_it);
}

size_t KvStore::Publish(const std::string& channel,
                        const std::string& message) {
  std::vector<Subscriber> receivers;
  {
    std::lock_guard<std::mutex> lock(sub_mu_);
    auto it = subs_.find(channel);
    if (it != subs_.end()) {
      receivers.reserve(it->second.size());
      for (const auto& [id, sub] : it->second) receivers.push_back(sub);
    }
  }
  for (const Subscriber& sub : receivers) sub(channel, message);
  return receivers.size();
}

size_t KvStore::SweepExpired() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t removed = 0;
  for (auto it = data_.begin(); it != data_.end();) {
    if (IsExpiredLocked(it->second)) {
      it = data_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

size_t KvStore::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [key, e] : data_) {
    if (!IsExpiredLocked(e)) ++n;
  }
  return n;
}

void KvStore::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  data_.clear();
}

}  // namespace quaestor::kv
