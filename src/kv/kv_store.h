#ifndef QUAESTOR_KV_KV_STORE_H_
#define QUAESTOR_KV_KV_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result.h"

namespace quaestor::kv {

/// An in-memory key-value store of Redis-like hashes: string fields under
/// a key, with atomic field counters. Thread-safe. It hosts the
/// distributed Expiring Bloom Filter variant (ebf::SharedEbf), which the
/// paper keeps in Redis (§3.3).
class KvStore {
 public:
  KvStore() = default;

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// DEL key. Returns true if the key existed.
  bool Del(const std::string& key);

  /// HSET key field value. Returns true if the field is new.
  bool HSet(const std::string& key, const std::string& field,
            std::string value);

  /// HGET key field.
  Result<std::string> HGet(const std::string& key,
                           const std::string& field) const;

  /// HDEL key field. Returns true if removed; the key goes with its last
  /// field.
  bool HDel(const std::string& key, const std::string& field);

  /// HGETALL key (empty map if missing).
  std::map<std::string, std::string> HGetAll(const std::string& key) const;

  /// HINCRBY key field delta. A missing field starts at 0; a non-numeric
  /// one fails. Returns the new value.
  Result<int64_t> HIncrBy(const std::string& key, const std::string& field,
                          int64_t delta);

 private:
  using Hash = std::map<std::string, std::string>;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Hash> data_;
};

}  // namespace quaestor::kv

#endif  // QUAESTOR_KV_KV_STORE_H_
