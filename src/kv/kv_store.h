#ifndef QUAESTOR_KV_KV_STORE_H_
#define QUAESTOR_KV_KV_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"

namespace quaestor::kv {

/// An in-memory key-value store with Redis-like primitives: string values,
/// atomic counters, hash fields, per-key expiration and pub/sub channels.
/// Thread-safe. It hosts the distributed Expiring Bloom Filter variant
/// (ebf::SharedEbf), which the paper keeps in Redis (§3.3).
class KvStore {
 public:
  explicit KvStore(Clock* clock) : clock_(clock) {}

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  // -- Strings --

  /// SET key value [TTL]. ttl_micros < 0 means no expiration.
  void Set(const std::string& key, std::string value, Micros ttl_micros = -1);

  /// GET key. NotFound after expiry or if never set.
  Result<std::string> Get(const std::string& key) const;

  /// DEL key. Returns true if the key existed (and was live).
  bool Del(const std::string& key);

  /// EXISTS key.
  bool Exists(const std::string& key) const;

  /// EXPIRE key ttl. Returns false if the key does not exist.
  bool Expire(const std::string& key, Micros ttl_micros);

  /// TTL key: remaining lifetime in micros; nullopt if missing, -1 if the
  /// key has no expiration.
  std::optional<Micros> Ttl(const std::string& key) const;

  // -- Counters --

  /// INCRBY key delta. Missing keys start at 0. Fails on non-numeric
  /// values. Returns the new value.
  Result<int64_t> IncrBy(const std::string& key, int64_t delta);

  // -- Hashes --

  /// HSET key field value. Returns true if the field is new.
  bool HSet(const std::string& key, const std::string& field,
            std::string value);

  /// HGET key field.
  Result<std::string> HGet(const std::string& key,
                           const std::string& field) const;

  /// HDEL key field. Returns true if removed.
  bool HDel(const std::string& key, const std::string& field);

  /// HGETALL key (empty map if missing).
  std::map<std::string, std::string> HGetAll(const std::string& key) const;

  /// HINCRBY key field delta.
  Result<int64_t> HIncrBy(const std::string& key, const std::string& field,
                          int64_t delta);

  // -- Pub/Sub --

  using Subscriber = std::function<void(const std::string& channel,
                                        const std::string& message)>;

  /// SUBSCRIBE channel. Returns a subscription id for Unsubscribe.
  uint64_t Subscribe(const std::string& channel, Subscriber subscriber);

  void Unsubscribe(uint64_t subscription_id);

  /// PUBLISH channel message. Subscribers are invoked synchronously.
  /// Returns the number of receivers.
  size_t Publish(const std::string& channel, const std::string& message);

  // -- Maintenance --

  /// Drops all expired entries; returns how many were removed. (Reads also
  /// treat expired entries as missing lazily.)
  size_t SweepExpired();

  /// Number of live string/hash keys.
  size_t Size() const;

  /// Removes everything.
  void FlushAll();

 private:
  struct Entry {
    std::string value;
    std::map<std::string, std::string> hash;
    bool is_hash = false;
    Micros expire_at = -1;  // -1 = never
  };

  bool IsExpiredLocked(const Entry& e) const {
    return e.expire_at >= 0 && clock_->NowMicros() >= e.expire_at;
  }

  /// Returns the live entry or nullptr (lazily deleting expired entries).
  Entry* FindLive(const std::string& key);
  const Entry* FindLive(const std::string& key) const;

  Clock* clock_;
  mutable std::mutex mu_;
  mutable std::unordered_map<std::string, Entry> data_;

  mutable std::mutex sub_mu_;
  uint64_t next_sub_id_ = 1;
  // channel -> (id -> subscriber)
  std::unordered_map<std::string, std::map<uint64_t, Subscriber>> subs_;
  std::unordered_map<uint64_t, std::string> sub_channels_;
};

}  // namespace quaestor::kv

#endif  // QUAESTOR_KV_KV_STORE_H_
