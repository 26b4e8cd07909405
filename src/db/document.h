#ifndef QUAESTOR_DB_DOCUMENT_H_
#define QUAESTOR_DB_DOCUMENT_H_

#include <cstdint>
#include <string>

#include "common/clock.h"
#include "db/value.h"

namespace quaestor::db {

/// A versioned record in a table. `body` is always an object value.
/// `version` increases monotonically per key and acts as the HTTP ETag in
/// the web-caching layers. `write_time` is the commit time of the version
/// (used by the staleness detector and the TTL estimator).
struct Document {
  std::string table;
  std::string id;
  uint64_t version = 0;
  Micros write_time = 0;
  bool deleted = false;
  Value body = Object{};

  /// Globally unique record key ("table/id"); also the record's cache key
  /// and its EBF key.
  std::string Key() const { return table + "/" + id; }

  /// Canonical serialized form (body JSON).
  std::string ToJson() const { return body.ToJson(); }
};

/// Appends the whole record as one canonical JSON object: the keys body,
/// deleted, id, table, version, write_time in the sorted order the
/// equivalent db::Object serializes in, so the bytes equal
/// `Value(Object{...}).ToJson()` without building the object (the InvaliDB
/// wire's document spec and the HTTP write response).
inline void AppendDocumentJson(std::string* out, const Document& doc) {
  *out += "{\"body\":";
  doc.body.AppendJson(out);
  *out += ",\"deleted\":";
  *out += doc.deleted ? "true" : "false";
  *out += ",\"id\":";
  AppendJsonEscaped(out, doc.id);
  *out += ",\"table\":";
  AppendJsonEscaped(out, doc.table);
  *out += ",\"version\":";
  *out += std::to_string(static_cast<int64_t>(doc.version));
  *out += ",\"write_time\":";
  *out += std::to_string(static_cast<int64_t>(doc.write_time));
  *out += '}';
}

/// What a point lookup reports without copying the document: the live
/// version (the record's ETag) and its commit time.
struct DocumentVersion {
  uint64_t version = 0;
  Micros write_time = 0;
};

/// Kinds of write operations flowing through the change stream.
enum class WriteKind { kInsert, kUpdate, kDelete };

/// A change-stream event: the write kind plus the full record after-image
/// (the paper's invalidation pipeline matches queries against
/// after-images). For deletes, `after.deleted` is true and `after.body`
/// holds the last pre-delete body.
struct ChangeEvent {
  WriteKind kind;
  Document after;
  Micros commit_time = 0;
};

}  // namespace quaestor::db

#endif  // QUAESTOR_DB_DOCUMENT_H_
