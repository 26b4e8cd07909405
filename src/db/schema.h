#ifndef QUAESTOR_DB_SCHEMA_H_
#define QUAESTOR_DB_SCHEMA_H_

#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "db/value.h"

namespace quaestor::db {

/// Field types a schema can require. kNumber accepts int and double.
enum class FieldType {
  kAny,
  kBool,
  kInt,
  kDouble,
  kNumber,
  kString,
  kArray,
  kObject,
};

std::string_view FieldTypeName(FieldType t);

/// Returns true if `v` conforms to `t`.
bool ValueMatchesType(const Value& v, FieldType t);

/// Constraints on one (dot-path addressable) field.
struct FieldSpec {
  FieldType type = FieldType::kAny;
  bool required = false;
};

/// Schema of one table (§2: Quaestor "provides DBaaS functionality such
/// as query processing, authorization, and schema management"). Validates
/// document bodies on insert and on the post-image of updates.
class TableSchema {
 public:
  TableSchema() = default;

  /// Declares a field. Paths are dot-paths into the document.
  TableSchema& Field(std::string path, FieldType type, bool required = false);

  /// Reject documents carrying top-level fields not declared here.
  TableSchema& DisallowUnknownFields();

  /// Validates a full document body.
  Status Validate(const Value& body) const;

 private:
  std::map<std::string, FieldSpec> fields_;
  bool allow_unknown_ = true;
};

/// Table name → schema. Tables without a schema accept anything.
/// Thread-safe.
class SchemaRegistry {
 public:
  /// Installs (or replaces) a table's schema.
  void SetSchema(const std::string& table, TableSchema schema);

  /// Removes a table's schema.
  void RemoveSchema(const std::string& table);

  /// Validates a body against the table's schema (OK if none).
  Status Validate(const std::string& table, const Value& body) const;

  bool HasSchema(const std::string& table) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, TableSchema> schemas_;
};

}  // namespace quaestor::db

#endif  // QUAESTOR_DB_SCHEMA_H_
