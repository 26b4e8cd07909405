#include "db/schema.h"

namespace quaestor::db {

std::string_view FieldTypeName(FieldType t) {
  switch (t) {
    case FieldType::kAny:
      return "any";
    case FieldType::kBool:
      return "bool";
    case FieldType::kInt:
      return "int";
    case FieldType::kDouble:
      return "double";
    case FieldType::kNumber:
      return "number";
    case FieldType::kString:
      return "string";
    case FieldType::kArray:
      return "array";
    case FieldType::kObject:
      return "object";
  }
  return "unknown";
}

bool ValueMatchesType(const Value& v, FieldType t) {
  switch (t) {
    case FieldType::kAny:
      return true;
    case FieldType::kBool:
      return v.is_bool();
    case FieldType::kInt:
      return v.is_int();
    case FieldType::kDouble:
      return v.is_double();
    case FieldType::kNumber:
      return v.is_number();
    case FieldType::kString:
      return v.is_string();
    case FieldType::kArray:
      return v.is_array();
    case FieldType::kObject:
      return v.is_object();
  }
  return false;
}

TableSchema& TableSchema::Field(std::string path, FieldType type,
                                bool required) {
  fields_[std::move(path)] = FieldSpec{type, required};
  return *this;
}

TableSchema& TableSchema::DisallowUnknownFields() {
  allow_unknown_ = false;
  return *this;
}

Status TableSchema::Validate(const Value& body) const {
  if (!body.is_object()) {
    return Status::InvalidArgument("document body must be an object");
  }
  for (const auto& [path, spec] : fields_) {
    const Value* v = body.Find(path);
    if (v == nullptr) {
      if (spec.required) {
        return Status::InvalidArgument("missing required field: " + path);
      }
      continue;
    }
    if (!ValueMatchesType(*v, spec.type)) {
      return Status::InvalidArgument(
          "field '" + path + "' must be " +
          std::string(FieldTypeName(spec.type)));
    }
  }
  if (!allow_unknown_) {
    for (const auto& [k, v] : body.as_object()) {
      const std::string_view key = k;
      // Unknown check applies to top-level names; declared dot-paths
      // implicitly declare their first segment.
      bool declared = false;
      for (const auto& [path, spec] : fields_) {
        if (path == key ||
            (path.size() > key.size() && path.compare(0, key.size(), key) == 0 &&
             path[key.size()] == '.')) {
          declared = true;
          break;
        }
      }
      if (!declared) {
        return Status::InvalidArgument("unknown field: " + std::string(key));
      }
    }
  }
  return Status::OK();
}

void SchemaRegistry::SetSchema(const std::string& table, TableSchema schema) {
  std::lock_guard<std::mutex> lock(mu_);
  schemas_[table] = std::move(schema);
}

void SchemaRegistry::RemoveSchema(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  schemas_.erase(table);
}

Status SchemaRegistry::Validate(const std::string& table,
                                const Value& body) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = schemas_.find(table);
  if (it == schemas_.end()) return Status::OK();
  return it->second.Validate(body);
}

bool SchemaRegistry::HasSchema(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  return schemas_.find(table) != schemas_.end();
}

}  // namespace quaestor::db
