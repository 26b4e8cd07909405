#include "db/query.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace quaestor::db {

std::string_view CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "$eq";
    case CompareOp::kNe:
      return "$ne";
    case CompareOp::kGt:
      return "$gt";
    case CompareOp::kGte:
      return "$gte";
    case CompareOp::kLt:
      return "$lt";
    case CompareOp::kLte:
      return "$lte";
    case CompareOp::kIn:
      return "$in";
    case CompareOp::kNin:
      return "$nin";
    case CompareOp::kContains:
      return "$contains";
    case CompareOp::kExists:
      return "$exists";
    case CompareOp::kPrefix:
      return "$prefix";
  }
  return "$unknown";
}

bool IsRangeOp(CompareOp op) {
  return op == CompareOp::kGt || op == CompareOp::kGte ||
         op == CompareOp::kLt || op == CompareOp::kLte;
}

int RangeClassOf(const Value& v) {
  if (v.is_bool()) return 0;
  if (v.is_number()) return 1;
  if (v.is_string()) return 2;
  return -1;
}

Value RangeClassMin(int cls) {
  switch (cls) {
    case 0:
      return Value(false);
    case 1:
      return Value(-std::numeric_limits<double>::infinity());
    default:
      return Value(std::string());
  }
}

bool PrefixUpperBound(const std::string& prefix, std::string* out) {
  *out = prefix;
  while (!out->empty()) {
    if (static_cast<unsigned char>(out->back()) != 0xff) {
      out->back() = static_cast<char>(out->back() + 1);
      return true;
    }
    out->pop_back();
  }
  return false;
}

void TopLevelConjuncts(const Predicate& p,
                       std::vector<const Predicate*>* out) {
  if (p.kind == Predicate::Kind::kCompare) {
    out->push_back(&p);
  } else if (p.kind == Predicate::Kind::kAnd) {
    for (const Predicate& c : p.children) {
      if (c.kind == Predicate::Kind::kCompare) out->push_back(&c);
    }
  }
}

Predicate Predicate::Compare(std::string path, CompareOp op, Value operand) {
  Predicate p;
  p.kind = Kind::kCompare;
  p.path = std::move(path);
  p.op = op;
  p.operand = std::move(operand);
  return p;
}

Predicate Predicate::True() { return Predicate{}; }

Predicate Predicate::And(std::vector<Predicate> children) {
  if (children.size() == 1) return std::move(children[0]);
  Predicate p;
  p.kind = Kind::kAnd;
  p.children = std::move(children);
  return p;
}

Predicate Predicate::Or(std::vector<Predicate> children) {
  if (children.size() == 1) return std::move(children[0]);
  Predicate p;
  p.kind = Kind::kOr;
  p.children = std::move(children);
  return p;
}

Predicate Predicate::Not(Predicate child) {
  Predicate p;
  p.kind = Kind::kNot;
  p.children.push_back(std::move(child));
  return p;
}

namespace {

bool CompareLeaf(const Value* field, CompareOp op, const Value& operand) {
  switch (op) {
    case CompareOp::kEq: {
      if (field == nullptr) return operand.is_null();
      if (*field == operand) return true;
      // MongoDB array semantics: {tags: "x"} matches docs whose tags array
      // contains "x".
      if (field->is_array() && !operand.is_array()) {
        for (const Value& e : field->as_array()) {
          if (e == operand) return true;
        }
      }
      return false;
    }
    case CompareOp::kNe:
      return !CompareLeaf(field, CompareOp::kEq, operand);
    case CompareOp::kGt:
    case CompareOp::kGte:
    case CompareOp::kLt:
    case CompareOp::kLte: {
      if (field == nullptr) return false;
      // Comparisons only between same type classes (numbers with numbers,
      // strings with strings) — MongoDB's behaviour for mixed types is
      // type-bracketing; we return false for cross-type comparisons.
      const bool numeric = field->is_number() && operand.is_number();
      const bool stringy = field->is_string() && operand.is_string();
      const bool booly = field->is_bool() && operand.is_bool();
      if (!numeric && !stringy && !booly) return false;
      const int c = Value::Compare(*field, operand);
      switch (op) {
        case CompareOp::kGt:
          return c > 0;
        case CompareOp::kGte:
          return c >= 0;
        case CompareOp::kLt:
          return c < 0;
        default:
          return c <= 0;
      }
    }
    case CompareOp::kIn: {
      if (!operand.is_array()) return false;
      for (const Value& e : operand.as_array()) {
        if (CompareLeaf(field, CompareOp::kEq, e)) return true;
      }
      return false;
    }
    case CompareOp::kNin:
      return !CompareLeaf(field, CompareOp::kIn, operand);
    case CompareOp::kContains: {
      if (field == nullptr || !field->is_array()) return false;
      for (const Value& e : field->as_array()) {
        if (e == operand) return true;
      }
      return false;
    }
    case CompareOp::kExists: {
      const bool want = operand.is_bool() ? operand.as_bool() : true;
      return (field != nullptr) == want;
    }
    case CompareOp::kPrefix: {
      if (field == nullptr || !field->is_string() || !operand.is_string()) {
        return false;
      }
      return field->as_string().rfind(operand.as_string(), 0) == 0;
    }
  }
  return false;
}

}  // namespace

bool Predicate::Matches(const Value& doc) const {
  switch (kind) {
    case Kind::kTrue:
      return true;
    case Kind::kCompare:
      return CompareLeaf(doc.Find(path), op, operand);
    case Kind::kAnd:
      for (const Predicate& c : children) {
        if (!c.Matches(doc)) return false;
      }
      return true;
    case Kind::kOr:
      for (const Predicate& c : children) {
        if (c.Matches(doc)) return true;
      }
      return false;
    case Kind::kNot:
      assert(children.size() == 1);
      return !children[0].Matches(doc);
  }
  return false;
}

std::string Predicate::Normalize() const {
  switch (kind) {
    case Kind::kTrue:
      return "true";
    case Kind::kCompare: {
      std::string out = path;
      out += ' ';
      out += CompareOpName(op);
      out += ' ';
      out += operand.ToJson();
      return out;
    }
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<std::string> parts;
      parts.reserve(children.size());
      for (const Predicate& c : children) parts.push_back(c.Normalize());
      std::sort(parts.begin(), parts.end());
      std::string out = kind == Kind::kAnd ? "and(" : "or(";
      for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) out += ',';
        out += parts[i];
      }
      out += ')';
      return out;
    }
    case Kind::kNot:
      return "not(" + children[0].Normalize() + ")";
  }
  return "";
}

Value Predicate::ToSpec() const {
  switch (kind) {
    case Kind::kTrue:
      return Value(Object{});
    case Kind::kCompare: {
      Object op_obj;
      op_obj[std::string(CompareOpName(op))] = operand;
      Object root;
      root[path] = Value(std::move(op_obj));
      return Value(std::move(root));
    }
    case Kind::kAnd:
    case Kind::kOr: {
      Array children_spec;
      for (const Predicate& c : children) children_spec.push_back(c.ToSpec());
      Object root;
      root[kind == Kind::kAnd ? "$and" : "$or"] =
          Value(std::move(children_spec));
      return Value(std::move(root));
    }
    case Kind::kNot: {
      Object root;
      root["$not"] = children[0].ToSpec();
      return Value(std::move(root));
    }
  }
  return Value(Object{});
}

Value Query::ToSpec() const {
  Object root;
  root["table"] = Value(table_);
  root["filter"] = filter_.ToSpec();
  if (!order_by_.empty()) {
    Array sort;
    for (const SortKey& k : order_by_) {
      Object key;
      key["path"] = Value(k.path);
      key["asc"] = Value(k.ascending);
      sort.push_back(Value(std::move(key)));
    }
    root["sort"] = Value(std::move(sort));
  }
  if (limit_ >= 0) root["limit"] = Value(limit_);
  if (offset_ > 0) root["offset"] = Value(offset_);
  return Value(std::move(root));
}

Result<Query> Query::FromSpec(const Value& spec) {
  if (!spec.is_object()) {
    return Status::InvalidArgument("query spec must be an object");
  }
  const Value* table = spec.Find("table");
  const Value* filter = spec.Find("filter");
  if (table == nullptr || !table->is_string() || filter == nullptr) {
    return Status::InvalidArgument("query spec missing table/filter");
  }
  auto q = Parse(table->as_string(), *filter);
  if (!q.ok()) return q;
  if (const Value* sort = spec.Find("sort"); sort != nullptr) {
    if (!sort->is_array()) {
      return Status::InvalidArgument("query spec sort must be an array");
    }
    std::vector<SortKey> keys;
    for (const Value& k : sort->as_array()) {
      const Value* path = k.Find("path");
      const Value* asc = k.Find("asc");
      if (path == nullptr || !path->is_string()) {
        return Status::InvalidArgument("sort key missing path");
      }
      keys.push_back(
          SortKey{path->as_string(),
                  asc == nullptr || !asc->is_bool() || asc->as_bool()});
    }
    q->SetOrderBy(std::move(keys));
  }
  if (const Value* limit = spec.Find("limit");
      limit != nullptr && limit->is_int()) {
    q->SetLimit(limit->as_int());
  }
  if (const Value* offset = spec.Find("offset");
      offset != nullptr && offset->is_int()) {
    q->SetOffset(offset->as_int());
  }
  return q;
}

std::string Query::NormalizedKey() const {
  std::string out = "q:";
  out += table_;
  out += '?';
  out += filter_.Normalize();
  if (!order_by_.empty()) {
    out += "&sort=";
    for (size_t i = 0; i < order_by_.size(); ++i) {
      if (i > 0) out += ',';
      out += order_by_[i].path;
      out += order_by_[i].ascending ? ":asc" : ":desc";
    }
  }
  if (limit_ >= 0) {
    out += "&limit=";
    out += std::to_string(limit_);
  }
  if (offset_ > 0) {
    out += "&offset=";
    out += std::to_string(offset_);
  }
  return out;
}

bool Query::OrderedBefore(const Value& a, std::string_view a_id,
                          const Value& b, std::string_view b_id) const {
  static const Value kNull = nullptr;
  for (const SortKey& key : order_by_) {
    const Value* va = a.Find(key.path);
    const Value* vb = b.Find(key.path);
    const int c =
        Value::Compare(va ? *va : kNull, vb ? *vb : kNull);
    if (c != 0) return key.ascending ? c < 0 : c > 0;
  }
  return a_id < b_id;
}

namespace {

Result<CompareOp> OpFromName(std::string_view name) {
  if (name == "$eq") return CompareOp::kEq;
  if (name == "$ne") return CompareOp::kNe;
  if (name == "$gt") return CompareOp::kGt;
  if (name == "$gte") return CompareOp::kGte;
  if (name == "$lt") return CompareOp::kLt;
  if (name == "$lte") return CompareOp::kLte;
  if (name == "$in") return CompareOp::kIn;
  if (name == "$nin") return CompareOp::kNin;
  if (name == "$contains") return CompareOp::kContains;
  if (name == "$exists") return CompareOp::kExists;
  if (name == "$prefix") return CompareOp::kPrefix;
  return Status::InvalidArgument("unknown operator: " + std::string(name));
}

Result<Predicate> ParsePredicate(const Value& spec);

Result<Predicate> ParseLogicalArray(const Value& arr, bool is_and) {
  if (!arr.is_array() || arr.as_array().empty()) {
    return Status::InvalidArgument("$and/$or requires a non-empty array");
  }
  std::vector<Predicate> children;
  for (const Value& e : arr.as_array()) {
    auto child = ParsePredicate(e);
    if (!child.ok()) return child;
    children.push_back(std::move(child).value());
  }
  return is_and ? Predicate::And(std::move(children))
                : Predicate::Or(std::move(children));
}

Result<Predicate> ParsePredicate(const Value& spec) {
  if (!spec.is_object()) {
    return Status::InvalidArgument("filter must be an object");
  }
  std::vector<Predicate> clauses;
  for (const auto& [k, val] : spec.as_object()) {
    const std::string_view key = k;
    if (key == "$and" || key == "$or") {
      auto p = ParseLogicalArray(val, key == "$and");
      if (!p.ok()) return p;
      clauses.push_back(std::move(p).value());
    } else if (key == "$not") {
      auto p = ParsePredicate(val);
      if (!p.ok()) return p;
      clauses.push_back(Predicate::Not(std::move(p).value()));
    } else if (!key.empty() && key[0] == '$') {
      return Status::InvalidArgument("unknown top-level operator: " +
                                     std::string(key));
    } else if (val.is_object() && !val.as_object().empty() &&
               val.as_object().begin()->first.view().starts_with("$")) {
      // Operator object: {"age": {"$gte": 21, "$lt": 65}}
      for (const auto& [opname, operand] : val.as_object()) {
        auto op = OpFromName(opname);
        if (!op.ok()) return op.status();
        clauses.push_back(
            Predicate::Compare(std::string(key), op.value(), operand));
      }
    } else {
      // Bare literal: equality.
      clauses.push_back(
          Predicate::Compare(std::string(key), CompareOp::kEq, val));
    }
  }
  if (clauses.empty()) return Predicate::True();
  return Predicate::And(std::move(clauses));
}

}  // namespace

Result<Query> Query::Parse(std::string table, const Value& filter_spec) {
  if (table.empty()) return Status::InvalidArgument("empty table name");
  auto pred = ParsePredicate(filter_spec);
  if (!pred.ok()) return pred.status();
  return Query(std::move(table), std::move(pred).value());
}

Result<Query> Query::ParseJson(std::string table, std::string_view json) {
  auto spec = Value::FromJson(json);
  if (!spec.ok()) return spec.status();
  return Parse(std::move(table), spec.value());
}

}  // namespace quaestor::db
