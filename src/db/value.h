#ifndef QUAESTOR_DB_VALUE_H_
#define QUAESTOR_DB_VALUE_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"

namespace quaestor::db {

class Value;

/// Array of values.
using Array = std::vector<Value>;

/// Object with sorted keys (sorted order makes serialization canonical,
/// which Quaestor relies on for normalized query cache keys). The members
/// live in one vector kept sorted by key, so a document's fields share one
/// heap block and iterate in the order a `std::map` would give. Lookups
/// take a `std::string_view` and binary-search. An insert appends in O(1)
/// when its key sorts after every present key (the order canonical JSON
/// arrives in) and shifts the tail otherwise. Inserting or erasing
/// invalidates iterators and references to this object's members.
class Object {
 public:
  using value_type = std::pair<std::string, Value>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  Object() = default;
  /// Like `std::map`, the first of two equal keys wins.
  Object(std::initializer_list<value_type> init);

  // Member bodies that need a complete Value follow Value's definition.
  iterator begin();
  iterator end();
  const_iterator begin() const;
  const_iterator end() const;
  size_t size() const;
  bool empty() const;
  void reserve(size_t n);

  iterator find(std::string_view key);
  const_iterator find(std::string_view key) const;
  size_t count(std::string_view key) const;
  /// Throws std::out_of_range when `key` is absent, as `std::map::at` does.
  Value& at(std::string_view key);
  const Value& at(std::string_view key) const;

  /// The value under `key`, inserting a null one when absent.
  Value& operator[](std::string_view key);
  /// Inserts `key` with a value built from `args` unless present; returns
  /// the member and whether it was inserted.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(std::string_view key, Args&&... args);
  iterator erase(const_iterator pos);

  friend bool operator==(const Object& a, const Object& b);
  friend bool operator!=(const Object& a, const Object& b);

 private:
  /// First member whose key is not less than `key`.
  const_iterator LowerBound(std::string_view key) const;

  std::vector<value_type> members_;
};

/// A JSON-like dynamic value: the unit of data in the document store.
/// Numbers are stored as int64 or double; comparisons treat them as one
/// numeric type (MongoDB semantics).
class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}          // NOLINT
  Value(bool b) : data_(b) {}                        // NOLINT
  Value(int i) : data_(static_cast<int64_t>(i)) {}   // NOLINT
  Value(int64_t i) : data_(i) {}                     // NOLINT
  Value(double d) : data_(d) {}                      // NOLINT
  Value(const char* s) : data_(std::string(s)) {}    // NOLINT
  Value(std::string s) : data_(std::move(s)) {}      // NOLINT
  Value(std::string_view s) : data_(std::string(s)) {}  // NOLINT
  Value(Array a) : data_(std::move(a)) {}            // NOLINT
  Value(Object o) : data_(std::move(o)) {}           // NOLINT

  Type type() const;

  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  bool as_bool() const { return std::get<bool>(data_); }
  int64_t as_int() const { return std::get<int64_t>(data_); }
  double as_double() const { return std::get<double>(data_); }
  /// Numeric value as double regardless of int/double storage.
  double as_number() const;
  const std::string& as_string() const { return std::get<std::string>(data_); }
  const Array& as_array() const { return std::get<Array>(data_); }
  Array& as_array() { return std::get<Array>(data_); }
  const Object& as_object() const { return std::get<Object>(data_); }
  Object& as_object() { return std::get<Object>(data_); }

  /// Looks up a dot-separated path ("author.name", "tags") within this
  /// value. Returns nullptr if any segment is missing or a non-object is
  /// traversed. Array indices are supported as numeric segments
  /// ("tags.0").
  const Value* Find(std::string_view path) const;

  /// Sets a dot-separated path, creating intermediate objects. Fails if an
  /// intermediate segment exists but is not an object.
  Status SetPath(std::string_view path, Value v);

  /// Removes a dot-separated path. Returns true if something was removed.
  bool RemovePath(std::string_view path);

  /// Serializes to canonical JSON text (sorted object keys, shortest
  /// round-trip numbers).
  std::string ToJson() const;

  /// Appends the canonical JSON encoding to *out in a single pass.
  /// ToJson is a thin wrapper over this; hot serialization paths reuse
  /// one reserved buffer across many values instead of materializing a
  /// string per value.
  void AppendJson(std::string* out) const;

  /// Parses JSON text.
  static Result<Value> FromJson(std::string_view text);

  /// Parses one JSON value from the front of `text` without requiring the
  /// whole input to be consumed. On success *consumed is the byte offset
  /// just past the parsed value (leading whitespace included). Lets wire
  /// decoders scan framing themselves and delegate embedded values here.
  static Result<Value> FromJsonPrefix(std::string_view text,
                                      size_t* consumed);

  /// Deep structural equality. Int and double values compare numerically
  /// (Value(1) == Value(1.0)).
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Total order used by ORDER BY: null < bool < number < string < array <
  /// object; numbers compare numerically. Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b);

 private:
  std::variant<std::nullptr_t, bool, int64_t, double, std::string, Array,
               Object>
      data_;
};

inline Object::iterator Object::begin() { return members_.begin(); }
inline Object::iterator Object::end() { return members_.end(); }
inline Object::const_iterator Object::begin() const { return members_.begin(); }
inline Object::const_iterator Object::end() const { return members_.end(); }
inline size_t Object::size() const { return members_.size(); }
inline bool Object::empty() const { return members_.empty(); }
inline void Object::reserve(size_t n) { members_.reserve(n); }
inline size_t Object::count(std::string_view key) const {
  return find(key) == end() ? 0 : 1;
}
inline Object::iterator Object::erase(const_iterator pos) {
  return members_.erase(pos);
}
inline bool operator!=(const Object& a, const Object& b) { return !(a == b); }

template <typename... Args>
std::pair<Object::iterator, bool> Object::try_emplace(std::string_view key,
                                                      Args&&... args) {
  auto pos = members_.begin() + (LowerBound(key) - members_.cbegin());
  if (pos != members_.end() && pos->first == key) return {pos, false};
  pos = members_.emplace(pos, std::piecewise_construct,
                         std::forward_as_tuple(key),
                         std::forward_as_tuple(std::forward<Args>(args)...));
  return {pos, true};
}

/// Appends `s` to *out as a JSON string literal (quoted and escaped) —
/// the escaping Value::AppendJson applies to string values, exposed for
/// serializers that emit JSON around raw strings (query responses).
void AppendJsonEscaped(std::string* out, std::string_view s);

/// Strict-weak-ordering wrapper over Value::Compare, for ordered containers
/// keyed by Value (secondary indexes, range scans). Note that int and
/// double keys compare numerically, so Value(1) and Value(1.0) collide —
/// the semantics equality queries want.
struct ValueLess {
  bool operator()(const Value& a, const Value& b) const {
    return Value::Compare(a, b) < 0;
  }
};

}  // namespace quaestor::db

#endif  // QUAESTOR_DB_VALUE_H_
