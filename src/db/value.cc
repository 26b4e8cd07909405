#include "db/value.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace quaestor::db {

ObjectKey::ObjectKey(std::string_view s) { Init(s); }

ObjectKey::ObjectKey(const ObjectKey& other) {
  if (other.on_heap()) {
    Init(other.view());
  } else {
    std::memcpy(bytes_, other.bytes_, sizeof bytes_);
  }
}

void ObjectKey::Init(std::string_view s) {
  if (s.size() <= kInlineCapacity) {
    std::copy(s.begin(), s.end(), bytes_);
    bytes_[kTag] = static_cast<char>(s.size());
    return;
  }
  if (s.size() > UINT32_MAX) throw std::length_error("db::ObjectKey");
  char* p = new char[s.size()];
  std::copy(s.begin(), s.end(), p);
  const uint32_t n = static_cast<uint32_t>(s.size());
  std::memcpy(bytes_, &p, sizeof p);
  std::memcpy(bytes_ + sizeof p, &n, sizeof n);
  bytes_[kTag] = static_cast<char>(kHeapTag);
}

ObjectKey::ObjectKey(ObjectKey&& other) noexcept {
  std::memcpy(bytes_, other.bytes_, sizeof bytes_);
  other.bytes_[kTag] = 0;
}

Object::Object(std::initializer_list<value_type> init) {
  members_.reserve(init.size());
  for (const value_type& m : init) try_emplace(m.first, m.second);
}

Object::const_iterator Object::LowerBound(std::string_view key) const {
  if (members_.empty() || std::string_view(members_.back().first) < key) {
    return members_.end();
  }
  return std::lower_bound(members_.begin(), members_.end(), key,
                          [](const value_type& m, std::string_view k) {
                            return std::string_view(m.first) < k;
                          });
}

Object::iterator Object::find(std::string_view key) {
  auto pos = members_.begin() + (LowerBound(key) - members_.cbegin());
  return pos != members_.end() && pos->first == key ? pos : members_.end();
}

Object::const_iterator Object::find(std::string_view key) const {
  auto pos = LowerBound(key);
  return pos != members_.end() && pos->first == key ? pos : members_.end();
}

Value& Object::at(std::string_view key) {
  auto it = find(key);
  if (it == end()) throw std::out_of_range("db::Object::at");
  return it->second;
}

const Value& Object::at(std::string_view key) const {
  auto it = find(key);
  if (it == end()) throw std::out_of_range("db::Object::at");
  return it->second;
}

Value& Object::operator[](std::string_view key) {
  return try_emplace(key).first->second;
}

bool operator==(const Object& a, const Object& b) {
  return a.members_ == b.members_;
}

Value::Type Value::type() const {
  switch (data_.index()) {
    case 0:
      return Type::kNull;
    case 1:
      return Type::kBool;
    case 2:
      return Type::kInt;
    case 3:
      return Type::kDouble;
    case 4:
      return Type::kString;
    case 5:
      return Type::kArray;
    default:
      return Type::kObject;
  }
}

double Value::as_number() const {
  if (is_int()) return static_cast<double>(as_int());
  return as_double();
}

const Value* Value::Find(std::string_view path) const {
  const Value* cur = this;
  size_t start = 0;
  while (start <= path.size()) {
    size_t dot = path.find('.', start);
    std::string_view seg = path.substr(
        start, dot == std::string_view::npos ? std::string_view::npos
                                             : dot - start);
    if (seg.empty()) return nullptr;
    if (cur->is_object()) {
      const Object& obj = cur->as_object();
      auto it = obj.find(seg);
      if (it == obj.end()) return nullptr;
      cur = &it->second;
    } else if (cur->is_array()) {
      size_t idx = 0;
      auto [p, ec] =
          std::from_chars(seg.data(), seg.data() + seg.size(), idx);
      if (ec != std::errc() || p != seg.data() + seg.size()) return nullptr;
      const Array& arr = cur->as_array();
      if (idx >= arr.size()) return nullptr;
      cur = &arr[idx];
    } else {
      return nullptr;
    }
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  return cur;
}

Status Value::SetPath(std::string_view path, Value v) {
  if (path.empty()) return Status::InvalidArgument("empty path");
  if (!is_object()) return Status::InvalidArgument("root is not an object");
  Value* cur = this;
  size_t start = 0;
  for (;;) {
    size_t dot = path.find('.', start);
    std::string_view seg = path.substr(
        start, dot == std::string_view::npos ? std::string_view::npos
                                             : dot - start);
    if (seg.empty()) return Status::InvalidArgument("empty path segment");
    Object& obj = cur->as_object();
    if (dot == std::string_view::npos) {
      obj[seg] = std::move(v);
      return Status::OK();
    }
    // The insert can move obj's members, but cur is re-pointed into the
    // child before anything is inserted into it.
    auto [it, inserted] = obj.try_emplace(seg, Object{});
    if (!inserted && !it->second.is_object()) {
      return Status::InvalidArgument("path segment '" + std::string(seg) +
                                     "' is not an object");
    }
    cur = &it->second;
    start = dot + 1;
  }
}

bool Value::RemovePath(std::string_view path) {
  if (path.empty() || !is_object()) return false;
  Value* cur = this;
  size_t start = 0;
  for (;;) {
    size_t dot = path.find('.', start);
    std::string_view seg = path.substr(
        start, dot == std::string_view::npos ? std::string_view::npos
                                             : dot - start);
    if (!cur->is_object()) return false;
    Object& obj = cur->as_object();
    auto it = obj.find(seg);
    if (it == obj.end()) return false;
    if (dot == std::string_view::npos) {
      obj.erase(it);
      return true;
    }
    cur = &it->second;
    start = dot + 1;
  }
}

namespace {

void AppendEscaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendJsonImpl(std::string& out, const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull:
      out += "null";
      break;
    case Value::Type::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Value::Type::kInt: {
      out += std::to_string(v.as_int());
      break;
    }
    case Value::Type::kDouble: {
      const double d = v.as_double();
      if (std::isnan(d) || std::isinf(d)) {
        out += "null";  // JSON has no NaN/Inf
        break;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      // Use shortest representation that round-trips.
      for (int prec = 1; prec < 17; ++prec) {
        char trial[32];
        std::snprintf(trial, sizeof(trial), "%.*g", prec, d);
        double parsed = std::strtod(trial, nullptr);
        if (parsed == d) {
          std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
          break;
        }
      }
      out += buf;
      break;
    }
    case Value::Type::kString:
      AppendEscaped(out, v.as_string());
      break;
    case Value::Type::kArray: {
      out += '[';
      bool first = true;
      for (const Value& e : v.as_array()) {
        if (!first) out += ',';
        first = false;
        AppendJsonImpl(out, e);
      }
      out += ']';
      break;
    }
    case Value::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, e] : v.as_object()) {
        if (!first) out += ',';
        first = false;
        AppendEscaped(out, k);
        out += ':';
        AppendJsonImpl(out, e);
      }
      out += '}';
      break;
    }
  }
}

/// Minimal recursive-descent JSON parser.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text), pos_(0) {}

  Result<Value> Parse() {
    SkipWs();
    auto v = ParseValue();
    if (!v.ok()) return v;
    SkipWs();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters at offset " +
                                     std::to_string(pos_));
    }
    return v;
  }

  Result<Value> ParsePrefix(size_t* consumed) {
    SkipWs();
    auto v = ParseValue();
    if (v.ok()) *consumed = pos_;
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Err(const std::string& what) {
    return Status::InvalidArgument(what + " at offset " +
                                   std::to_string(pos_));
  }

  Result<Value> ParseValue() {
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        auto s = ParseString();
        if (!s.ok()) return s.status();
        return Value(std::move(s).value());
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          return Value(true);
        }
        return Err("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          return Value(false);
        }
        return Err("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          return Value(nullptr);
        }
        return Err("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Err("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Err("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Err("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Err("bad \\u escape");
              }
            }
            // Encode as UTF-8 (no surrogate-pair handling; BMP only).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Err("bad escape");
        }
      } else {
        out += c;
      }
    }
    return Err("unterminated string");
  }

  Result<Value> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(
                                      text_[pos_]))) {
      ++pos_;
    }
    bool is_double = false;
    if (Consume('.')) {
      is_double = true;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ == start) return Err("invalid number");
    std::string_view num = text_.substr(start, pos_ - start);
    if (!is_double) {
      int64_t i = 0;
      auto [p, ec] = std::from_chars(num.data(), num.data() + num.size(), i);
      if (ec == std::errc() && p == num.data() + num.size()) return Value(i);
      // Fall through to double on overflow.
    }
    const double d = std::strtod(std::string(num).c_str(), nullptr);
    return Value(d);
  }

  Result<Value> ParseArray() {
    Consume('[');
    Array arr;
    SkipWs();
    if (Consume(']')) return Value(std::move(arr));
    for (;;) {
      SkipWs();
      auto v = ParseValue();
      if (!v.ok()) return v;
      arr.push_back(std::move(v).value());
      SkipWs();
      if (Consume(']')) return Value(std::move(arr));
      if (!Consume(',')) return Err("expected ',' or ']'");
    }
  }

  Result<Value> ParseObject() {
    Consume('{');
    // Members collect on a per-thread stack (a nested object's above its
    // parent's) so each object is built once, at its exact size. The stack
    // keeps the parsed strings, so a key is copied into the object once.
    thread_local std::vector<std::pair<std::string, Value>> stack;
    struct PopToBase {
      std::vector<std::pair<std::string, Value>>& stack;
      size_t base;
      ~PopToBase() { stack.erase(stack.begin() + base, stack.end()); }
    } members{stack, stack.size()};
    SkipWs();
    if (!Consume('}')) {
      for (;;) {
        SkipWs();
        auto k = ParseString();
        if (!k.ok()) return k.status();
        SkipWs();
        if (!Consume(':')) return Err("expected ':'");
        SkipWs();
        auto v = ParseValue();
        if (!v.ok()) return v;
        stack.emplace_back(std::move(k).value(), std::move(v).value());
        SkipWs();
        if (Consume('}')) break;
        if (!Consume(',')) return Err("expected ',' or '}'");
      }
    }
    Object obj;
    obj.reserve(stack.size() - members.base);
    for (size_t i = members.base; i < stack.size(); ++i) {
      obj[stack[i].first] = std::move(stack[i].second);  // last key wins
    }
    return Value(std::move(obj));
  }

  std::string_view text_;
  size_t pos_;
};

int TypeRank(Value::Type t) {
  switch (t) {
    case Value::Type::kNull:
      return 0;
    case Value::Type::kBool:
      return 1;
    case Value::Type::kInt:
    case Value::Type::kDouble:
      return 2;
    case Value::Type::kString:
      return 3;
    case Value::Type::kArray:
      return 4;
    case Value::Type::kObject:
      return 5;
  }
  return 6;
}

}  // namespace

std::string Value::ToJson() const {
  std::string out;
  AppendJsonImpl(out, *this);
  return out;
}

void Value::AppendJson(std::string* out) const { AppendJsonImpl(*out, *this); }

void AppendJsonEscaped(std::string* out, std::string_view s) {
  AppendEscaped(*out, s);
}

Result<Value> Value::FromJson(std::string_view text) {
  return JsonParser(text).Parse();
}

Result<Value> Value::FromJsonPrefix(std::string_view text, size_t* consumed) {
  return JsonParser(text).ParsePrefix(consumed);
}

bool operator==(const Value& a, const Value& b) {
  return Value::Compare(a, b) == 0;
}

int Value::Compare(const Value& a, const Value& b) {
  const int ra = TypeRank(a.type());
  const int rb = TypeRank(b.type());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a.type()) {
    case Type::kNull:
      return 0;
    case Type::kBool:
      return static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
    case Type::kInt:
    case Type::kDouble: {
      // Exact comparison when both are ints; numeric otherwise.
      if (a.is_int() && b.is_int()) {
        const int64_t x = a.as_int();
        const int64_t y = b.as_int();
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      const double x = a.as_number();
      const double y = b.as_number();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case Type::kString: {
      const int c = a.as_string().compare(b.as_string());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case Type::kArray: {
      const Array& x = a.as_array();
      const Array& y = b.as_array();
      const size_t n = std::min(x.size(), y.size());
      for (size_t i = 0; i < n; ++i) {
        const int c = Compare(x[i], y[i]);
        if (c != 0) return c;
      }
      if (x.size() != y.size()) return x.size() < y.size() ? -1 : 1;
      return 0;
    }
    case Type::kObject: {
      const Object& x = a.as_object();
      const Object& y = b.as_object();
      auto ix = x.begin();
      auto iy = y.begin();
      for (; ix != x.end() && iy != y.end(); ++ix, ++iy) {
        const int kc = ix->first.compare(iy->first);
        if (kc != 0) return kc < 0 ? -1 : 1;
        const int vc = Compare(ix->second, iy->second);
        if (vc != 0) return vc;
      }
      if (x.size() != y.size()) return x.size() < y.size() ? -1 : 1;
      return 0;
    }
  }
  return 0;
}

}  // namespace quaestor::db
