// db::Object: one sorted vector of members with 16-byte inline keys.
// Layout (size, heap blocks per document copy), the keys' std::string
// behaviour, the std::map behaviour the object keeps, and a randomized
// comparison against a std::map reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.h"
#include "db/value.h"
#include "workload/workload.h"

namespace {

// Counts operator new calls on this thread while enabled.
thread_local bool g_counting = false;
thread_local int g_allocations = 0;

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not see free() applied to the result
// of operator new at an inlined call site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
// Array forms too: sanitizer runtimes supply their own, which would not
// count.
void* operator new[](std::size_t n) { return operator new(n); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace quaestor::db {
namespace {

static_assert(sizeof(Value) <= 40,
              "a Value is a string-sized payload plus the variant index");
static_assert(sizeof(ObjectKey) == 16, "a key is 15 inline bytes and a tag");
static_assert(sizeof(Object::value_type) <= 56,
              "a member is a 16-byte key and a Value");

TEST(ObjectLayoutTest, CopyOfAWorkloadDocumentTakesAtMostTwoBlocks) {
  workload::WorkloadGenerator gen(workload::WorkloadOptions(), 1);
  const Value doc = gen.MakeDoc(0, 1234);
  ASSERT_EQ(doc.as_object().size(), 5u);
  g_allocations = 0;
  g_counting = true;
  const Value copy = doc;  // NOLINT(performance-unnecessary-copy-initialization)
  g_counting = false;
  // The member vector and the tags array: the keys are inline and the
  // strings fit std::string's small buffer.
  EXPECT_LE(g_allocations, 2);
  EXPECT_EQ(copy, doc);
}

// ---------------------------------------------------------------------------
// ObjectKey: inline up to 15 bytes, heap beyond, std::string semantics.

TEST(ObjectKeyTest, KeysOfEveryLengthKeepTheirBytes) {
  for (size_t n : {0, 1, 15, 16, 300}) {
    SCOPED_TRACE("length " + std::to_string(n));
    std::string bytes(n, 'x');
    for (size_t i = 0; i < n; ++i) bytes[i] = static_cast<char>('a' + i % 26);
    g_allocations = 0;
    g_counting = true;
    ObjectKey key(bytes);
    g_counting = false;
    EXPECT_EQ(g_allocations, n > ObjectKey::kInlineCapacity ? 1 : 0);
    EXPECT_EQ(key.size(), n);
    EXPECT_EQ(key.empty(), n == 0);
    EXPECT_EQ(key.view(), bytes);
    EXPECT_EQ(key, bytes);

    const ObjectKey copy = key;  // NOLINT(performance-unnecessary-copy-*)
    EXPECT_EQ(copy.view(), bytes);
    ObjectKey moved = std::move(key);
    EXPECT_EQ(moved.view(), bytes);
    EXPECT_TRUE(key.empty());  // NOLINT(bugprone-use-after-move)
    key = moved;
    EXPECT_EQ(key.view(), bytes);
    moved = ObjectKey("short");
    EXPECT_EQ(moved.view(), "short");

    Object o;
    o[bytes] = Value(static_cast<int64_t>(n));
    o["m"] = Value(0);
    ASSERT_NE(o.find(bytes), o.end());
    EXPECT_EQ(o.at(bytes), Value(static_cast<int64_t>(n)));
    const Value parsed = Value::FromJson(Value(o).ToJson()).value();
    EXPECT_EQ(parsed, Value(o));
  }
}

TEST(ObjectKeyTest, EmbeddedNulAndUtf8BytesAreKeyBytes) {
  const std::string nul("a\0b", 3);
  const std::string long_nul = std::string(20, 'k') + std::string("\0z", 2);
  const std::string utf8 = "caf\xc3\xa9-\xe2\x82\xac";  // "café-€"
  Object o;
  o[nul] = 1;
  o["a"] = 2;
  o[long_nul] = 3;
  o[utf8] = 4;
  EXPECT_EQ(o.size(), 4u);
  EXPECT_EQ(o.at(nul), Value(1));
  EXPECT_EQ(o.at("a"), Value(2));
  EXPECT_EQ(o.count(std::string_view("a\0c", 3)), 0u);
  EXPECT_EQ(o.at(long_nul), Value(3));
  EXPECT_EQ(o.at(utf8), Value(4));
  EXPECT_EQ(ObjectKey(nul).size(), 3u);
  EXPECT_EQ(ObjectKey(long_nul).size(), 22u);
  // Serialized keys escape the NUL and keep the UTF-8 bytes, and parse
  // back to the same keys.
  const std::string json = Value(o).ToJson();
  EXPECT_NE(json.find("\"a\\u0000b\""), std::string::npos) << json;
  EXPECT_NE(json.find(utf8), std::string::npos) << json;
  EXPECT_EQ(Value::FromJson(json).value(), Value(o));
}

TEST(ObjectKeyTest, OrderIsStdStringOrderOverRandomKeys) {
  Rng rng(7);
  // Few distinct bytes, so keys share long prefixes across the inline
  // limit; the high byte checks the unsigned comparison.
  const char kBytes[] = {'\0', 'a', 'b', '\x7f', '\xff'};
  auto random_key = [&] {
    std::string k(rng.NextUint64(41), 'a');
    for (char& c : k) c = kBytes[rng.NextUint64(sizeof kBytes)];
    return k;
  };
  std::vector<std::string> keys;
  for (int i = 0; i < 400; ++i) keys.push_back(random_key());
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    const std::string& a = keys[i];
    const std::string& b = keys[i + 1];
    const ObjectKey ka(a);
    const ObjectKey kb(b);
    EXPECT_EQ(ka < kb.view(), a < b);
    EXPECT_EQ(ka == kb.view(), a == b);
    EXPECT_EQ(ka.compare(b) < 0, a.compare(b) < 0);
    EXPECT_EQ(ka.compare(b) == 0, a.compare(b) == 0);
  }
  Object o;
  std::map<std::string, int64_t> model;
  for (size_t i = 0; i < keys.size(); ++i) {
    o[keys[i]] = static_cast<int64_t>(i);
    model[keys[i]] = static_cast<int64_t>(i);
  }
  ASSERT_EQ(o.size(), model.size());
  auto m = model.begin();
  for (const auto& [k, v] : o) {
    EXPECT_EQ(k.view(), m->first);
    EXPECT_EQ(v, Value(m->second));
    ++m;
  }
}

TEST(ObjectTest, IteratesInKeyOrderWhateverTheInsertOrder) {
  Object o;
  o["m"] = 1;
  o["b"] = 2;
  o["z"] = 3;
  o["a"] = 4;
  o["ab"] = 5;
  std::vector<std::string> keys;
  for (const auto& [k, v] : o) keys.emplace_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "ab", "b", "m", "z"}));
  EXPECT_EQ(Value(o).ToJson(), R"({"a":4,"ab":5,"b":2,"m":1,"z":3})");
}

TEST(ObjectTest, MapStyleLookupsAndErase) {
  Object o{{"x", Value(1)}, {"y", Value("s")}};
  const std::string_view key = "y";
  EXPECT_EQ(o.count(key), 1u);
  EXPECT_EQ(o.count("q"), 0u);
  EXPECT_EQ(o.at("x"), Value(1));
  EXPECT_THROW(o.at("q"), std::out_of_range);
  EXPECT_EQ(o.find("q"), o.end());
  auto [it, inserted] = o.try_emplace("x", 9);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(it->second, Value(1));
  std::tie(it, inserted) = o.try_emplace("w", 9);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->first, "w");
  o.erase(o.find("x"));
  EXPECT_EQ(o.size(), 2u);
  EXPECT_EQ(Value(o).ToJson(), R"({"w":9,"y":"s"})");
  EXPECT_FALSE(o.empty());
}

TEST(ObjectTest, InitializerListKeepsTheFirstOfEqualKeys) {
  const Object o{{"k", Value(1)}, {"a", Value(2)}, {"k", Value(3)}};
  EXPECT_EQ(o.size(), 2u);
  EXPECT_EQ(o.at("k"), Value(1));
}

TEST(ObjectTest, ParserKeepsTheLastOfEqualKeys) {
  const Value v = Value::FromJson(R"({"k":1,"a":{"z":0,"b":1},"k":3})").value();
  EXPECT_EQ(v.ToJson(), R"({"a":{"b":1,"z":0},"k":3})");
}

// ---------------------------------------------------------------------------
// Randomized comparison against a std::map reference model: objects whose
// leaves are ints, built by the same operations on both sides.

struct Ref {
  bool is_object = true;
  int64_t leaf = 0;
  std::map<std::string, Ref> members;
};

Ref Leaf(int64_t v) {
  Ref r;
  r.is_object = false;
  r.leaf = v;
  return r;
}

void RefJson(const Ref& r, std::string* out) {
  if (!r.is_object) {
    *out += std::to_string(r.leaf);
    return;
  }
  *out += '{';
  bool first = true;
  for (const auto& [k, m] : r.members) {
    if (!first) *out += ',';
    first = false;
    AppendJsonEscaped(out, k);
    *out += ':';
    RefJson(m, out);
  }
  *out += '}';
}

std::string RefJson(const Ref& r) {
  std::string out;
  RefJson(r, &out);
  return out;
}

// Value::Compare's order restricted to ints and objects.
int RefCompare(const Ref& a, const Ref& b) {
  if (a.is_object != b.is_object) return a.is_object ? 1 : -1;
  if (!a.is_object) return a.leaf < b.leaf ? -1 : (a.leaf > b.leaf ? 1 : 0);
  auto ia = a.members.begin();
  auto ib = b.members.begin();
  for (; ia != a.members.end() && ib != b.members.end(); ++ia, ++ib) {
    const int kc = ia->first.compare(ib->first);
    if (kc != 0) return kc < 0 ? -1 : 1;
    const int vc = RefCompare(ia->second, ib->second);
    if (vc != 0) return vc;
  }
  if (a.members.size() != b.members.size()) {
    return a.members.size() < b.members.size() ? -1 : 1;
  }
  return 0;
}

std::vector<std::string> Split(const std::string& path) {
  std::vector<std::string> segs;
  size_t start = 0;
  for (;;) {
    const size_t dot = path.find('.', start);
    segs.push_back(path.substr(start, dot == std::string::npos
                                          ? std::string::npos
                                          : dot - start));
    if (dot == std::string::npos) return segs;
    start = dot + 1;
  }
}

const Ref* RefFind(const Ref& root, const std::string& path) {
  const Ref* cur = &root;
  for (const std::string& seg : Split(path)) {
    if (!cur->is_object) return nullptr;
    auto it = cur->members.find(seg);
    if (it == cur->members.end()) return nullptr;
    cur = &it->second;
  }
  return cur;
}

bool RefSetPath(Ref* root, const std::string& path, int64_t v) {
  Ref* cur = root;
  const std::vector<std::string> segs = Split(path);
  for (size_t i = 0; i + 1 < segs.size(); ++i) {
    auto [it, inserted] = cur->members.try_emplace(segs[i]);
    if (!inserted && !it->second.is_object) return false;
    cur = &it->second;
  }
  cur->members[segs.back()] = Leaf(v);
  return true;
}

bool RefRemovePath(Ref* root, const std::string& path) {
  Ref* cur = root;
  const std::vector<std::string> segs = Split(path);
  for (size_t i = 0; i < segs.size(); ++i) {
    if (!cur->is_object) return false;
    auto it = cur->members.find(segs[i]);
    if (it == cur->members.end()) return false;
    if (i + 1 == segs.size()) {
      cur->members.erase(it);
      return true;
    }
    cur = &it->second;
  }
  return false;
}

class ObjectModel {
 public:
  explicit ObjectModel(uint64_t seed) : rng_(seed) {}

  /// Half the keys come from a small pool, so members are overwritten;
  /// the rest are runs of 0–40 equal bytes, which cross the 15-byte
  /// inline limit and share prefixes across it.
  std::string Key() {
    static const char* const kKeys[] = {"a",  "b",  "c",  "ab", "ba",
                                        "a0", "zz", "", "b\"q"};
    if (rng_.NextBool(0.5)) return kKeys[rng_.NextUint64(9)];
    return std::string(rng_.NextUint64(41), rng_.NextBool(0.5) ? 'a' : 'b');
  }
  std::string PathKey() {  // no empty key and no dot: a valid segment
    static const char* const kKeys[] = {"a", "b", "c", "ab", "ba", "zz"};
    if (rng_.NextBool(0.5)) return kKeys[rng_.NextUint64(6)];
    return std::string(1 + rng_.NextUint64(40), rng_.NextBool(0.5) ? 'a' : 'b');
  }
  std::string Path() {
    std::string p = PathKey();
    const uint64_t extra = rng_.NextUint64(3);
    for (uint64_t i = 0; i < extra; ++i) {
      p += '.';
      p += PathKey();
    }
    return p;
  }
  int64_t Int() { return static_cast<int64_t>(rng_.NextUint64(7)) - 3; }

  /// Random JSON object text with out-of-order and duplicate keys, and
  /// the reference it parses to (later duplicates win).
  std::string Json(int depth, Ref* ref) {
    *ref = Ref();
    std::string out = "{";
    const uint64_t n = rng_.NextUint64(6);
    for (uint64_t i = 0; i < n; ++i) {
      if (i > 0) out += ',';
      const std::string k = Key();
      AppendJsonEscaped(&out, k);
      out += ':';
      if (depth > 0 && rng_.NextBool(0.3)) {
        Ref child;
        out += Json(depth - 1, &child);
        ref->members[k] = std::move(child);
      } else {
        const int64_t v = Int();
        out += std::to_string(v);
        ref->members[k] = Leaf(v);
      }
    }
    return out + "}";
  }

  /// One random mutation applied to both sides.
  void Mutate(Value* value, Ref* ref) {
    switch (rng_.NextUint64(5)) {
      case 0: {  // operator[] on the root or a nested object
        const std::string k = Key();
        const int64_t v = Int();
        Value* target = value;
        Ref* target_ref = ref;
        if (rng_.NextBool(0.5)) {
          const std::string p = Path();
          Value* nested = const_cast<Value*>(value->Find(p));
          Ref* nested_ref = const_cast<Ref*>(RefFind(*ref, p));
          ASSERT_EQ(nested != nullptr, nested_ref != nullptr) << p;
          if (nested != nullptr && nested->is_object()) {
            target = nested;
            target_ref = nested_ref;
          }
        }
        target->as_object()[k] = v;
        target_ref->members[k] = Leaf(v);
        break;
      }
      case 1: {  // try_emplace keeps a present member
        const std::string k = Key();
        const int64_t v = Int();
        const bool inserted = value->as_object().try_emplace(k, v).second;
        EXPECT_EQ(inserted, ref->members.try_emplace(k, Leaf(v)).second);
        break;
      }
      case 2: {
        const std::string p = Path();
        const int64_t v = Int();
        EXPECT_EQ(value->SetPath(p, Value(v)).ok(), RefSetPath(ref, p, v))
            << p;
        break;
      }
      case 3: {
        const std::string p = Path();
        EXPECT_EQ(value->RemovePath(p), RefRemovePath(ref, p)) << p;
        break;
      }
      default: {  // replace a member with a parsed object
        Ref parsed;
        const std::string text = Json(2, &parsed);
        Result<Value> v = Value::FromJson(text);
        ASSERT_TRUE(v.ok()) << text;
        ASSERT_EQ(v->ToJson(), RefJson(parsed)) << text;
        const std::string k = Key();
        value->as_object()[k] = std::move(v).value();
        ref->members[k] = std::move(parsed);
        break;
      }
    }
  }

  /// Checks serialization and lookups of one tree against its reference.
  void Check(const Value& value, const Ref& ref) {
    ASSERT_EQ(value.ToJson(), RefJson(ref));
    for (int i = 0; i < 8; ++i) {
      const std::string p = Path();
      const Value* found = value.Find(p);
      const Ref* found_ref = RefFind(ref, p);
      ASSERT_EQ(found != nullptr, found_ref != nullptr) << p;
      if (found != nullptr) {
        EXPECT_EQ(found->ToJson(), RefJson(*found_ref));
      }
    }
  }

 private:
  Rng rng_;
};

int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

TEST(ObjectPropertyTest, MatchesAStdMapModel) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ObjectModel model(seed);
    Value a = Object{};
    Value b = Object{};
    Ref ra;
    Ref rb;
    for (int step = 0; step < 60; ++step) {
      // Mostly mutate one side, so the trees drift apart and back.
      if (step % 3 != 2) {
        model.Mutate(&a, &ra);
      } else {
        model.Mutate(&b, &rb);
      }
      if (::testing::Test::HasFatalFailure()) return;
      model.Check(a, ra);
      model.Check(b, rb);
      if (::testing::Test::HasFatalFailure()) return;
      EXPECT_EQ(a == b, RefCompare(ra, rb) == 0);
      EXPECT_EQ(Sign(Value::Compare(a, b)), RefCompare(ra, rb));
      EXPECT_EQ(Sign(Value::Compare(b, a)), RefCompare(rb, ra));
      // A copy and a parse of the canonical text are equal to the tree.
      const Value copy = a;
      EXPECT_EQ(copy, a);
      EXPECT_EQ(Value::FromJson(a.ToJson()).value(), a);
    }
  }
}

}  // namespace
}  // namespace quaestor::db
