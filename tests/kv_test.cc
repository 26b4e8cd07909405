#include <gtest/gtest.h>

#include "common/clock.h"
#include "kv/kv_store.h"

namespace quaestor::kv {
namespace {

class KvStoreTest : public ::testing::Test {
 protected:
  KvStoreTest() : clock_(0), kv_(&clock_) {}
  SimulatedClock clock_;
  KvStore kv_;
};

TEST_F(KvStoreTest, SetGetDel) {
  kv_.Set("k", "v");
  ASSERT_TRUE(kv_.Get("k").ok());
  EXPECT_EQ(kv_.Get("k").value(), "v");
  EXPECT_TRUE(kv_.Exists("k"));
  EXPECT_TRUE(kv_.Del("k"));
  EXPECT_FALSE(kv_.Exists("k"));
  EXPECT_FALSE(kv_.Del("k"));
  EXPECT_TRUE(kv_.Get("k").status().IsNotFound());
}

TEST_F(KvStoreTest, SetOverwrites) {
  kv_.Set("k", "v1");
  kv_.Set("k", "v2");
  EXPECT_EQ(kv_.Get("k").value(), "v2");
}

TEST_F(KvStoreTest, TtlExpiresKeys) {
  kv_.Set("k", "v", /*ttl_micros=*/1000);
  EXPECT_TRUE(kv_.Exists("k"));
  clock_.Advance(999);
  EXPECT_TRUE(kv_.Exists("k"));
  clock_.Advance(1);
  EXPECT_FALSE(kv_.Exists("k"));
  EXPECT_TRUE(kv_.Get("k").status().IsNotFound());
}

TEST_F(KvStoreTest, TtlQueries) {
  kv_.Set("forever", "v");
  kv_.Set("brief", "v", 1000);
  EXPECT_EQ(kv_.Ttl("forever").value(), -1);
  EXPECT_EQ(kv_.Ttl("brief").value(), 1000);
  clock_.Advance(400);
  EXPECT_EQ(kv_.Ttl("brief").value(), 600);
  EXPECT_FALSE(kv_.Ttl("missing").has_value());
}

TEST_F(KvStoreTest, ExpireUpdatesTtl) {
  kv_.Set("k", "v");
  EXPECT_TRUE(kv_.Expire("k", 500));
  clock_.Advance(501);
  EXPECT_FALSE(kv_.Exists("k"));
  EXPECT_FALSE(kv_.Expire("k", 100));  // already gone
}

TEST_F(KvStoreTest, SweepExpiredRemovesEagerly) {
  kv_.Set("a", "1", 100);
  kv_.Set("b", "2", 200);
  kv_.Set("c", "3");
  clock_.Advance(150);
  EXPECT_EQ(kv_.SweepExpired(), 1u);
  EXPECT_EQ(kv_.Size(), 2u);
}

TEST_F(KvStoreTest, IncrBy) {
  EXPECT_EQ(kv_.IncrBy("n", 5).value(), 5);
  EXPECT_EQ(kv_.IncrBy("n", -2).value(), 3);
  EXPECT_EQ(kv_.Get("n").value(), "3");
}

TEST_F(KvStoreTest, IncrByNonNumericFails) {
  kv_.Set("k", "abc");
  EXPECT_FALSE(kv_.IncrBy("k", 1).ok());
}

TEST_F(KvStoreTest, HashOps) {
  EXPECT_TRUE(kv_.HSet("h", "f1", "v1"));
  EXPECT_FALSE(kv_.HSet("h", "f1", "v2"));  // overwrite returns false
  EXPECT_TRUE(kv_.HSet("h", "f2", "x"));
  EXPECT_EQ(kv_.HGet("h", "f1").value(), "v2");
  EXPECT_TRUE(kv_.HGet("h", "missing").status().IsNotFound());
  EXPECT_TRUE(kv_.HGet("missing", "f").status().IsNotFound());
  auto all = kv_.HGetAll("h");
  EXPECT_EQ(all.size(), 2u);
  EXPECT_TRUE(kv_.HDel("h", "f1"));
  EXPECT_FALSE(kv_.HDel("h", "f1"));
  EXPECT_EQ(kv_.HGetAll("h").size(), 1u);
}

TEST_F(KvStoreTest, HashDeletedWhenEmpty) {
  kv_.HSet("h", "f", "v");
  kv_.HDel("h", "f");
  EXPECT_FALSE(kv_.Exists("h"));
}

TEST_F(KvStoreTest, HIncrBy) {
  EXPECT_EQ(kv_.HIncrBy("h", "count", 3).value(), 3);
  EXPECT_EQ(kv_.HIncrBy("h", "count", -1).value(), 2);
  EXPECT_EQ(kv_.HGet("h", "count").value(), "2");
}

TEST_F(KvStoreTest, PubSubDeliversToSubscribers) {
  std::vector<std::string> got;
  const uint64_t id = kv_.Subscribe(
      "chan", [&](const std::string&, const std::string& msg) {
        got.push_back(msg);
      });
  EXPECT_EQ(kv_.Publish("chan", "m1"), 1u);
  EXPECT_EQ(kv_.Publish("other", "m2"), 0u);
  kv_.Unsubscribe(id);
  EXPECT_EQ(kv_.Publish("chan", "m3"), 0u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "m1");
}

TEST_F(KvStoreTest, MultipleSubscribers) {
  int count = 0;
  kv_.Subscribe("c", [&](const std::string&, const std::string&) { count++; });
  kv_.Subscribe("c", [&](const std::string&, const std::string&) { count++; });
  EXPECT_EQ(kv_.Publish("c", "m"), 2u);
  EXPECT_EQ(count, 2);
}

TEST_F(KvStoreTest, FlushAllClearsData) {
  kv_.Set("a", "1");
  kv_.HSet("h", "f", "v");
  kv_.FlushAll();
  EXPECT_EQ(kv_.Size(), 0u);
}

TEST_F(KvStoreTest, SetClearsHashState) {
  kv_.HSet("k", "f", "v");
  kv_.Set("k", "plain");
  EXPECT_EQ(kv_.Get("k").value(), "plain");
  EXPECT_TRUE(kv_.HGet("k", "f").status().IsNotFound());
}

}  // namespace
}  // namespace quaestor::kv
