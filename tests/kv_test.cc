#include <gtest/gtest.h>

#include "kv/kv_store.h"

namespace quaestor::kv {
namespace {

class KvStoreTest : public ::testing::Test {
 protected:
  KvStore kv_;
};

TEST_F(KvStoreTest, DelRemovesKey) {
  kv_.HSet("k", "f", "v");
  EXPECT_TRUE(kv_.Del("k"));
  EXPECT_TRUE(kv_.HGet("k", "f").status().IsNotFound());
  EXPECT_TRUE(kv_.HGetAll("k").empty());
  EXPECT_FALSE(kv_.Del("k"));
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
  EXPECT_TRUE(kv_.HDel("h", "f"));
  EXPECT_FALSE(kv_.Del("h"));  // the key went with its last field
}

TEST_F(KvStoreTest, HIncrBy) {
  EXPECT_EQ(kv_.HIncrBy("h", "count", 3).value(), 3);
  EXPECT_EQ(kv_.HIncrBy("h", "count", -1).value(), 2);
  EXPECT_EQ(kv_.HGet("h", "count").value(), "2");
}

TEST_F(KvStoreTest, HIncrByNonNumericFails) {
  kv_.HSet("h", "f", "abc");
  EXPECT_FALSE(kv_.HIncrBy("h", "f", 1).ok());
  EXPECT_EQ(kv_.HGet("h", "f").value(), "abc");
}

}  // namespace
}  // namespace quaestor::kv
