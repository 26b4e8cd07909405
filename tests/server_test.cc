#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/query_result.h"
#include "core/server.h"
#include "db/database.h"

namespace quaestor::core {
namespace {

constexpr Micros kSecond = kMicrosPerSecond;

db::Value Doc(const char* json) {
  auto v = db::Value::FromJson(json);
  EXPECT_TRUE(v.ok());
  return v.value();
}

db::Query Q(const char* table, const char* filter) {
  auto q = db::Query::ParseJson(table, filter);
  EXPECT_TRUE(q.ok());
  return q.value();
}

// ---------------------------------------------------------------------------
// QueryResponse wire format
// ---------------------------------------------------------------------------

TEST(QueryResponseTest, ObjectListRoundTrip) {
  QueryResponse qr;
  qr.representation = ttl::ResultRepresentation::kObjectList;
  qr.ids = {"t/a", "t/b"};
  qr.docs = {Doc(R"({"x":1})"), Doc(R"({"x":2})")};
  qr.versions = {3, 7};
  qr.record_ttls = {1000, 2000};
  auto parsed = QueryResponse::FromJson(qr.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ids, qr.ids);
  EXPECT_EQ(parsed->versions, qr.versions);
  EXPECT_EQ(parsed->record_ttls, qr.record_ttls);
  EXPECT_EQ(parsed->docs[1], qr.docs[1]);
  EXPECT_EQ(parsed->ComputeEtag(), qr.ComputeEtag());
}

TEST(QueryResponseTest, IdListRoundTrip) {
  QueryResponse qr;
  qr.representation = ttl::ResultRepresentation::kIdList;
  qr.ids = {"t/a", "t/b", "t/c"};
  auto parsed = QueryResponse::FromJson(qr.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->representation, ttl::ResultRepresentation::kIdList);
  EXPECT_EQ(parsed->ids, qr.ids);
  EXPECT_TRUE(parsed->docs.empty());
}

TEST(QueryResponseTest, EtagChangesWithVersions) {
  QueryResponse a;
  a.representation = ttl::ResultRepresentation::kObjectList;
  a.ids = {"t/a"};
  a.versions = {1};
  QueryResponse b = a;
  b.versions = {2};
  EXPECT_NE(a.ComputeEtag(), b.ComputeEtag());
}

TEST(QueryResponseTest, IdListEtagIgnoresVersions) {
  QueryResponse a;
  a.representation = ttl::ResultRepresentation::kIdList;
  a.ids = {"t/a"};
  a.versions = {1};
  QueryResponse b = a;
  b.versions = {2};
  EXPECT_EQ(a.ComputeEtag(), b.ComputeEtag());
}

TEST(QueryResponseTest, RejectsMalformed) {
  EXPECT_FALSE(QueryResponse::FromJson("not json").ok());
  EXPECT_FALSE(QueryResponse::FromJson("[]").ok());
  EXPECT_FALSE(QueryResponse::FromJson(R"({"ids":[1]})").ok());
  EXPECT_FALSE(
      QueryResponse::FromJson(R"({"rep":"objects","ids":["a"]})").ok());
}

// ---------------------------------------------------------------------------
// QuaestorServer
// ---------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : clock_(0), db_(&clock_) {}

  void MakeServer(ServerOptions options = ServerOptions()) {
    server_ = std::make_unique<QuaestorServer>(&clock_, &db_, options);
    server_->AddPurgeTarget(
        [this](const std::string& key) { purged_.push_back(key); });
  }

  webcache::HttpResponse Get(const std::string& key) {
    webcache::HttpRequest req;
    req.key = key;
    return server_->Fetch(req);
  }

  webcache::HttpResponse GetQuery(const db::Query& q) {
    server_->RegisterQueryShape(q);
    return Get(q.NormalizedKey());
  }

  SimulatedClock clock_;
  db::Database db_;
  std::unique_ptr<QuaestorServer> server_;
  std::vector<std::string> purged_;
};

TEST_F(ServerTest, RecordFetchServesBodyAndTtl) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"x":1})")).ok());
  auto resp = Get("t/1");
  ASSERT_TRUE(resp.ok);
  EXPECT_GT(resp.ttl, 0);
  EXPECT_EQ(resp.etag, 1u);  // insert creates version 1
  EXPECT_EQ(resp.body, Doc(R"({"x":1})").ToJson());
}

TEST_F(ServerTest, RecordFetchMissing404) {
  MakeServer();
  EXPECT_FALSE(Get("t/none").ok);
  EXPECT_FALSE(Get("malformed-key").ok);
}

TEST_F(ServerTest, RecordConditionalFetch304) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"x":1})")).ok());
  auto first = Get("t/1");
  webcache::HttpRequest req;
  req.key = "t/1";
  req.has_if_none_match = true;
  req.if_none_match = first.etag;
  auto second = server_->Fetch(req);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.not_modified);
  EXPECT_TRUE(second.body.empty());
  EXPECT_EQ(server_->stats().not_modified, 1u);
}

TEST_F(ServerTest, WriteMakesCachedRecordStaleAndPurges) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"x":1})")).ok());
  (void)Get("t/1");  // issues a TTL → tracked in the EBF
  clock_.Advance(1 * kSecond);
  purged_.clear();
  db::Update u;
  u.Set("x", db::Value(2));
  ASSERT_TRUE(server_->Update("t", "1", u).ok());
  EXPECT_TRUE(server_->ebf().IsStale("t/1"));
  ASSERT_FALSE(purged_.empty());
  EXPECT_EQ(purged_[0], "t/1");
  EXPECT_TRUE(server_->BloomSnapshot().MaybeContains("t/1"));
}

TEST_F(ServerTest, QueryFetchReturnsObjectList) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "2", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "3", Doc(R"({"g":2})")).ok());
  auto resp = GetQuery(Q("t", R"({"g":1})"));
  ASSERT_TRUE(resp.ok);
  EXPECT_GT(resp.ttl, 0);
  auto qr = QueryResponse::FromJson(resp.body);
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->representation, ttl::ResultRepresentation::kObjectList);
  EXPECT_EQ(qr->ids, (std::vector<std::string>{"t/1", "t/2"}));
  EXPECT_EQ(qr->docs.size(), 2u);
}

TEST_F(ServerTest, UnknownQueryKeyIs404) {
  MakeServer();
  EXPECT_FALSE(Get("q:t?g $eq 1").ok);
}

TEST_F(ServerTest, QueryRegistersInInvalidb) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  db::Query q = Q("t", R"({"g":1})");
  (void)GetQuery(q);
  EXPECT_TRUE(server_->invalidb().IsRegistered(q.NormalizedKey()));
  EXPECT_TRUE(server_->active_list().IsRegistered(q.NormalizedKey()));
}

TEST_F(ServerTest, InvalidationFlowEndToEnd) {
  // The Figure 7 pipeline: cache query → write a matching record →
  // InvaliDB detects → EBF flags the query → CDN purge issued.
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  db::Query q = Q("t", R"({"g":1})");
  (void)GetQuery(q);
  clock_.Advance(1 * kSecond);
  purged_.clear();

  db::Update u;
  u.Set("g", db::Value(2));  // leaves the result set
  ASSERT_TRUE(server_->Update("t", "1", u).ok());

  const std::string key = q.NormalizedKey();
  EXPECT_TRUE(server_->ebf().IsStale(key));
  EXPECT_TRUE(server_->BloomSnapshot().MaybeContains(key));
  EXPECT_NE(std::find(purged_.begin(), purged_.end(), key), purged_.end());
  EXPECT_GE(server_->stats().query_invalidations, 1u);
}

TEST_F(ServerTest, NonMatchingWriteDoesNotInvalidateQuery) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "2", Doc(R"({"g":9})")).ok());
  db::Query q = Q("t", R"({"g":1})");
  (void)GetQuery(q);
  clock_.Advance(1 * kSecond);
  db::Update u;
  u.Set("x", db::Value(1));  // t/2 never matched and still doesn't
  ASSERT_TRUE(server_->Update("t", "2", u).ok());
  EXPECT_FALSE(server_->ebf().IsStale(q.NormalizedKey()));
}

TEST_F(ServerTest, QueryEtagStableAcrossIdenticalResults) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  db::Query q = Q("t", R"({"g":1})");
  auto r1 = GetQuery(q);
  auto r2 = GetQuery(q);
  EXPECT_EQ(r1.etag, r2.etag);
  // Conditional fetch revalidates to 304.
  webcache::HttpRequest req;
  req.key = q.NormalizedKey();
  req.has_if_none_match = true;
  req.if_none_match = r1.etag;
  auto r3 = server_->Fetch(req);
  EXPECT_TRUE(r3.not_modified);
}

// ---------------------------------------------------------------------------
// Query-result reuse: a fetch whose result stamp is still current (no
// commit to the index keys it read, or to its table for plans without
// slots) is served from the memo without executing it.
// ---------------------------------------------------------------------------

/// Parsed body of a query response (object-list): id → document.
std::map<std::string, db::Value> Members(const webcache::HttpResponse& resp) {
  auto qr = QueryResponse::FromJson(resp.body);
  EXPECT_TRUE(qr.ok()) << resp.body;
  std::map<std::string, db::Value> out;
  if (!qr.ok()) return out;
  for (size_t i = 0; i < qr->ids.size(); ++i) {
    out[qr->ids[i]] = i < qr->docs.size() ? qr->docs[i] : db::Value();
  }
  return out;
}

TEST_F(ServerTest, QueryReuseSkipsExecutionWithoutInterveningWrite) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "2", Doc(R"({"g":1})")).ok());
  const db::Query q = Q("t", R"({"g":1})");
  const auto first = GetQuery(q);
  ASSERT_TRUE(first.ok);
  const uint64_t executed = db_.stats().queries;

  clock_.Advance(1 * kSecond);
  const auto second = GetQuery(q);
  EXPECT_EQ(db_.stats().queries, executed);
  EXPECT_EQ(second.etag, first.etag);
  EXPECT_EQ(second.body, first.body);
  EXPECT_EQ(second.last_modified, first.last_modified);
  EXPECT_GT(second.ttl, 0);

  // A write to another table leaves this table's commit count alone.
  ASSERT_TRUE(server_->Insert("u", "1", Doc(R"({"g":1})")).ok());
  const auto third = GetQuery(q);
  EXPECT_EQ(db_.stats().queries, executed);
  EXPECT_EQ(third.etag, first.etag);

  // Revalidation on a reused result is still a 304.
  webcache::HttpRequest req;
  req.key = q.NormalizedKey();
  req.has_if_none_match = true;
  req.if_none_match = first.etag;
  EXPECT_TRUE(server_->Fetch(req).not_modified);
  EXPECT_EQ(db_.stats().queries, executed);

  // Reuse re-issues the member TTLs: the members stay tracked, so a later
  // write still flags them.
  db::Update u;
  u.Set("x", db::Value(1));
  ASSERT_TRUE(server_->Update("t", "2", u).ok());
  EXPECT_TRUE(server_->ebf().IsStale("t/2"));
}

class QueryReuseTest : public ServerTest {
 protected:
  /// Accepts every call and never answers.
  struct SilentPipeline : invalidb::Pipeline {
    Status RegisterQuery(const db::Query&, const std::vector<db::Document>&,
                         Micros) override {
      return Status::OK();
    }
    void DeregisterQuery(const std::string&) override {}
    void OnChange(const db::ChangeEvent&) override {}
    bool Healthy() const override { return true; }
  };
  SilentPipeline silent_;

  /// Applies one mutation of each kind and checks that the next fetch
  /// reflects it. With `notifications_arrive` false the server runs
  /// against an external pipeline that never answers, as a remote one
  /// that has not answered yet: no notification erases the memo, so the
  /// table commit count alone must force the re-execution.
  void CheckEveryMutationKind(bool notifications_arrive);

  /// Makes the server run against an external pipeline that never
  /// answers: no notification erases a memo entry, so the result stamps
  /// alone decide reuse.
  void SilencePipeline() { server_->SetPipeline(&silent_); }

  /// Fetches `q` into *resp; returns whether the fetch executed it.
  bool FetchExecutes(const db::Query& q, webcache::HttpResponse* resp) {
    const uint64_t executed = db_.stats().queries;
    *resp = GetQuery(q);
    EXPECT_TRUE(resp->ok);
    return db_.stats().queries != executed;
  }

  /// A silent-pipeline server over table t, indexed on g, holding
  /// 1 {g:1}, 2 {g:1} and 9 {g:9}.
  void MakeIndexedTable() {
    MakeServer();
    SilencePipeline();
    db_.GetOrCreateTable("t")->CreateIndex("g");
    ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
    ASSERT_TRUE(server_->Insert("t", "2", Doc(R"({"g":1})")).ok());
    ASSERT_TRUE(server_->Insert("t", "9", Doc(R"({"g":9})")).ok());
  }
};

/// Ids of a fresh execution of `q`, as record keys.
std::vector<std::string> FreshIds(const db::Database& db, const db::Query& q) {
  std::vector<std::string> ids;
  for (const db::Document& d : db.Execute(q)) ids.push_back(d.Key());
  return ids;
}

std::vector<std::string> ServedIds(const webcache::HttpResponse& resp) {
  auto qr = QueryResponse::FromJson(resp.body);
  EXPECT_TRUE(qr.ok()) << resp.body;
  return qr.ok() ? qr->ids : std::vector<std::string>();
}

void QueryReuseTest::CheckEveryMutationKind(bool notifications_arrive) {
  MakeServer();
  if (!notifications_arrive) SilencePipeline();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "2", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "9", Doc(R"({"g":9})")).ok());
  const db::Query q = Q("t", R"({"g":1})");
  auto prev = GetQuery(q);
  ASSERT_TRUE(prev.ok);

  // Runs `mutate`, then fetches twice: the first fetch must execute and
  // reflect the mutation, the second must reuse that result.
  auto after = [&](const char* what, auto mutate) {
    clock_.Advance(1 * kSecond);
    mutate();
    const Micros committed = clock_.NowMicros();
    const uint64_t executed = db_.stats().queries;
    auto resp = GetQuery(q);
    EXPECT_TRUE(resp.ok) << what;
    EXPECT_EQ(db_.stats().queries, executed + 1) << what;
    auto again = GetQuery(q);
    EXPECT_EQ(db_.stats().queries, executed + 1) << what;
    EXPECT_EQ(again.etag, resp.etag) << what;
    EXPECT_EQ(again.body, resp.body) << what;
    return std::make_pair(resp, committed);
  };

  {  // An insert that joins the result.
    auto [resp, t] = after("insert", [&] {
      ASSERT_TRUE(server_->Insert("t", "3", Doc(R"({"g":1,"n":3})")).ok());
    });
    EXPECT_NE(resp.etag, prev.etag);
    EXPECT_EQ(Members(resp).count("t/3"), 1u);
    EXPECT_EQ(resp.last_modified, t);
    prev = resp;
  }
  {  // An update of a member.
    auto [resp, t] = after("member update", [&] {
      db::Update u;
      u.Set("x", db::Value(5));
      ASSERT_TRUE(server_->Update("t", "1", u).ok());
    });
    EXPECT_NE(resp.etag, prev.etag);
    const auto members = Members(resp);
    ASSERT_EQ(members.count("t/1"), 1u);
    ASSERT_NE(members.at("t/1").Find("x"), nullptr);
    EXPECT_EQ(members.at("t/1").Find("x")->as_int(), 5);
    EXPECT_EQ(resp.last_modified, t);
    prev = resp;
  }
  {  // An update that leaves the result.
    auto [resp, t] = after("leaving update", [&] {
      db::Update u;
      u.Set("g", db::Value(2));
      ASSERT_TRUE(server_->Update("t", "2", u).ok());
    });
    EXPECT_NE(resp.etag, prev.etag);
    EXPECT_EQ(Members(resp).count("t/2"), 0u);
    // A removal's commit time reaches Last-Modified via its notification.
    if (notifications_arrive) {
      EXPECT_EQ(resp.last_modified, t);
    }
    prev = resp;
  }
  {  // A delete.
    auto [resp, t] = after("delete", [&] {
      ASSERT_TRUE(server_->Delete("t", "3").ok());
    });
    EXPECT_NE(resp.etag, prev.etag);
    EXPECT_EQ(Members(resp).count("t/3"), 0u);
    if (notifications_arrive) {
      EXPECT_EQ(resp.last_modified, t);
    }
    prev = resp;
  }
  {  // A write to a non-member leaves the result as it was: the execution
     // refreshes the stamp (checked by `after`) and keeps the etag.
    auto [resp, t] = after("non-member update", [&] {
      db::Update u;
      u.Set("x", db::Value(1));
      ASSERT_TRUE(server_->Update("t", "9", u).ok());
    });
    EXPECT_EQ(resp.etag, prev.etag);
    EXPECT_EQ(resp.body, prev.body);
    EXPECT_EQ(resp.last_modified, prev.last_modified);
  }
  {  // Index DDL executes again without changing the result.
    auto [resp, t] = after("create index", [&] {
      db_.GetOrCreateTable("t")->CreateIndex("g");
    });
    EXPECT_EQ(resp.etag, prev.etag);
    EXPECT_EQ(resp.body, prev.body);
  }
  {
    auto [resp, t] = after("drop index", [&] {
      db_.GetOrCreateTable("t")->DropIndex("g");
    });
    EXPECT_EQ(resp.etag, prev.etag);
    EXPECT_EQ(resp.body, prev.body);
  }
}

TEST_F(QueryReuseTest, EveryMutationKindForcesExecution) {
  CheckEveryMutationKind(/*notifications_arrive=*/true);
}

TEST_F(QueryReuseTest, CommitCountAloneForcesExecution) {
  CheckEveryMutationKind(/*notifications_arrive=*/false);
}

TEST_F(QueryReuseTest, WriteOutsideTheBucketIsServedWithoutExecution) {
  MakeIndexedTable();
  const db::Query q = Q("t", R"({"g":1})");
  const auto first = GetQuery(q);
  ASSERT_TRUE(first.ok);
  auto outside = [&](const char* what, auto mutate) {
    mutate();
    webcache::HttpResponse resp;
    EXPECT_FALSE(FetchExecutes(q, &resp)) << what;
    EXPECT_EQ(resp.etag, first.etag) << what;
    EXPECT_EQ(resp.body, first.body) << what;
  };
  outside("counter bump", [&] {
    db::Update u;
    u.Inc("n", db::Value(1));
    ASSERT_TRUE(server_->Update("t", "9", u).ok());
  });
  outside("move between other buckets", [&] {
    db::Update u;
    u.Set("g", db::Value(8));
    ASSERT_TRUE(server_->Update("t", "9", u).ok());
  });
  outside("insert", [&] {
    ASSERT_TRUE(server_->Insert("t", "10", Doc(R"({"g":[5,6]})")).ok());
  });
  outside("delete", [&] { ASSERT_TRUE(server_->Delete("t", "10").ok()); });
  outside("missing field", [&] {
    ASSERT_TRUE(server_->Insert("t", "11", Doc(R"({"x":1})")).ok());
  });
}

TEST_F(QueryReuseTest, EveryWriteThatCanChangeTheBucketForcesExecution) {
  MakeIndexedTable();
  const db::Query q = Q("t", R"({"g":1})");
  ASSERT_TRUE(GetQuery(q).ok);
  // Runs `mutate`; the next fetch must execute and match the database,
  // the one after must reuse it.
  auto inside = [&](const char* what, auto mutate) {
    mutate();
    webcache::HttpResponse resp;
    EXPECT_TRUE(FetchExecutes(q, &resp)) << what;
    EXPECT_EQ(ServedIds(resp), FreshIds(db_, q)) << what;
    webcache::HttpResponse again;
    EXPECT_FALSE(FetchExecutes(q, &again)) << what;
    EXPECT_EQ(again.body, resp.body) << what;
  };
  inside("member update", [&] {
    db::Update u;
    u.Set("x", db::Value(5));
    ASSERT_TRUE(server_->Update("t", "1", u).ok());
  });
  inside("member counter bump", [&] {
    db::Update u;
    u.Inc("n", db::Value(1));
    ASSERT_TRUE(server_->Update("t", "1", u).ok());
  });
  inside("move in", [&] {
    db::Update u;
    u.Set("g", db::Value(1));
    ASSERT_TRUE(server_->Update("t", "9", u).ok());
  });
  inside("move out", [&] {
    db::Update u;
    u.Set("g", db::Value(2));
    ASSERT_TRUE(server_->Update("t", "2", u).ok());
  });
  inside("insert", [&] {
    ASSERT_TRUE(server_->Insert("t", "3", Doc(R"({"g":[0,1]})")).ok());
  });
  inside("delete", [&] { ASSERT_TRUE(server_->Delete("t", "1").ok()); });
  inside("double key", [&] {
    ASSERT_TRUE(server_->Insert("t", "4", Doc(R"({"g":1.0})")).ok());
  });
}

TEST_F(QueryReuseTest, WriteToAnyInElementForcesExecution) {
  MakeIndexedTable();
  ASSERT_TRUE(server_->Insert("t", "3", Doc(R"({"g":3})")).ok());
  const db::Query q = Q("t", R"({"g":{"$in":[1,3]}})");
  ASSERT_TRUE(GetQuery(q).ok);
  auto bump = [&](const char* id) {
    db::Update u;
    u.Inc("n", db::Value(1));
    ASSERT_TRUE(server_->Update("t", id, u).ok());
  };
  webcache::HttpResponse resp;
  bump("9");
  EXPECT_FALSE(FetchExecutes(q, &resp));
  bump("3");
  EXPECT_TRUE(FetchExecutes(q, &resp));
  bump("1");
  EXPECT_TRUE(FetchExecutes(q, &resp));
  EXPECT_FALSE(FetchExecutes(q, &resp));
  EXPECT_EQ(ServedIds(resp), FreshIds(db_, q));
}

TEST_F(QueryReuseTest, PlansWithoutSlotsKeepTheTableWideRule) {
  MakeIndexedTable();
  // A range scan, and a $in past the slot cap, depend on the whole table.
  for (const char* filter :
       {R"({"g":{"$gt":5}})", R"({"g":{"$in":[1,2,3,4,5,6,7,8,10]}})"}) {
    const db::Query q = Q("t", filter);
    const auto first = GetQuery(q);
    ASSERT_TRUE(first.ok) << filter;
    webcache::HttpResponse resp;
    EXPECT_FALSE(FetchExecutes(q, &resp)) << filter;
    ASSERT_TRUE(server_->Insert("t", "20", Doc(R"({"g":-1})")).ok());
    EXPECT_TRUE(FetchExecutes(q, &resp)) << filter;
    EXPECT_EQ(resp.etag, first.etag) << filter;
    ASSERT_TRUE(server_->Delete("t", "20").ok());
  }
}

/// Interleaves fetches with random writes and index DDL over keys that
/// are equal under Value::Compare in different guises (1 and 1.0, 0 and
/// -0.0), arrays, nulls and missing fields. Every fetch must serve what a
/// fresh execution returns, whether it executed or reused the memo.
TEST_F(QueryReuseTest, RandomizedFetchesMatchAFreshExecution) {
  const char* const kValues[] = {"1",     "1.0",   "2",         "2.5",
                                 "0",     "-0.0",  "\"a\"",     "null",
                                 "[1,2]", "[2,\"a\"]", "{\"k\":1}"};
  const char* const kTags[] = {"[]", "[\"x\"]", "[\"x\",\"y\"]", "[\"y\"]",
                               "\"x\""};
  const char* const kFilters[] = {
      R"({"g":1})",
      R"({"g":1.0})",
      R"({"g":2})",
      R"({"g":0})",
      R"({"g":"a"})",
      R"({"g":[1,2]})",
      R"({"g":{"$in":[1,"a"]}})",
      R"({"g":{"$in":[2,2.5,-0.0]}})",
      R"({"g":{"$in":[2,null]}})",
      R"({"g":{"$in":[0,1,2,3,4,5,6,7,8]}})",
      R"({"g":{"$gte":2}})",
      R"({"g":null})",
      R"({"tags":"x"})",
      R"({"tags":{"$in":["x","y"]}})",
      R"({"g":1,"n":{"$gt":2}})",
      R"({"n":{"$lt":3}})",
  };
  const char* const kPaths[] = {"g", "tags", "n"};
  MakeServer();
  SilencePipeline();

  size_t fetches = 0;
  size_t reused = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    // One table per seed: the server (and its change listener) outlives
    // the seeds.
    const std::string table = "t" + std::to_string(seed);
    std::vector<db::Query> queries;
    for (const char* f : kFilters) queries.push_back(Q(table.c_str(), f));
    db::Query top = Q(table.c_str(), R"({"g":2})");
    top.SetOrderBy({{"n", false}}).SetLimit(2);
    queries.push_back(top);
    db::Table* t = db_.GetOrCreateTable(table);
    t->CreateIndex("g");
    t->CreateIndex("tags");
    Rng rng(seed);
    auto pick = [&](const auto& options) {
      return options[rng.NextUint64(std::size(options))];
    };
    for (int step = 0; step < 600; ++step) {
      const std::string id = std::to_string(rng.NextUint64(12));
      db::Update u;
      switch (rng.NextUint64(8)) {
        case 0:
        case 1: {
          db::Object body;
          if (rng.NextBool(0.8)) body["g"] = Doc(pick(kValues));
          body["n"] = db::Value(static_cast<int64_t>(rng.NextUint64(5)));
          body["tags"] = Doc(pick(kTags));
          (void)server_->Insert(table, id, db::Value(std::move(body)));
          break;
        }
        case 2:  // moves between buckets
          (void)server_->Update(table, id, u.Set("g", Doc(pick(kValues))));
          break;
        case 3:  // counter bump: index keys unchanged
          (void)server_->Update(table, id, u.Inc("n", db::Value(1)));
          break;
        case 4:
          (void)server_->Update(table, id, u.Push("tags", Doc("\"x\"")));
          break;
        case 5:
          (void)server_->Update(table, id, u.Unset("g"));
          break;
        case 6:
          (void)server_->Delete(table, id);
          break;
        case 7:
          if (rng.NextBool(0.1)) {
            const std::string path = pick(kPaths);
            if (t->HasIndex(path)) {
              t->DropIndex(path);
            } else {
              t->CreateIndex(path);
            }
          }
          break;
      }
      for (int f = 0; f < 3; ++f) {
        const db::Query& q = queries[rng.NextUint64(queries.size())];
        webcache::HttpResponse resp;
        if (!FetchExecutes(q, &resp)) ++reused;
        ++fetches;
        const std::vector<db::Document> fresh = db_.Execute(q);
        QueryResponse expected;
        for (const db::Document& d : fresh) {
          expected.ids.push_back(d.Key());
          expected.versions.push_back(d.version);
        }
        ASSERT_EQ(resp.etag, expected.ComputeEtag())
            << "seed " << seed << " step " << step << " "
            << q.NormalizedKey();
        ASSERT_EQ(ServedIds(resp), expected.ids)
            << "seed " << seed << " step " << step << " "
            << q.NormalizedKey();
      }
    }
  }
  // Not vacuous: a good share of the fetches were served from the memo.
  EXPECT_GT(reused, fetches / 10) << reused << " of " << fetches;
}

TEST_F(ServerTest, QueryReuseFallsBackWhenDegraded) {
  ServerOptions opts;
  opts.degradation.enabled = true;
  MakeServer(opts);
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  const db::Query q = Q("t", R"({"g":1})");
  const auto healthy = GetQuery(q);
  server_->SetDegraded(true);
  const uint64_t executed = db_.stats().queries;
  const auto a = GetQuery(q);
  const auto b = GetQuery(q);
  EXPECT_EQ(db_.stats().queries, executed + 2);
  EXPECT_EQ(a.etag, healthy.etag);
  EXPECT_EQ(b.etag, healthy.etag);
  EXPECT_LE(b.ttl, opts.degradation.degraded_ttl_cap);
}

TEST_F(ServerTest, QueryReuseFallsBackOnRepresentationSwitch) {
  ServerOptions opts;
  opts.representation = RepresentationPolicy::kAuto;
  MakeServer(opts);
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  const db::Query q = Q("t", R"({"g":1})");
  auto resp = GetQuery(q);
  ASSERT_EQ(QueryResponse::FromJson(resp.body)->representation,
            ttl::ResultRepresentation::kObjectList);
  // Frequent in-place member changes make id-lists the cheaper choice
  // once the sticky decision is re-evaluated.
  for (int i = 0; i < 20; ++i) {
    db::Update u;
    u.Set("x", db::Value(static_cast<int64_t>(i)));
    ASSERT_TRUE(server_->Update("t", "1", u).ok());
  }
  resp = GetQuery(q);  // executes (the table changed); decision still sticky
  ASSERT_EQ(QueryResponse::FromJson(resp.body)->representation,
            ttl::ResultRepresentation::kObjectList);
  const uint64_t executed = db_.stats().queries;
  clock_.Advance(6 * kSecond);
  resp = GetQuery(q);
  EXPECT_EQ(QueryResponse::FromJson(resp.body)->representation,
            ttl::ResultRepresentation::kIdList);
  EXPECT_GT(db_.stats().queries, executed);
  EXPECT_TRUE(server_->invalidb().IsRegistered(q.NormalizedKey()));
}

// A query is registered with every event it can emit, and the server's
// filter decides which of them invalidate a cached copy: an id-list copy
// is not flagged by an in-place member change, only by an add or a remove,
// and a sorted id-list copy also by a move inside its window.
TEST_F(ServerTest, IdListCopyIgnoresInPlaceChangesButNotMembershipOrMoves) {
  ServerOptions opts;
  opts.representation = RepresentationPolicy::kAlwaysIdList;
  MakeServer(opts);
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "2", Doc(R"({"g":2})")).ok());
  for (int i = 0; i < 3; ++i) {
    const std::string body = "{\"n\":" + std::to_string(i * 10) + "}";
    ASSERT_TRUE(server_->Insert("s", std::to_string(i), Doc(body.c_str())).ok());
  }
  const db::Query adds = Q("t", R"({"g":1})");
  const db::Query removes = Q("t", R"({"g":2})");
  db::Query top = Q("s", "{}");
  top.SetOrderBy({{"n", false}}).SetLimit(2);  // window {s/2, s/1}
  for (const db::Query& q : {adds, removes, top}) {
    auto resp = GetQuery(q);
    ASSERT_EQ(QueryResponse::FromJson(resp.body)->representation,
              ttl::ResultRepresentation::kIdList);
  }
  clock_.Advance(kSecond);
  const auto set = [&](const char* table, const char* id, const char* field,
                       int64_t value) {
    ASSERT_TRUE(
        server_->Update(table, id, db::Update().Set(field, db::Value(value)))
            .ok());
  };
  const auto stale = [&](const db::Query& q) {
    return server_->ebf().IsStale(q.NormalizedKey());
  };

  set("t", "1", "x", 1);
  set("t", "2", "x", 1);
  set("s", "1", "x", 1);  // a window member changes but keeps its place
  EXPECT_FALSE(stale(adds));
  EXPECT_FALSE(stale(removes));
  EXPECT_FALSE(stale(top));

  ASSERT_TRUE(server_->Insert("t", "3", Doc(R"({"g":1})")).ok());
  EXPECT_TRUE(stale(adds));
  set("t", "2", "g", 3);
  EXPECT_TRUE(stale(removes));
  set("s", "1", "n", 30);  // s/1 overtakes s/2 inside the window
  EXPECT_TRUE(stale(top));
}

// kAuto sees every in-place change, also after it switched a query to
// id-lists (the filter, not the registration, keeps those changes from
// invalidating the id-list). The change rate it weighs against the read
// rate therefore stays true, and the decision does not drift back to
// object-lists while the members keep changing.
TEST_F(ServerTest, AutoIdListStaysWhileMembersKeepChangingInPlace) {
  ServerOptions opts;
  opts.representation = RepresentationPolicy::kAuto;
  MakeServer(opts);
  constexpr int kMembers = 20;
  for (int i = 0; i < kMembers; ++i) {
    ASSERT_TRUE(
        server_->Insert("t", std::to_string(i), Doc(R"({"g":1})")).ok());
  }
  const db::Query q = Q("t", R"({"g":1})");
  const auto representation = [&] {
    return QueryResponse::FromJson(GetQuery(q).body)->representation;
  };
  const auto change_in_place = [&](int round) {
    ASSERT_TRUE(server_
                    ->Update("t", std::to_string(round % kMembers),
                             db::Update().Set("x", db::Value(int64_t{round})))
                    .ok());
  };
  ASSERT_EQ(representation(), ttl::ResultRepresentation::kObjectList);
  change_in_place(0);
  clock_.Advance(6 * kSecond);
  ASSERT_EQ(representation(), ttl::ResultRepresentation::kIdList);
  // One in-place change per decision interval against 60 reads: far more
  // change cost than an id-list's assembly cost, as long as the changes
  // are counted.
  for (int round = 1; round <= 6; ++round) {
    change_in_place(round);
    for (int r = 0; r < 60; ++r) ASSERT_TRUE(GetQuery(q).ok);
    clock_.Advance(6 * kSecond);
    EXPECT_EQ(representation(), ttl::ResultRepresentation::kIdList)
        << "decision interval " << round;
  }
}

TEST_F(ServerTest, QueryReuseFallsBackAfterEviction) {
  ServerOptions opts;
  opts.query_capacity = 1;
  MakeServer(opts);
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "2", Doc(R"({"g":2})")).ok());
  const db::Query q1 = Q("t", R"({"g":1})");
  const db::Query q2 = Q("t", R"({"g":2})");
  (void)GetQuery(q1);
  (void)GetQuery(q2);
  (void)GetQuery(q2);
  (void)GetQuery(q2);
  ASSERT_FALSE(server_->invalidb().IsRegistered(q1.NormalizedKey()));
  const uint64_t executed = db_.stats().queries;
  const auto resp = GetQuery(q1);
  EXPECT_TRUE(resp.ok);
  EXPECT_GT(db_.stats().queries, executed);
  EXPECT_EQ(Members(resp).count("t/1"), 1u);
}

TEST_F(ServerTest, QueryTtlFeedbackViaEwma) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  db::Query q = Q("t", R"({"g":1})");
  (void)GetQuery(q);
  // Invalidate after 5 s: the estimator learns the 5 s actual TTL.
  clock_.Advance(5 * kSecond);
  db::Update u;
  u.Set("g", db::Value(2));
  ASSERT_TRUE(server_->Update("t", "1", u).ok());
  EXPECT_EQ(server_->ttl_estimator().TrackedQueries(), 1u);
  const Micros learned =
      server_->ttl_estimator().QueryTtl(q.NormalizedKey(), {});
  EXPECT_EQ(learned, 5 * kSecond);
}

TEST_F(ServerTest, IdListPolicyServesIds) {
  ServerOptions opts;
  opts.representation = RepresentationPolicy::kAlwaysIdList;
  MakeServer(opts);
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  auto resp = GetQuery(Q("t", R"({"g":1})"));
  auto qr = QueryResponse::FromJson(resp.body);
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->representation, ttl::ResultRepresentation::kIdList);
  EXPECT_TRUE(qr->docs.empty());
}

// A table whose reads are not public is served uncacheable: records and
// queries get TTL 0, and no query is registered in InvaliDB.
TEST_F(ServerTest, CachingDisabledYieldsZeroTtl) {
  MakeServer();
  server_->auth().ProtectTable("t", "reader");
  server_->auth().RegisterSession("tok", Credentials::User({"reader"}));
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  webcache::HttpRequest req;
  req.auth_token = "tok";
  req.key = "t/1";
  const auto record = server_->Fetch(req);
  ASSERT_TRUE(record.ok);
  EXPECT_EQ(record.ttl, 0);
  const db::Query q = Q("t", R"({"g":1})");
  server_->RegisterQueryShape(q);
  req.key = q.NormalizedKey();
  const auto query = server_->Fetch(req);
  ASSERT_TRUE(query.ok);
  EXPECT_EQ(query.ttl, 0);
  EXPECT_EQ(server_->invalidb().RegisteredCount(), 0u);
}

TEST_F(ServerTest, CapacityEvictionDeregistersAndFlagsVictim) {
  ServerOptions opts;
  opts.query_capacity = 1;
  MakeServer(opts);
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "2", Doc(R"({"g":2})")).ok());
  db::Query q1 = Q("t", R"({"g":1})");
  db::Query q2 = Q("t", R"({"g":2})");
  (void)GetQuery(q1);  // admitted
  EXPECT_TRUE(server_->invalidb().IsRegistered(q1.NormalizedKey()));
  // q2 becomes hotter: displaces q1.
  (void)GetQuery(q2);
  (void)GetQuery(q2);
  (void)GetQuery(q2);
  EXPECT_TRUE(server_->invalidb().IsRegistered(q2.NormalizedKey()));
  EXPECT_FALSE(server_->invalidb().IsRegistered(q1.NormalizedKey()));
  // The victim's outstanding cached copies are conservatively stale.
  EXPECT_TRUE(server_->ebf().IsStale(q1.NormalizedKey()));
}

TEST_F(ServerTest, StatefulQueryServedWindowedButRegisteredUnwindowed) {
  MakeServer();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server_
                    ->Insert("t", std::to_string(i),
                             Doc(("{\"n\":" + std::to_string(i) + "}")
                                     .c_str()))
                    .ok());
  }
  db::Query q = Q("t", "{}");
  q.SetOrderBy({{"n", false}}).SetLimit(2);
  auto resp = GetQuery(q);
  auto qr = QueryResponse::FromJson(resp.body);
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->ids, (std::vector<std::string>{"t/4", "t/3"}));
  // The sorted window is tracked; a new top element invalidates it.
  clock_.Advance(1 * kSecond);
  ASSERT_TRUE(server_->Insert("t", "9", Doc(R"({"n":99})")).ok());
  EXPECT_TRUE(server_->ebf().IsStale(q.NormalizedKey()));
}

TEST_F(ServerTest, StatefulQueryNotInvalidatedByOutOfWindowChange) {
  MakeServer();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server_
                    ->Insert("t", std::to_string(i),
                             Doc(("{\"n\":" + std::to_string(i) + "}")
                                     .c_str()))
                    .ok());
  }
  db::Query q = Q("t", "{}");
  q.SetOrderBy({{"n", false}}).SetLimit(2);
  (void)GetQuery(q);
  clock_.Advance(1 * kSecond);
  // Insert below the window: window [t/4, t/3] unchanged.
  ASSERT_TRUE(server_->Insert("t", "low", Doc(R"({"n":-1})")).ok());
  EXPECT_FALSE(server_->ebf().IsStale(q.NormalizedKey()));
}

TEST_F(ServerTest, BloomSnapshotCountsRequests) {
  MakeServer();
  (void)server_->BloomSnapshot();
  (void)server_->BloomSnapshot();
  EXPECT_EQ(server_->stats().bloom_filter_requests, 2u);
}

TEST_F(ServerTest, DeleteInvalidatesQueriesAndRecord) {
  MakeServer();
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  db::Query q = Q("t", R"({"g":1})");
  (void)GetQuery(q);
  (void)Get("t/1");
  clock_.Advance(1 * kSecond);
  ASSERT_TRUE(server_->Delete("t", "1").ok());
  EXPECT_TRUE(server_->ebf().IsStale("t/1"));
  EXPECT_TRUE(server_->ebf().IsStale(q.NormalizedKey()));
}

// One notification delivery that names a query key twice runs the stale-
// key pass once per distinct key, while counters, TTL feedback and taps
// still see every notification.
TEST_F(ServerTest, NotificationBatchCoalescesPerDistinctKey) {
  MakeServer();
  std::vector<invalidb::Notification> taps;
  server_->AddNotificationTap(
      [&](const std::vector<invalidb::Notification>& batch) {
        taps.insert(taps.end(), batch.begin(), batch.end());
      });
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("t", "2", Doc(R"({"g":2})")).ok());
  const std::string a = Q("t", R"({"g":1})").NormalizedKey();
  const std::string b = Q("t", R"({"g":2})").NormalizedKey();
  ASSERT_TRUE(GetQuery(Q("t", R"({"g":1})")).ok);
  ASSERT_TRUE(GetQuery(Q("t", R"({"g":2})")).ok);
  clock_.Advance(1 * kSecond);
  purged_.clear();
  const uint64_t invalidations_before = server_->stats().query_invalidations;
  const uint64_t flags_before =
      server_->ebf().AggregateStats().invalidations_reported;

  const auto notification = [&](const std::string& key,
                                const std::string& id) {
    invalidb::Notification n;
    n.type = invalidb::NotificationType::kChange;
    n.query_key = key;
    n.record_id = id;
    n.event_time = clock_.NowMicros();
    return n;
  };
  server_->OnNotificationBatch(
      {notification(a, "1"), notification(a, "3"), notification(b, "2")});

  EXPECT_EQ(std::count(purged_.begin(), purged_.end(), a), 1);
  EXPECT_EQ(std::count(purged_.begin(), purged_.end(), b), 1);
  EXPECT_EQ(purged_.size(), 2u);
  EXPECT_EQ(server_->ebf().AggregateStats().invalidations_reported -
                flags_before,
            2u);
  EXPECT_TRUE(server_->ebf().IsStale(a));
  EXPECT_TRUE(server_->ebf().IsStale(b));
  EXPECT_EQ(server_->stats().query_invalidations - invalidations_before, 3u);
  ASSERT_EQ(taps.size(), 3u);
  EXPECT_EQ(taps[0].query_key, a);
  EXPECT_EQ(taps[1].query_key, a);
  EXPECT_EQ(taps[1].record_id, "3");
  EXPECT_EQ(taps[2].query_key, b);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(AdmissionControllerTest, DisabledAdmitsEverythingStateless) {
  AdmissionController ctrl;  // enabled = false
  for (int i = 0; i < 1000; ++i) {
    Micros delay = 99;
    EXPECT_TRUE(ctrl.Admit(0, RequestContext(), &delay).ok());
    EXPECT_EQ(delay, 0);
  }
  EXPECT_EQ(ctrl.QueueDelay(0), 0);
  EXPECT_FALSE(ctrl.shedding());
  EXPECT_EQ(ctrl.stats().total_admitted(), 0u);
}

TEST(AdmissionControllerTest, QueueDelayGrowsWithAdmissions) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.max_concurrent = 2;
  opts.service_cost = 1000;
  AdmissionController ctrl(opts);
  // Two free workers absorb two requests with zero delay.
  Micros delay = 0;
  EXPECT_TRUE(ctrl.Admit(0, RequestContext(), &delay).ok());
  EXPECT_EQ(delay, 0);
  EXPECT_TRUE(ctrl.Admit(0, RequestContext(), &delay).ok());
  EXPECT_EQ(delay, 0);
  // The third waits for the earliest worker.
  EXPECT_TRUE(ctrl.Admit(0, RequestContext(), &delay).ok());
  EXPECT_EQ(delay, 1000);
  // Idle time drains the queue.
  EXPECT_EQ(ctrl.QueueDelay(10'000), 0);
}

TEST(AdmissionControllerTest, CodelEngagesOnlyAfterSustainedExcess) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.max_concurrent = 1;
  opts.service_cost = 1000;
  opts.target_queue_delay = 500;
  opts.codel_interval = 10'000;
  AdmissionController ctrl(opts);
  // Build up delay above target: each admit at t=0 adds 1000us.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ctrl.Admit(0, RequestContext(), nullptr).ok());
  }
  EXPECT_FALSE(ctrl.shedding());  // excess not yet sustained
  // Keep the queue above target past the interval: shedding engages.
  Status last = Status::OK();
  for (Micros t = 1000; t <= 20'000 && last.ok(); t += 1000) {
    last = ctrl.Admit(t, RequestContext(), nullptr);
  }
  EXPECT_TRUE(ctrl.shedding());
  EXPECT_TRUE(last.IsResourceExhausted());
  // Critical traffic still gets through in shedding mode.
  RequestContext critical;
  critical.priority = Priority::kCritical;
  EXPECT_TRUE(ctrl.Admit(20'000, critical, nullptr).ok());
  // A long idle period drains the queue and disengages shedding.
  EXPECT_TRUE(ctrl.Admit(10'000'000, RequestContext(), nullptr).ok());
  EXPECT_FALSE(ctrl.shedding());
}

TEST(AdmissionControllerTest, QueueBoundRejectsEvenCritical) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.max_concurrent = 1;
  opts.service_cost = 1000;
  opts.max_queue = 4;
  opts.target_queue_delay = 1'000'000;  // keep CoDel out of the way
  AdmissionController ctrl(opts);
  RequestContext critical;
  critical.priority = Priority::kCritical;
  Status last = Status::OK();
  int admitted = 0;
  for (int i = 0; i < 50; ++i) {
    last = ctrl.Admit(0, critical, nullptr);
    if (last.ok()) admitted++;
  }
  EXPECT_TRUE(last.IsResourceExhausted());
  // The backlog bound counts requests still holding a worker, so exactly
  // max_queue admissions fit before the hard reject.
  EXPECT_EQ(admitted, 4);
  EXPECT_GT(ctrl.stats().shed_queue_full[0], 0u);
}

TEST(AdmissionControllerTest, DoomedDeadlineRejectedWithoutCharge) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.max_concurrent = 1;
  opts.service_cost = 1000;
  opts.target_queue_delay = 1'000'000;
  AdmissionController ctrl(opts);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ctrl.Admit(0, RequestContext(), nullptr).ok());
  }
  const Micros delay_before = ctrl.QueueDelay(0);
  // Deadline shorter than the queue: rejected, queue unchanged.
  RequestContext doomed = RequestContext::WithTimeout(0, 2000);
  EXPECT_TRUE(ctrl.Admit(0, doomed, nullptr).IsDeadlineExceeded());
  EXPECT_EQ(ctrl.QueueDelay(0), delay_before);
  // A deadline that covers the wait is admitted.
  RequestContext viable = RequestContext::WithTimeout(0, 60'000);
  EXPECT_TRUE(ctrl.Admit(0, viable, nullptr).ok());
}

TEST(AdmissionControllerTest, InjectDelayStallsAllWorkers) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.max_concurrent = 4;
  opts.service_cost = 1000;
  AdmissionController ctrl(opts);
  EXPECT_EQ(ctrl.QueueDelay(0), 0);
  ctrl.InjectDelay(0, 50'000);
  EXPECT_EQ(ctrl.QueueDelay(0), 50'000);
  Micros delay = 0;
  ASSERT_TRUE(ctrl.Admit(0, RequestContext(), &delay).ok());
  EXPECT_EQ(delay, 50'000);
}

TEST_F(ServerTest, AdmissionShedsReadsUnderSustainedOverload) {
  ServerOptions opts;
  opts.admission.enabled = true;
  opts.admission.max_concurrent = 1;
  opts.admission.service_cost = 1000;
  opts.admission.target_queue_delay = 500;
  opts.admission.codel_interval = 2000;
  MakeServer(opts);
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"x":1})")).ok());

  // Hammer Fetch without advancing the clock much: queue delay builds,
  // CoDel engages, and normal-priority reads start coming back shed.
  bool saw_shed = false;
  for (int i = 0; i < 200; ++i) {
    clock_.Advance(100);
    auto resp = Get("t/1");
    if (!resp.ok && resp.shed) saw_shed = true;
  }
  EXPECT_TRUE(saw_shed);
  EXPECT_GT(server_->stats().shed_responses, 0u);
  EXPECT_GT(server_->admission().stats().total_shed(), 0u);
}

TEST_F(ServerTest, ExpiredDeadlineFetchFailsFastWithoutDbWork) {
  ServerOptions opts;
  opts.admission.enabled = true;
  MakeServer(opts);
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"x":1})")).ok());
  clock_.Advance(10 * kSecond);

  webcache::HttpRequest req;
  req.key = "t/1";
  req.context.deadline = clock_.NowMicros() - 1;  // already past
  auto resp = server_->Fetch(req);
  EXPECT_FALSE(resp.ok);
  EXPECT_TRUE(resp.deadline_exceeded);
  EXPECT_FALSE(resp.shed);
  EXPECT_EQ(server_->stats().deadline_exceeded_responses, 1u);
}

TEST_F(ServerTest, AdmissionDisabledResponsesAreByteIdentical) {
  // Same sequence against an admission-enabled-but-idle server and a
  // default server: an idle controller must not change any response.
  SimulatedClock clock_b(0);
  db::Database db_b(&clock_b);
  ServerOptions with;
  with.admission.enabled = false;
  MakeServer();  // default options
  QuaestorServer plain(&clock_b, &db_b, with);

  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"x":1})")).ok());
  ASSERT_TRUE(plain.Insert("t", "1", Doc(R"({"x":1})")).ok());
  for (int i = 0; i < 5; ++i) {
    clock_.Advance(100'000);
    clock_b.Advance(100'000);
    webcache::HttpRequest req;
    req.key = "t/1";
    auto a = server_->Fetch(req);
    auto b = plain.Fetch(req);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.body, b.body);
    EXPECT_EQ(a.etag, b.etag);
    EXPECT_EQ(a.ttl, b.ttl);
  }
}

TEST_F(ServerTest, WritesAreShedBeforeReadsUnderOverload) {
  ServerOptions opts;
  opts.admission.enabled = true;
  opts.admission.max_concurrent = 1;
  opts.admission.service_cost = 1000;
  opts.admission.target_queue_delay = 2000;
  opts.admission.codel_interval = 2000;
  MakeServer(opts);
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"x":1})")).ok());

  // One write + one read per 1000us against a 1000us service cost: the
  // queue settles right at 2x target, where shedding mode drops kLow
  // writes every round but kNormal reads keep being admitted.
  uint64_t write_sheds = 0;
  uint64_t read_sheds = 0;
  for (int i = 0; i < 50; ++i) {
    clock_.Advance(1000);
    db::Update u;
    u.Set("x", db::Value(i));
    if (server_->Update("t", "1", u).status().IsResourceExhausted()) {
      write_sheds++;
    }
    if (!Get("t/1").ok) read_sheds++;
  }
  EXPECT_GT(write_sheds, 0u);
  EXPECT_EQ(read_sheds, 0u);
}

TEST_F(ServerTest, NotificationTapObservesInvalidations) {
  MakeServer();
  std::vector<invalidb::Notification> taps;
  server_->AddNotificationTap(
      [&](const std::vector<invalidb::Notification>& batch) {
        taps.insert(taps.end(), batch.begin(), batch.end());
      });
  ASSERT_TRUE(server_->Insert("t", "1", Doc(R"({"g":1})")).ok());
  db::Query q = Q("t", R"({"g":1})");
  (void)GetQuery(q);
  db::Update u;
  u.Set("g", db::Value(2));
  ASSERT_TRUE(server_->Update("t", "1", u).ok());
  ASSERT_EQ(taps.size(), 1u);
  EXPECT_EQ(taps[0].type, invalidb::NotificationType::kRemove);
}

}  // namespace
}  // namespace quaestor::core
