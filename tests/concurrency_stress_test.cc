// Multithreaded stress over the concurrent read path (tier2; run under
// TSan in CI): the striped web cache, the shared-lock table/database, and
// the server's memoized response bodies — all hammered at once by reader
// and writer threads.
//
// The invariants are chosen to be sound under any interleaving (no
// false positives):
//  - Cache: etags are globally unique and never reused, so after
//    Purge(key) completes, a Get(key) may never return the etag the entry
//    held before the purge — any re-insert carries a fresh etag.
//  - Server: every response body must satisfy
//    FromJson(body).ComputeEtag() == resp.etag, whether it was freshly
//    serialized or replayed from the body memo. A memo entry surviving
//    its etag would fail this immediately.
//  - Record fetches: each 200's etag, body and last_modified belong to
//    one committed version, even when a write lands between the version
//    lookup and the document copy.
//  - Query-result reuse: each record has one writer storing increasing
//    values, so a query fetch that starts after a write returned must
//    show that value or a later one. A result reused across a commit
//    (a broken table commit count / memo stamp handshake) fails this.
//  - Bucket-stamped reuse: a query fetch during which its table saw no
//    commit at all must return what a fresh execution at that commit
//    count returns, and after the writers stop every fetch must.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/query_result.h"
#include "core/server.h"
#include "db/database.h"
#include "db/query.h"
#include "db/update.h"
#include "db/value.h"
#include "webcache/web_cache.h"

namespace quaestor {
namespace {

constexpr int kThreads = 4;

// ---------------------------------------------------------------------------
// Web cache: concurrent Get/Put/Remove/Purge across shards
// ---------------------------------------------------------------------------

TEST(ConcurrencyStressTest, CacheHitNeverReturnsPurgedEtag) {
  SystemClock* clock = SystemClock::Default();
  webcache::InvalidationCache cache(clock, /*max_entries=*/4096,
                                    /*num_shards=*/8);
  ASSERT_GT(cache.num_shards(), 1u);
  constexpr int kKeys = 64;
  constexpr int kOpsPerThread = 8000;
  std::atomic<uint64_t> next_etag{1};

  auto key_of = [](uint64_t x) {
    return "k" + std::to_string(x % kKeys);
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t x =
            static_cast<uint64_t>(i) * 2654435761u + t * 40503u;
        const std::string key = key_of(x);
        switch (x % 7) {
          case 0:
          case 1: {  // writer: fresh globally-unique etag
            const uint64_t etag =
                next_etag.fetch_add(1, std::memory_order_relaxed);
            cache.Put(key, "body-" + std::to_string(etag), etag,
                      (1 + x % 3) * kMicrosPerSecond);
            break;
          }
          case 2: {  // purger with the soundness check
            auto before = cache.GetEvenIfExpired(key);
            cache.Purge(key);
            if (before.has_value()) {
              auto after = cache.Get(key);
              if (after.has_value()) {
                // A hit after the purge must be a newer insert: etags are
                // never reused, so matching the pre-purge etag means the
                // purge failed to remove the entry.
                ASSERT_NE(after->etag, before->etag);
              }
            }
            break;
          }
          case 3:
            cache.Remove(key);
            break;
          case 4:
            (void)cache.GetEvenIfExpired(key);
            break;
          default: {
            auto hit = cache.Get(key);
            if (hit.has_value()) {
              // Entry integrity: body and etag were stored together.
              ASSERT_EQ(hit->body, "body-" + std::to_string(hit->etag));
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const webcache::CacheStats s = cache.stats();
  EXPECT_GT(s.insertions, 0u);
  EXPECT_GT(cache.PurgeCount(), 0u);
  // Accounting stays coherent after the storm.
  EXPECT_LE(cache.Size(), 4096u);
  EXPECT_EQ(cache.Keys().size(), cache.Size());
}

TEST(ConcurrencyStressTest, CacheEvictionAndSweepUnderLoad) {
  SystemClock* clock = SystemClock::Default();
  webcache::ExpirationCache cache(clock, /*max_entries=*/256,
                                  /*num_shards=*/4);
  constexpr int kOpsPerThread = 6000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t x =
            static_cast<uint64_t>(i) * 2654435761u + t * 97u;
        const std::string key = "e" + std::to_string(x % 2048);
        if (x % 3 == 0) {
          cache.Put(key, "v", x + 1, 1 + static_cast<Micros>(x % 100));
        } else {
          (void)cache.Get(key);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  // Capacity is enforced per shard: the global bound holds up to shard
  // skew, and never exceeds the configured total by more than the
  // per-shard rounding.
  EXPECT_LE(cache.Size(), 256u + cache.num_shards());
  const webcache::CacheStats s = cache.stats();
  EXPECT_GT(s.evictions + s.expired_evictions, 0u);
}

// ---------------------------------------------------------------------------
// Table/Database: shared-lock readers racing exclusive writers
// ---------------------------------------------------------------------------

TEST(ConcurrencyStressTest, TableReadersRaceWriters) {
  db::Database database(SystemClock::Default());
  db::Table* table = database.GetOrCreateTable("t");
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(database
                    .Insert("t", "d" + std::to_string(i),
                            db::Value::FromJson(
                                "{\"group\":" + std::to_string(i % 10) + "}")
                                .value())
                    .ok());
  }
  table->CreateIndex("group");
  auto query = db::Query::ParseJson("t", R"({"group":3})");
  ASSERT_TRUE(query.ok());

  constexpr int kOpsPerThread = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t x =
            static_cast<uint64_t>(i) * 2654435761u + t * 7919u;
        const std::string id = "d" + std::to_string(x % 200);
        switch (x % 8) {
          case 0: {  // writer
            db::Update up;
            up.Set("views", db::Value(static_cast<int64_t>(x)));
            (void)database.Apply("t", id, up);
            break;
          }
          case 1:  // registry reader (+ occasional new table)
            ASSERT_NE(database.FindTable("t"), nullptr);
            break;
          case 2: {
            // Every doc an index plan returns must match the predicate.
            for (const db::Document& d : database.Execute(query.value())) {
              const db::Value* g = d.body.Find("group");
              ASSERT_NE(g, nullptr);
              ASSERT_EQ(g->as_int(), 3);
            }
            break;
          }
          case 3:
            (void)table->LiveCount();
            break;
          default: {
            auto doc = database.Get("t", id);
            ASSERT_TRUE(doc.ok());
            ASSERT_GT(doc->version, 0u);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const db::DatabaseStats s = database.stats();
  EXPECT_GT(s.updates, 0u);
  EXPECT_GT(s.reads, 0u);
  EXPECT_GT(s.queries, 0u);
  EXPECT_EQ(table->LiveCount(), 200u);
}

// ---------------------------------------------------------------------------
// Server: memoized bodies racing writes across all three layers
// ---------------------------------------------------------------------------

class ServerMemoStress : public ::testing::Test {
 protected:
  ServerMemoStress()
      : database_(SystemClock::Default()),
        server_(SystemClock::Default(), &database_) {
    for (int i = 0; i < 100; ++i) {
      db::Object o;
      o["group"] = db::Value(static_cast<int64_t>(i % 10));
      o["views"] = db::Value(static_cast<int64_t>(i));
      EXPECT_TRUE(server_
                      .Insert("posts", "p" + std::to_string(i),
                              db::Value(std::move(o)))
                      .ok());
    }
    for (int g = 0; g < 10; ++g) {
      auto q = db::Query::ParseJson("posts",
                                    "{\"group\":" + std::to_string(g) + "}");
      server_.RegisterQueryShape(q.value());
      query_keys_.push_back(q->NormalizedKey());
    }
  }

  db::Database database_;
  core::QuaestorServer server_;
  std::vector<std::string> query_keys_;
};

TEST_F(ServerMemoStress, BodiesConsistentWithEtagsUnderWrites) {
  constexpr int kOpsPerThread = 1200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t x =
            static_cast<uint64_t>(i) * 2654435761u + t * 104729u;
        if (x % 12 == 11) {  // writer: bumps versions => etags => memo death
          db::Update up;
          up.Set("views", db::Value(static_cast<int64_t>(x)));
          (void)server_.Update("posts", "p" + std::to_string(x % 100), up);
          continue;
        }
        webcache::HttpRequest req;
        req.key = x % 3 == 0 ? "posts/p" + std::to_string(x % 100)
                             : query_keys_[x % query_keys_.size()];
        auto resp = server_.Fetch(req);
        ASSERT_TRUE(resp.ok);
        ASSERT_FALSE(resp.body.empty());
        if (req.key.rfind("q:", 0) == 0) {
          // The body (memoized or fresh) must hash to the etag served
          // with it — a memo entry outliving its etag fails here.
          auto parsed = core::QueryResponse::FromJson(resp.body);
          ASSERT_TRUE(parsed.ok()) << resp.body;
          ASSERT_EQ(parsed->ComputeEtag(), resp.etag);
        } else {
          // Record bodies must parse and carry the served version.
          auto doc = database_.Get("posts", req.key.substr(6));
          ASSERT_TRUE(db::Value::FromJson(resp.body).ok());
          ASSERT_TRUE(doc.ok());
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const core::ServerStats s = server_.stats();
  EXPECT_GT(s.body_memo_misses, 0u);
  EXPECT_GT(s.writes, 0u);
}

TEST_F(ServerMemoStress, ReusedQueryResultsNeverPredateAFinishedWrite) {
  constexpr int kWriters = 2;
  constexpr int kFetchers = 2;
  constexpr int kWritesPerWriter = 1500;
  // Last value each record's (single) writer has committed and returned.
  std::array<std::atomic<int64_t>, 100> committed;
  for (auto& c : committed) c.store(-1);
  std::atomic<bool> done{false};
  // Writers start once every fetcher is running, and yield after each
  // write, so fetches interleave with commits.
  std::atomic<int> fetchers_started{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      while (fetchers_started.load() < kFetchers) std::this_thread::yield();
      for (int i = 0; i < kWritesPerWriter; ++i) {
        // Writer w owns records p(w), p(w + kWriters), ...
        const int rec = (i * 7 % (100 / kWriters)) * kWriters + w;
        const int64_t value = 1000 + i;
        db::Update up;
        up.Set("views", db::Value(value));
        ASSERT_TRUE(
            server_.Update("posts", "p" + std::to_string(rec), up).ok());
        committed[rec].store(value, std::memory_order_release);
        if (w == 0 && i % 200 == 100) {
          // Index DDL also bumps the table's commit count.
          database_.GetOrCreateTable("posts")->CreateIndex("views");
          database_.GetOrCreateTable("posts")->DropIndex("views");
        }
        std::this_thread::yield();
      }
    });
  }
  for (int f = 0; f < kFetchers; ++f) {
    threads.emplace_back([&, f] {
      uint64_t x = f;
      fetchers_started.fetch_add(1);
      while (!done.load(std::memory_order_acquire)) {
        const size_t g = (x++ * 2654435761u) % query_keys_.size();
        // Snapshot what had committed before the fetch starts.
        std::array<int64_t, 100> floor;
        for (int r = 0; r < 100; ++r) {
          floor[r] = committed[r].load(std::memory_order_acquire);
        }
        webcache::HttpRequest req;
        req.key = query_keys_[g];
        auto resp = server_.Fetch(req);
        ASSERT_TRUE(resp.ok);
        auto parsed = core::QueryResponse::FromJson(resp.body);
        ASSERT_TRUE(parsed.ok()) << resp.body;
        ASSERT_EQ(parsed->ComputeEtag(), resp.etag);
        ASSERT_EQ(parsed->ids.size(), 10u);
        for (size_t i = 0; i < parsed->ids.size(); ++i) {
          const int rec = std::stoi(parsed->ids[i].substr(7));  // posts/p
          const db::Value* views = parsed->docs[i].Find("views");
          ASSERT_NE(views, nullptr);
          const int64_t shown = views->as_int();
          if (floor[rec] >= 0) {
            ASSERT_GE(shown, floor[rec])
                << parsed->ids[i] << " served from before a finished write";
          }
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  // Quiescent: one execution per query, then pure reuse.
  for (const std::string& key : query_keys_) {
    webcache::HttpRequest req;
    req.key = key;
    ASSERT_TRUE(server_.Fetch(req).ok);
  }
  const uint64_t executed = database_.stats().queries;
  for (const std::string& key : query_keys_) {
    webcache::HttpRequest req;
    req.key = key;
    ASSERT_TRUE(server_.Fetch(req).ok);
  }
  EXPECT_EQ(database_.stats().queries, executed);
}

TEST_F(ServerMemoStress, RecordFetchPairsEtagBodyAndTimeOfOneVersion) {
  // A record fetch looks up the version first and copies the document
  // only on a memo miss; a write can land in between. Every 200 must
  // still carry the body committed at its etag's version and that
  // version's commit time as last_modified.
  constexpr int kWriters = 2;
  constexpr int kFetchers = 2;
  constexpr int kWritesPerWriter = 6000;
  const std::string id = "p0";
  std::mutex committed_mu;
  // version -> (body JSON, write time), for every version of the record.
  std::map<uint64_t, std::pair<std::string, Micros>> committed;
  {
    auto doc = database_.Get("posts", id);
    ASSERT_TRUE(doc.ok());
    committed[doc->version] = {doc->body.ToJson(), doc->write_time};
  }
  struct Served {
    uint64_t etag;
    std::string body;
    Micros last_modified;
  };
  std::vector<std::vector<Served>> served(kFetchers);
  std::atomic<bool> done{false};
  std::atomic<int> fetchers_started{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      while (fetchers_started.load() < kFetchers) std::this_thread::yield();
      for (int i = 0; i < kWritesPerWriter; ++i) {
        db::Update up;
        up.Set("views", db::Value(static_cast<int64_t>(w * 100000 + i)));
        auto doc = server_.Update("posts", id, up);
        ASSERT_TRUE(doc.ok());
        std::lock_guard<std::mutex> lock(committed_mu);
        committed[doc->version] = {doc->body.ToJson(), doc->write_time};
      }
    });
  }
  for (int f = 0; f < kFetchers; ++f) {
    threads.emplace_back([&, f] {
      fetchers_started.fetch_add(1);
      while (!done.load(std::memory_order_acquire)) {
        webcache::HttpRequest req;  // no If-None-Match: always a body
        req.key = "posts/" + id;
        auto resp = server_.Fetch(req);
        ASSERT_TRUE(resp.ok);
        ASSERT_FALSE(resp.not_modified);
        served[f].push_back({resp.etag, resp.body, resp.last_modified});
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  size_t checked = 0;
  for (const std::vector<Served>& list : served) {
    for (const Served& s : list) {
      auto it = committed.find(s.etag);
      ASSERT_NE(it, committed.end()) << "etag " << s.etag << " never committed";
      ASSERT_EQ(s.body, it->second.first) << "body of another version";
      ASSERT_EQ(s.last_modified, it->second.second)
          << "commit time of another version";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(server_.stats().body_memo_misses, 1u);
}

TEST_F(ServerMemoStress, MemoizedBodiesByteIdenticalToFresh) {
  // Quiescent read-only phase: the first fetch serializes and memoizes,
  // the second must replay the identical bytes (and count a memo hit).
  for (const std::string& key : query_keys_) {
    webcache::HttpRequest req;
    req.key = key;
    auto first = server_.Fetch(req);
    ASSERT_TRUE(first.ok);
    auto second = server_.Fetch(req);
    ASSERT_TRUE(second.ok);
    EXPECT_EQ(first.etag, second.etag);
    EXPECT_EQ(first.body, second.body);
    // And both match a from-scratch serialization of the parsed result.
    auto parsed = core::QueryResponse::FromJson(second.body);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->ToJson(), second.body);
  }
  const core::ServerStats s = server_.stats();
  EXPECT_GT(s.body_memo_hits, 0u);

  // A write kills exactly the touched memo entries: the next fetch of an
  // affected query is a memo miss with a new etag.
  webcache::HttpRequest req;
  req.key = query_keys_[0];
  auto before = server_.Fetch(req);
  db::Update up;
  up.Set("views", db::Value(static_cast<int64_t>(999999)));
  ASSERT_TRUE(server_.Update("posts", "p0", up).ok());
  auto after = server_.Fetch(req);
  ASSERT_TRUE(after.ok);
  EXPECT_NE(after.etag, before.etag);
  auto parsed = core::QueryResponse::FromJson(after.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->ComputeEtag(), after.etag);
}

TEST_F(ServerMemoStress, BucketStampedResultsMatchTheDatabaseAcrossMoves) {
  // Documents move between groups 0 and 1 of an indexed table while
  // fetchers read both groups' queries, so reuse rests on the per-key
  // commit slots. A fetch during which the table saw no commit at all
  // must return exactly what a fresh execution at that commit count
  // returns; counter bumps in group 2 keep reuse happening in between.
  constexpr int kWriters = 2;
  constexpr int kFetchers = 2;
  constexpr int kMovesPerWriter = 1500;
  constexpr int kDocs = 40;
  db::Table* table = database_.GetOrCreateTable("moves");
  table->CreateIndex("group");
  for (int i = 0; i < kDocs + kWriters; ++i) {
    db::Object o;
    o["group"] = db::Value(static_cast<int64_t>(i < kDocs ? i % 2 : 2));
    o["n"] = db::Value(static_cast<int64_t>(0));
    ASSERT_TRUE(server_
                    .Insert("moves", "m" + std::to_string(i),
                            db::Value(std::move(o)))
                    .ok());
  }
  std::vector<db::Query> queries;
  for (int g = 0; g < 2; ++g) {
    queries.push_back(
        db::Query::ParseJson("moves", "{\"group\":" + std::to_string(g) + "}")
            .value());
    server_.RegisterQueryShape(queries.back());
  }
  auto member_ids = [](const webcache::HttpResponse& resp) {
    auto parsed = core::QueryResponse::FromJson(resp.body);
    EXPECT_TRUE(parsed.ok()) << resp.body;
    return parsed.ok() ? parsed->ids : std::vector<std::string>();
  };
  auto fresh_ids = [&](const db::Query& q, db::ResultStamp* stamp) {
    std::vector<std::string> ids;
    for (const db::Document& d : database_.Execute(q, stamp)) {
      ids.push_back(d.Key());
    }
    return ids;
  };

  std::atomic<bool> done{false};
  std::atomic<int> fetchers_started{0};
  std::atomic<uint64_t> checked{0};
  std::barrier pause(kWriters);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      while (fetchers_started.load() < kFetchers) std::this_thread::yield();
      // Writer w owns documents w, w + kWriters, ... and counter m<kDocs+w>.
      std::vector<int64_t> group(kDocs);
      for (int d = 0; d < kDocs; ++d) group[d] = d % 2;
      for (int i = 0; i < kMovesPerWriter; ++i) {
        const int d = (i * 7 % (kDocs / kWriters)) * kWriters + w;
        group[d] = 1 - group[d];
        db::Update move;
        move.Set("group", db::Value(group[d]));
        ASSERT_TRUE(
            server_.Update("moves", "m" + std::to_string(d), move).ok());
        db::Update bump;
        bump.Inc("n", db::Value(1));
        ASSERT_TRUE(
            server_.Update("moves", "m" + std::to_string(kDocs + w), bump)
                .ok());
        // Quiet gaps, taken by both writers at once and held until a
        // fetch has been checked (or 100 ms), so some fetches see no
        // commit at all even on a slow (sanitized) build.
        if (i % 32 == 0) {
          pause.arrive_and_wait();
          const uint64_t seen = checked.load();
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
          while (checked.load() == seen &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }
      }
    });
  }
  for (int f = 0; f < kFetchers; ++f) {
    threads.emplace_back([&, f] {
      uint64_t x = f;
      fetchers_started.fetch_add(1);
      while (!done.load(std::memory_order_acquire)) {
        const db::Query& q = queries[x++ % queries.size()];
        const uint64_t before = table->commit_count();
        webcache::HttpRequest req;
        req.key = q.NormalizedKey();
        const auto resp = server_.Fetch(req);
        ASSERT_TRUE(resp.ok);
        const std::vector<std::string> served = member_ids(resp);
        db::ResultStamp stamp;
        const std::vector<std::string> fresh = fresh_ids(q, &stamp);
        if (stamp.commit == before) {
          ASSERT_EQ(served, fresh) << req.key << " at commit " << before;
          checked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  EXPECT_GT(checked.load(), 0u);

  // Quiescent: every fetch, executed or reused, matches the database.
  for (int round = 0; round < 2; ++round) {
    for (const db::Query& q : queries) {
      webcache::HttpRequest req;
      req.key = q.NormalizedKey();
      const auto resp = server_.Fetch(req);
      ASSERT_TRUE(resp.ok);
      EXPECT_EQ(member_ids(resp), fresh_ids(q, nullptr)) << req.key;
    }
  }
}

}  // namespace
}  // namespace quaestor
