// The paper's running example (§1, Figure 5, Figure 7): a social blogging
// application where clients query posts by tag:
//
//   SELECT * FROM posts WHERE tags CONTAINS 'example'
//
// This example walks through the add / change / remove notification
// lifecycle as a post is updated, and shows two browser sessions staying
// coherent through the Expiring Bloom Filter and CDN purges.
//
// Build & run:  ./build/examples/social_blog

#include <cstdio>

#include "client/client.h"
#include "common/clock.h"
#include "core/server.h"
#include "db/database.h"
#include "webcache/web_cache.h"

using namespace quaestor;

int main() {
  SimulatedClock clock(0);
  db::Database database(&clock);
  core::QuaestorServer server(&clock, &database);
  webcache::InvalidationCache cdn(&clock);
  server.AddPurgeTarget([&](const std::string& key) { cdn.Purge(key); });

  // Print every InvaliDB notification — the Figure 5 lifecycle.
  server.AddNotificationTap(
      [](const std::vector<invalidb::Notification>& batch) {
        for (const invalidb::Notification& n : batch) {
          std::printf(
              "  [InvaliDB] %s notification for %s (query %s)\n",
              std::string(invalidb::NotificationTypeName(n.type)).c_str(),
              n.record_id.c_str(), n.query_key.c_str());
        }
      });

  // Two browser sessions: an author and a reader.
  webcache::ExpirationCache author_cache(&clock);
  webcache::ExpirationCache reader_cache(&clock);
  client::ClientOptions copts;
  copts.ebf_refresh_interval = SecondsToMicros(2.0);
  client::QuaestorClient author(&clock, &server, &author_cache, &cdn, copts);
  client::QuaestorClient reader(&clock, &server, &reader_cache, &cdn, copts);
  author.Connect();
  reader.Connect();

  // A fresh, untagged post.
  std::printf("== author creates an untagged post ==\n");
  author.Insert(
      "posts", "p1",
      db::Value::FromJson(R"({"title":"First Post","tags":[]})").value());

  // The reader subscribes to the 'example' tag via a cached query.
  db::Query by_tag =
      db::Query::ParseJson("posts", R"({"tags":{"$contains":"example"}})")
          .value();
  auto r0 = reader.ExecuteQuery(by_tag);
  std::printf("reader query: %zu posts tagged 'example'\n\n", r0.ids.size());

  // Figure 5, step 1: +'example' → the post ENTERS the result set (add).
  std::printf("== author adds tag 'example' ==\n");
  clock.Advance(SecondsToMicros(1.0));
  db::Update add_tag;
  add_tag.Push("tags", db::Value("example"));
  author.Update("posts", "p1", add_tag);

  // Figure 5, step 2: +'music' → still matches, state changed (change).
  std::printf("\n== author adds tag 'music' ==\n");
  clock.Advance(SecondsToMicros(1.0));
  db::Update add_music;
  add_music.Push("tags", db::Value("music"));
  author.Update("posts", "p1", add_music);

  // The reader's next query (after ∆) revalidates and sees the post.
  clock.Advance(SecondsToMicros(2.1));
  auto r1 = reader.ExecuteQuery(by_tag);
  std::printf("\nreader query after ∆: %zu post(s), revalidated=%s\n",
              r1.ids.size(), r1.outcome.revalidated ? "yes" : "no");
  if (!r1.docs.empty()) {
    std::printf("  -> %s\n", r1.docs[0].Find("title")->as_string().c_str());
  }

  // Figure 5, step 3: -'example' → the post LEAVES the result set
  // (remove).
  std::printf("\n== author removes tag 'example' ==\n");
  clock.Advance(SecondsToMicros(1.0));
  db::Update pull_tag;
  pull_tag.Pull("tags", db::Value("example"));
  author.Update("posts", "p1", pull_tag);

  clock.Advance(SecondsToMicros(2.1));
  auto r2 = reader.ExecuteQuery(by_tag);
  std::printf("\nreader query after ∆: %zu posts tagged 'example'\n",
              r2.ids.size());

  // Top-posts: a stateful (sorted + limited) query maintained by the
  // sorted layer.
  std::printf("\n== top-2 posts by views (stateful query) ==\n");
  for (int i = 0; i < 4; ++i) {
    author.Insert("posts", "v" + std::to_string(i),
                  db::Value::FromJson(("{\"title\":\"Post " +
                                       std::to_string(i) +
                                       "\",\"views\":" +
                                       std::to_string(10 * (i + 1)) + "}")
                                          .c_str())
                      .value());
  }
  db::Query top = db::Query::ParseJson("posts", R"({"views":{"$gte":0}})")
                      .value();
  top.SetOrderBy({{"views", false}}).SetLimit(2);
  auto t0 = reader.ExecuteQuery(top);
  std::printf("top-2: %s, %s\n", t0.ids[0].c_str(), t0.ids[1].c_str());

  clock.Advance(SecondsToMicros(1.0));
  std::printf("== v0 goes viral (+1000 views) ==\n");
  db::Update viral;
  viral.Inc("views", db::Value(1000));
  author.Update("posts", "v0", viral);

  clock.Advance(SecondsToMicros(2.1));
  auto t1 = reader.ExecuteQuery(top);
  std::printf("top-2 after ∆: %s, %s\n", t1.ids[0].c_str(),
              t1.ids[1].c_str());
  return 0;
}
