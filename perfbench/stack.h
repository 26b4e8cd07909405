// The system under test, assembled from public API only: a database
// loaded with the paper's §6.1 shape, a QuaestorServer behind a NetServer
// (HTTP front-end + frame hub), a NetWorker running InvaliDB over TCP, and
// a purge subscriber standing in for the CDN node. The PurgeTracker pairs
// every committed write with the purge frames it must cause.

#ifndef QUAESTOR_PERFBENCH_STACK_H_
#define QUAESTOR_PERFBENCH_STACK_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "client/backend.h"
#include "common/clock.h"
#include "core/server.h"
#include "measure.h"
#include "db/database.h"
#include "net/event_loop.h"
#include "net/http_client.h"
#include "net/queue_bridge.h"
#include "net/service.h"
#include "obs/trace.h"
#include "webcache/web_cache.h"
#include "workload/workload.h"

namespace quaestor::perfbench {

/// How long a window's end waits for its writes' purges.
inline constexpr int64_t kDrainNs = 3'000'000'000;

/// The paper's §6.1 shape: 10 tables x 10k docs, 100 equality queries of
/// ~10 docs per table, Zipf sampling.
workload::WorkloadOptions PaperShape();

/// net::HttpBackend with a bench span around every round trip, so the
/// traced run can read the HTTP round-trip time next to the server's own
/// spans. With no tracer attached the spans are no-ops.
class TracedBackend final : public client::Backend, public webcache::Origin {
 public:
  explicit TracedBackend(uint16_t port) : http_(port) {}

  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  webcache::HttpResponse Fetch(const webcache::HttpRequest& request) override;
  webcache::Origin* origin() override { return this; }
  ebf::BloomFilter BloomSnapshot() override;
  ebf::BloomFilter BloomSnapshotForTable(const std::string& table) override;
  void RegisterQueryShape(const db::Query& query) override;
  Result<db::Document> Insert(const std::string& auth_token,
                              const std::string& table, const std::string& id,
                              db::Value body,
                              const RequestContext& ctx) override;
  Result<db::Document> Update(const std::string& auth_token,
                              const std::string& table, const std::string& id,
                              const db::Update& update,
                              const RequestContext& ctx) override;
  Result<db::Document> Delete(const std::string& auth_token,
                              const std::string& table, const std::string& id,
                              const RequestContext& ctx) override;

 private:
  net::HttpBackend http_;
  obs::Tracer* tracer_ = nullptr;
};

/// Pairs writes with purges. A write announced with ExpectWrite(doc, due)
/// commits (OnCommit, from the database's change listener); the commit
/// determines which cached keys must be purged: the record key always, and
/// the query key of each registered group the document left or joined.
/// Each purge frame (OnPurge) consumes one expectation, and a query purge
/// yields a latency sample from the write's due time.
///
/// ExpectWrite, OnCommit and OnPurge run on generator, server and
/// subscriber threads and only append to a buffer, so the matching costs
/// the serving threads nothing. Match() does the matching; it and every
/// reader below run on the main thread only.
class PurgeTracker {
 public:
  PurgeTracker(const workload::WorkloadGenerator& gen, bool log_commits);

  void ExpectWrite(const std::string& doc_key, int64_t due_ns);
  void OnCommit(const db::ChangeEvent& event);
  void OnPurge(const std::string& key);

  /// Matches everything buffered so far.
  void Match();
  /// Matches until every expected purge arrived; false on timeout.
  bool Drain(int64_t timeout_ns);

  /// Query-purge latencies (at = the write's due time) of writes due in
  /// [from_ns, to_ns).
  std::deque<Sample> SamplesDueIn(int64_t from_ns, int64_t to_ns) const;
  /// Expected purges not (yet) seen, and purges nothing explained.
  size_t Outstanding() const { return outstanding_; }
  size_t Unexpected() const { return early_count_; }
  /// Every committed change event matched so far, in commit order
  /// (log_commits only).
  const std::vector<db::ChangeEvent>& Commits() const { return commits_; }

 private:
  struct Event {
    enum Kind : uint8_t { kExpect, kCommit, kPurge };
    Kind kind = kExpect;
    int32_t group = -1;  // kCommit: the document's group after the write
    int64_t at_ns = 0;   // due time, commit time or arrival time
    std::string key;     // document key (kExpect, kCommit) or purged key
  };
  void Record(Event e, const db::ChangeEvent* commit);
  void ExpectPurge(const std::string& key, int64_t due_ns, bool is_query);
  void Commit(const Event& e);
  void Purge(const Event& e);

  const size_t queried_groups_;
  const bool log_commits_;

  std::mutex mu_;  // guards the two buffers
  std::vector<Event> events_;
  std::vector<db::ChangeEvent> commit_log_;

  // Matching state (main thread).
  std::vector<std::vector<std::string>> query_keys_;  // [table][group]
  std::vector<std::vector<int32_t>> groups_;  // [table][doc] current group
  std::unordered_map<std::string, std::deque<int64_t>> due_by_doc_;
  std::unordered_map<std::string, std::deque<int64_t>> pending_;  // due ns
  // Purges matched before their commit was, by key (arrival ns).
  std::unordered_map<std::string, std::deque<int64_t>> early_;
  std::unordered_set<std::string> query_key_set_;
  std::vector<Sample> samples_;
  std::vector<db::ChangeEvent> commits_;
  size_t outstanding_ = 0;
  size_t early_count_ = 0;
};

/// One deployment on loopback. Start() loads the data and brings every
/// component up; the destructor tears it down in dependency order.
class Stack {
 public:
  /// `log_commits` keeps every change event for the consistency oracle;
  /// `feed_cdn` applies purge frames to cdn() (only SDK sessions read it).
  Stack(uint64_t seed, bool log_commits, bool feed_cdn);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  bool Start(std::string* error);

  uint16_t http_port() const { return net_->http_port(); }
  core::QuaestorServer& server() { return *server_; }
  net::NetServer& net() { return *net_; }
  net::NetWorker& worker() { return *worker_; }
  net::FrameClient& purge_client() { return *purge_client_; }
  db::Database& db() { return db_; }
  webcache::InvalidationCache& cdn() { return cdn_; }
  PurgeTracker& tracker() { return tracker_; }
  const workload::WorkloadGenerator& gen() const { return gen_; }
  SystemClock* clock() { return &clock_; }

 private:
  const bool feed_cdn_;
  SystemClock clock_;
  workload::WorkloadGenerator gen_;
  PurgeTracker tracker_;
  db::Database db_;
  std::unique_ptr<core::QuaestorServer> server_;
  std::unique_ptr<net::NetServer> net_;
  std::unique_ptr<net::NetWorker> worker_;
  webcache::InvalidationCache cdn_;
  net::EventLoop purge_loop_;
  std::unique_ptr<net::FrameClient> purge_client_;
};

}  // namespace quaestor::perfbench

#endif  // QUAESTOR_PERFBENCH_STACK_H_
