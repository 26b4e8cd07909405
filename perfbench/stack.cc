#include "stack.h"

#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

namespace quaestor::perfbench {

workload::WorkloadOptions PaperShape() {
  workload::WorkloadOptions o;
  o.num_tables = 10;
  o.docs_per_table = 10000;
  o.queries_per_table = 100;
  o.docs_per_query = 10;
  return o;
}

// ---------------------------------------------------------------------------
// TracedBackend

webcache::HttpResponse TracedBackend::Fetch(
    const webcache::HttpRequest& request) {
  obs::ScopedSpan span(tracer_, "bench.http_fetch");
  return http_.Fetch(request);
}

ebf::BloomFilter TracedBackend::BloomSnapshot() {
  obs::ScopedSpan span(tracer_, "bench.http_ebf");
  return http_.BloomSnapshot();
}

ebf::BloomFilter TracedBackend::BloomSnapshotForTable(
    const std::string& table) {
  obs::ScopedSpan span(tracer_, "bench.http_ebf");
  return http_.BloomSnapshotForTable(table);
}

void TracedBackend::RegisterQueryShape(const db::Query& query) {
  http_.RegisterQueryShape(query);
}

Result<db::Document> TracedBackend::Insert(const std::string& auth_token,
                                           const std::string& table,
                                           const std::string& id,
                                           db::Value body,
                                           const RequestContext& ctx) {
  obs::ScopedSpan span(tracer_, "bench.http_write");
  return http_.Insert(auth_token, table, id, std::move(body), ctx);
}

Result<db::Document> TracedBackend::Update(const std::string& auth_token,
                                           const std::string& table,
                                           const std::string& id,
                                           const db::Update& update,
                                           const RequestContext& ctx) {
  obs::ScopedSpan span(tracer_, "bench.http_write");
  return http_.Update(auth_token, table, id, update, ctx);
}

Result<db::Document> TracedBackend::Delete(const std::string& auth_token,
                                           const std::string& table,
                                           const std::string& id,
                                           const RequestContext& ctx) {
  obs::ScopedSpan span(tracer_, "bench.http_write");
  return http_.Delete(auth_token, table, id, ctx);
}

// ---------------------------------------------------------------------------
// PurgeTracker

namespace {

// "t3/d17" -> 3 (the digits after the first letter, up to the slash);
// "d17" -> 17.
size_t IndexOf(const char* name) {
  return static_cast<size_t>(std::strtoull(name + 1, nullptr, 10));
}

}  // namespace

PurgeTracker::PurgeTracker(const workload::WorkloadGenerator& gen,
                           bool log_commits)
    : queried_groups_(gen.options().queries_per_table),
      log_commits_(log_commits) {
  const workload::WorkloadOptions& o = gen.options();
  query_keys_.resize(o.num_tables);
  groups_.resize(o.num_tables);
  for (size_t t = 0; t < o.num_tables; ++t) {
    // WorkloadGenerator's i-th query of a table selects group == i.
    for (const db::Query& q : gen.QueriesFor(t)) {
      query_keys_[t].push_back(q.NormalizedKey());
      query_key_set_.insert(query_keys_[t].back());
    }
    groups_[t].resize(o.docs_per_table);
    for (size_t d = 0; d < o.docs_per_table; ++d) {
      groups_[t][d] = static_cast<int32_t>(gen.GroupOf(d));
    }
  }
}

void PurgeTracker::Record(Event e, const db::ChangeEvent* commit) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
  if (commit != nullptr) commit_log_.push_back(*commit);
}

void PurgeTracker::ExpectWrite(const std::string& doc_key, int64_t due_ns) {
  Record({Event::kExpect, -1, due_ns, doc_key}, nullptr);
}

void PurgeTracker::OnCommit(const db::ChangeEvent& event) {
  const db::Value* group = event.after.body.Find("group");
  Record({Event::kCommit,
          group != nullptr ? static_cast<int32_t>(group->as_int()) : -1,
          NowNs(), event.after.Key()},
         log_commits_ ? &event : nullptr);
}

void PurgeTracker::OnPurge(const std::string& key) {
  Record({Event::kPurge, -1, NowNs(), key}, nullptr);
}

void PurgeTracker::Match() {
  std::vector<Event> events;
  std::vector<db::ChangeEvent> log;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events.swap(events_);
    log.swap(commit_log_);
  }
  commits_.insert(commits_.end(), std::make_move_iterator(log.begin()),
                  std::make_move_iterator(log.end()));
  // The buffer holds appends in the order they happened. A write's
  // expectation precedes its commit; its purges follow the commit, except
  // when the subscriber beat this listener, and then the purge waits in
  // early_.
  for (const Event& e : events) {
    switch (e.kind) {
      case Event::kExpect:
        due_by_doc_[e.key].push_back(e.at_ns);
        break;
      case Event::kCommit:
        Commit(e);
        break;
      case Event::kPurge:
        Purge(e);
        break;
    }
  }
}

void PurgeTracker::ExpectPurge(const std::string& key, int64_t due_ns,
                               bool is_query) {
  auto early = early_.find(key);
  if (early != early_.end() && !early->second.empty()) {
    if (is_query) samples_.push_back({due_ns, early->second.front() - due_ns});
    early->second.pop_front();
    --early_count_;
    return;
  }
  pending_[key].push_back(due_ns);
  ++outstanding_;
}

void PurgeTracker::Commit(const Event& e) {
  int64_t due = e.at_ns;
  auto dit = due_by_doc_.find(e.key);
  if (dit != due_by_doc_.end() && !dit->second.empty()) {
    due = dit->second.front();
    dit->second.pop_front();
  }
  ExpectPurge(e.key, due, /*is_query=*/false);
  const size_t t = IndexOf(e.key.c_str());
  const size_t d = IndexOf(e.key.c_str() + e.key.find('/') + 1);
  if (t >= groups_.size() || d >= groups_[t].size()) return;
  const int32_t was_group = groups_[t][d];
  groups_[t][d] = e.group;
  const auto registered = [this](int32_t g) {
    return g >= 0 && static_cast<size_t>(g) < queried_groups_;
  };
  // Every registered query the document was or is in sees a change, add
  // or remove notification, and each notification purges its key.
  if (registered(was_group)) {
    ExpectPurge(query_keys_[t][was_group], due, true);
  }
  if (e.group != was_group && registered(e.group)) {
    ExpectPurge(query_keys_[t][e.group], due, true);
  }
}

void PurgeTracker::Purge(const Event& e) {
  auto it = pending_.find(e.key);
  if (it == pending_.end() || it->second.empty()) {
    early_[e.key].push_back(e.at_ns);
    ++early_count_;
    return;
  }
  const int64_t due = it->second.front();
  it->second.pop_front();
  --outstanding_;
  if (query_key_set_.count(e.key) > 0) {
    samples_.push_back({due, e.at_ns - due});
  }
}

bool PurgeTracker::Drain(int64_t timeout_ns) {
  const int64_t deadline = NowNs() + timeout_ns;
  for (;;) {
    Match();
    if (outstanding_ == 0 && early_count_ == 0) return true;
    if (NowNs() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::deque<Sample> PurgeTracker::SamplesDueIn(int64_t from_ns,
                                              int64_t to_ns) const {
  std::deque<Sample> out;
  for (const Sample& s : samples_) {
    if (s.at_ns >= from_ns && s.at_ns < to_ns) out.push_back(s);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Stack

Stack::Stack(uint64_t seed, bool log_commits, bool feed_cdn)
    : feed_cdn_(feed_cdn),
      gen_(PaperShape(), seed),
      tracker_(gen_, log_commits),
      db_(&clock_),
      cdn_(&clock_) {}

Stack::~Stack() {
  if (purge_client_) purge_client_->Close();
  purge_loop_.Stop();
  if (worker_) worker_->Stop();
  if (net_) net_->Stop();
}

bool Stack::Start(std::string* error) {
  gen_.Load(&db_);  // also indexes the `group` field of every table
  server_ = std::make_unique<core::QuaestorServer>(&clock_, &db_,
                                                   core::ServerOptions());
  db_.AddChangeListener(
      [this](const db::ChangeEvent& ev) { tracker_.OnCommit(ev); });

  net::NetOptions nopts;
  nopts.enabled = true;
  nopts.remote_invalidb = true;
  net_ = std::make_unique<net::NetServer>(&clock_, server_.get(), nopts);
  if (!net_->Start()) {
    *error = "NetServer failed to start";
    return false;
  }
  worker_ = std::make_unique<net::NetWorker>(&clock_, net_->frame_port(),
                                             nopts);
  if (!worker_->Start()) {
    *error = "NetWorker failed to start";
    return false;
  }
  if (!purge_loop_.Start()) {
    *error = "purge loop failed to start";
    return false;
  }
  purge_client_ = std::make_unique<net::FrameClient>(
      &purge_loop_, net_->frame_port(), nopts.reconnect_backoff);
  purge_client_->Subscribe("purge", [this](const net::Frame& f) {
    if (feed_cdn_) cdn_.Purge(f.payload);
    tracker_.OnPurge(f.payload);
  });
  purge_client_->Connect();

  const int64_t deadline = NowNs() + 10'000'000'000;
  while (net_->hub()->connections() < 2 || !purge_client_->connected()) {
    if (NowNs() > deadline) {
      *error = "worker and purge subscriber did not connect";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace quaestor::perfbench
