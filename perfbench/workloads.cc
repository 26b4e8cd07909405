#include "workloads.h"

#include <array>
#include <cstdlib>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/random.h"
#include "webcache/web_cache.h"
#include "workload/workload.h"

namespace quaestor::perfbench {
namespace {

using workload::WorkloadGenerator;

// Share of origin-read requests sent with If-None-Match. The value is
// arbitrary (nothing measured or cited fixes it); README.md says what
// should replace it.
constexpr double kRevalidationShare = 0.2;
constexpr double kReadRate = 4000.0;        // origin-read, per second
constexpr size_t kReaders = 2;              // origin-read connections
constexpr size_t kReadPool = 1 << 15;       // origin-read ops per reader
constexpr double kWriteRate = 4000.0;       // write-invalidate, per second
constexpr double kProbeRate = 500.0;        // probe ops, per second
constexpr size_t kSdkWarmOps = 30000;       // sdk-mix warm-up per thread

// The probe table: origin-read's readers never touch it, so the probe
// writes there leave every etag they check unchanged.
constexpr size_t kProbeTable = 9;

std::string KeyOf(const workload::Operation& op) {
  return op.type == workload::OpType::kQuery ? op.query.NormalizedKey()
                                             : op.table + "/" + op.id;
}

workload::WorkloadOptions Mix(double reads, double queries, double updates) {
  workload::WorkloadOptions o = PaperShape();
  o.read_weight = reads;
  o.query_weight = queries;
  o.update_weight = updates;
  return o;
}

/// Announces every query shape and fetches every query once, which
/// registers it with InvaliDB. Every workload needs all queries registered
/// before its first write: PurgeTracker expects their purges.
bool WarmQueries(Stack& stack, TracedBackend& backend,
                 std::unordered_map<std::string, uint64_t>* etags,
                 std::string* error) {
  const workload::WorkloadOptions& o = stack.gen().options();
  for (size_t t = 0; t < o.num_tables; ++t) {
    for (const db::Query& q : stack.gen().QueriesFor(t)) {
      backend.RegisterQueryShape(q);
      webcache::HttpRequest req;
      req.key = q.NormalizedKey();
      const webcache::HttpResponse resp = backend.Fetch(req);
      if (!resp.ok) {
        *error = "warm-up fetch failed: " + req.key;
        return false;
      }
      (*etags)[req.key] = resp.etag;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------

/// origin-read: open-loop fetches of record and query keys at kReadRate,
/// split over kReaders HTTP connections with interleaved schedules, and no
/// SDK caches; a fixed share of the requests revalidate with If-None-Match.
/// On one connection at 4000/s the reads queued behind each other (a read
/// round trip takes up to ~250 µs on this path). A probe writer sends updates at
/// kProbeRate on a second connection to the probe table, which the reads
/// never touch, so write and invalidation latency during a read stream are
/// measured too. The read stream is open loop for the reason the write
/// stream is: closed-loop throughput over loopback follows the VM's
/// wake-up latency, not the origin's work (README.md, "Noise").
class OriginRead final : public Workload {
 public:
  bool SetUp(uint64_t seed, std::string* error) override {
    stack_ = std::make_unique<Stack>(seed, /*log_commits=*/false,
                                     /*feed_cdn=*/false);
    if (!stack_->Start(error)) return false;
    for (auto& b : readers_) {
      b = std::make_unique<TracedBackend>(stack_->http_port());
    }
    writer_ = std::make_unique<TracedBackend>(stack_->http_port());
    std::unordered_map<std::string, uint64_t> etags;
    if (!WarmQueries(*stack_, *readers_[0], &etags, error)) return false;

    for (size_t k = 0; k < kReaders; ++k) {
      WorkloadGenerator gen(Mix(0.5, 0.5, 0.0), seed * 16 + 1 + k);
      Rng rng(seed * 16 + 8 + k);
      while (pools_[k].size() < kReadPool) {
        const workload::Operation op = gen.Next();
        if (op.table == WorkloadGenerator::TableName(kProbeTable)) continue;
        ReadOp r;
        r.key = KeyOf(op);
        r.inm = rng.NextBool(kRevalidationShare);
        pools_[k].push_back(std::move(r));
      }
    }
    // Warm every key the pools read. No write touches them, so these
    // etags are what every measured 200 must carry.
    for (auto& pool : pools_) {
      for (ReadOp& r : pool) {
        auto it = etags.find(r.key);
        if (it == etags.end()) {
          webcache::HttpRequest req;
          req.key = r.key;
          const webcache::HttpResponse resp = readers_[0]->Fetch(req);
          if (!resp.ok) {
            *error = "warm-up fetch failed: " + r.key;
            return false;
          }
          it = etags.emplace(r.key, resp.etag).first;
        }
        r.etag = it->second;
      }
    }
    // Probe documents: those in a registered query, so every probe write
    // causes one query purge.
    const WorkloadGenerator& g = stack_->gen();
    for (size_t d = 0; d < g.options().docs_per_table; ++d) {
      if (g.GroupOf(d) < g.options().queries_per_table) {
        probe_docs_.push_back(d);
      }
    }
    return true;
  }

  std::vector<GenFn> Generators() override {
    std::vector<GenFn> fns;
    for (size_t k = 0; k < kReaders; ++k) {
      fns.push_back([this, k](int64_t t0, const Deadline& dl, GenStats* st) {
        Reader(k, t0, dl, st);
      });
    }
    fns.push_back([this](int64_t t0, const Deadline& dl, GenStats* st) {
      OpenLoop(
          kProbeRate, t0, dl, st, &GenStats::writes,
          [&](int64_t start) { return ProbeWrite(start); },
          [st](bool ok) {
            if (!ok) st->Fail("probe write failed");
          });
    });
    return fns;
  }

  void SetTracer(obs::Tracer* tracer) override {
    Workload::SetTracer(tracer);
    for (auto& b : readers_) b->set_tracer(tracer);
    writer_->set_tracer(tracer);
  }

 private:
  struct ReadOp {
    std::string key;
    uint64_t etag = 0;
    bool inm = false;
  };

  /// Reader k's share of kReadRate, its schedule offset by k/kReaders of
  /// an interval from the others'.
  void Reader(size_t k, int64_t t0, const Deadline& dl, GenStats* st) {
    const double rate = kReadRate / kReaders;
    const std::vector<ReadOp>& pool = pools_[k];
    size_t i = 0;
    const ReadOp* op = nullptr;
    OpenLoop(
        rate, t0 + static_cast<int64_t>(1e9 / rate * k / kReaders), dl, st,
        &GenStats::reads,
        [&](int64_t) {
          op = &pool[i++ % pool.size()];
          webcache::HttpRequest req;
          req.key = op->key;
          req.has_if_none_match = op->inm;
          req.if_none_match = op->etag;
          return readers_[k]->Fetch(req);
        },
        [&](const webcache::HttpResponse& resp) {
          if (resp.not_modified) {
            if (!op->inm) st->Problem("304 without If-None-Match: " + op->key);
          } else if (!resp.ok) {
            st->Fail("fetch failed: " + op->key);
          } else if (resp.etag != op->etag) {
            st->Problem("etag changed without a write: " + op->key);
          }
        });
  }

  /// Bumps a counter on the next probe document.
  bool ProbeWrite(int64_t start) {
    const std::string table = WorkloadGenerator::TableName(kProbeTable);
    const size_t doc = probe_docs_[probe_next_++ % probe_docs_.size()];
    const std::string id = WorkloadGenerator::DocId(doc);
    db::Update upd;
    upd.Inc("views", db::Value(static_cast<int64_t>(1)));
    stack_->tracker().ExpectWrite(table + "/" + id, start);
    return writer_->Update("", table, id, upd, RequestContext()).ok();
  }

  std::array<std::unique_ptr<TracedBackend>, kReaders> readers_;
  std::unique_ptr<TracedBackend> writer_;
  std::array<std::vector<ReadOp>, kReaders> pools_;
  std::vector<size_t> probe_docs_;
  uint64_t probe_next_ = 0;
};

// ---------------------------------------------------------------------------

/// write-invalidate: open-loop updates at kWriteRate on one HTTP
/// connection (update weight 1, the generator's membership-change share),
/// InvaliDB on a NetWorker over TCP, and each write's purges awaited on the
/// purge subscription. A probe reader fetches at kProbeRate on a second
/// connection, so read latency during an invalidation stream is measured.
/// At 2000/s the write path's threads idle between writes and every write
/// pays wake-ups: write p50 rose from ~112 to ~178 µs and its spread over
/// ten runs from 0.15 to 0.31.
class WriteInvalidate final : public Workload {
 public:
  bool SetUp(uint64_t seed, std::string* error) override {
    stack_ = std::make_unique<Stack>(seed, /*log_commits=*/false,
                                     /*feed_cdn=*/false);
    if (!stack_->Start(error)) return false;
    writer_ = std::make_unique<TracedBackend>(stack_->http_port());
    reader_ = std::make_unique<TracedBackend>(stack_->http_port());
    std::unordered_map<std::string, uint64_t> etags;
    if (!WarmQueries(*stack_, *writer_, &etags, error)) return false;
    write_gen_ =
        std::make_unique<WorkloadGenerator>(Mix(0, 0, 1), seed * 16 + 1);
    read_gen_ =
        std::make_unique<WorkloadGenerator>(Mix(0.5, 0.5, 0), seed * 16 + 2);
    return true;
  }

  std::vector<GenFn> Generators() override {
    std::vector<GenFn> fns;
    fns.push_back([this](int64_t t0, const Deadline& dl, GenStats* st) {
      OpenLoop(
          kWriteRate, t0, dl, st, &GenStats::writes,
          [&](int64_t start) {
            const workload::Operation op = write_gen_->Next();
            stack_->tracker().ExpectWrite(op.table + "/" + op.id, start);
            return writer_->Update("", op.table, op.id, op.update,
                                   RequestContext())
                .ok();
          },
          [st](bool ok) {
            if (!ok) st->Fail("write failed");
          });
    });
    fns.push_back([this](int64_t t0, const Deadline& dl, GenStats* st) {
      OpenLoop(
          kProbeRate, t0, dl, st, &GenStats::reads,
          [&](int64_t) {
            webcache::HttpRequest req;
            req.key = KeyOf(read_gen_->Next());
            const webcache::HttpResponse resp = reader_->Fetch(req);
            return resp.ok && !resp.not_modified;
          },
          [st](bool ok) {
            if (!ok) st->Fail("probe read failed");
          });
    });
    return fns;
  }

  void SetTracer(obs::Tracer* tracer) override {
    Workload::SetTracer(tracer);
    writer_->set_tracer(tracer);
    reader_->set_tracer(tracer);
  }

 private:
  std::unique_ptr<TracedBackend> writer_;
  std::unique_ptr<TracedBackend> reader_;
  std::unique_ptr<WorkloadGenerator> write_gen_;
  std::unique_ptr<WorkloadGenerator> read_gen_;
};

// ---------------------------------------------------------------------------

/// sdk-mix: the paper's scenario. Two closed-loop threads each drive two
/// QuaestorClient sessions (own browser cache and HTTP connection; one CDN
/// shared by all and purged over the frame subscription) with 99% reads
/// and queries and 1% updates, Δ-driven EBF refresh, InvaliDB over TCP.
/// Every SDK call is logged for the consistency oracle, which replays the
/// log after the window.
class SdkMix final : public Workload {
 public:
  static constexpr size_t kThreads = 2;
  static constexpr size_t kSessionsPerThread = 2;

  bool SetUp(uint64_t seed, std::string* error) override {
    stack_ = std::make_unique<Stack>(seed, /*log_commits=*/true,
                                     /*feed_cdn=*/true);
    if (!stack_->Start(error)) return false;
    TracedBackend warm(stack_->http_port());
    std::unordered_map<std::string, uint64_t> etags;
    if (!WarmQueries(*stack_, warm, &etags, error)) return false;
    const workload::WorkloadOptions& shape = stack_->gen().options();
    for (size_t t = 0; t < shape.num_tables; ++t) {
      const auto& qs = stack_->gen().QueriesFor(t);
      for (size_t g = 0; g < qs.size(); ++g) {
        query_index_[qs[g].NormalizedKey()] =
            static_cast<uint32_t>(t * shape.queries_per_table + g);
      }
    }
    client::ClientOptions copts;
    copts.ebf_refresh_interval = kDelta;
    for (Session& ss : sessions_) {
      ss.backend = std::make_unique<TracedBackend>(stack_->http_port());
      ss.browser =
          std::make_unique<webcache::ExpirationCache>(stack_->clock());
      ss.client = std::make_unique<client::QuaestorClient>(
          stack_->clock(), ss.backend.get(), ss.browser.get(), &stack_->cdn(),
          copts);
      ss.client->Connect();
    }
    for (size_t k = 0; k < kThreads; ++k) {
      gens_[k] = std::make_unique<WorkloadGenerator>(PaperShape(),
                                                     seed * 16 + 1 + k);
    }
    // Warm the session caches and the CDN with a fixed amount of traffic.
    std::vector<std::thread> warmers;
    for (size_t k = 0; k < kThreads; ++k) {
      warmers.emplace_back([this, k] {
        GenStats scratch;
        for (size_t i = 0; i < kSdkWarmOps; ++i) Step(k, i, &scratch);
      });
    }
    for (std::thread& t : warmers) t.join();
    if (!stack_->tracker().Drain(kDrainNs)) {
      *error = "warm-up purges did not arrive";
      return false;
    }
    return true;
  }

  std::vector<GenFn> Generators() override {
    std::vector<GenFn> fns;
    for (size_t k = 0; k < kThreads; ++k) {
      fns.push_back([this, k](int64_t, const Deadline& dl, GenStats* st) {
        for (size_t i = 0; !dl.Passed(NowNs()); ++i) {
          Step(k, i, st);
        }
      });
    }
    return fns;
  }

  void SetTracer(obs::Tracer* tracer) override {
    Workload::SetTracer(tracer);
    call_tracer_ = tracer;
    for (Session& s : sessions_) {
      s.client->set_tracer(tracer);
      s.backend->set_tracer(tracer);
    }
  }

  std::vector<client::ClientStats> ClientStats() const override {
    std::vector<client::ClientStats> out;
    for (const Session& s : sessions_) out.push_back(s.client->stats());
    return out;
  }

  bool LogsChecks() const override { return true; }
  bool ClosedLoop() const override { return true; }

 private:
  struct Session {
    std::unique_ptr<TracedBackend> backend;
    std::unique_ptr<webcache::ExpirationCache> browser;
    std::unique_ptr<client::QuaestorClient> client;
  };

  /// One SDK call: thread k's i-th op, alternating its two sessions.
  void Step(size_t k, size_t i, GenStats* st) {
    const workload::Operation op = gens_[k]->Next();
    const size_t s = k * kSessionsPerThread + i % kSessionsPerThread;
    client::QuaestorClient& c = *sessions_[s].client;
    const workload::WorkloadOptions& shape = stack_->gen().options();
    const size_t t = std::strtoull(op.table.c_str() + 1, nullptr, 10);
    Clock* clock = stack_->clock();
    CheckEntry e;
    e.session = static_cast<uint8_t>(s);
    ++st->attempted;
    obs::ScopedSpan span(call_tracer_, "bench.sdk_call");
    const int64_t start = NowNs();
    e.start_us = clock->NowMicros();
    int64_t end = 0;
    bool hit = false;
    switch (op.type) {
      case workload::OpType::kRead: {
        const client::ReadResult r = c.Read(op.table, op.id);
        end = NowNs();
        e.end_us = clock->NowMicros();
        hit = r.outcome.served_by == webcache::ServedBy::kClientCache;
        e.kind = CheckEntry::kRead;
        e.index = static_cast<uint32_t>(
            t * shape.docs_per_table +
            std::strtoull(op.id.c_str() + 1, nullptr, 10));
        e.ok = r.status.ok();
        e.value = r.version;
        if (!e.ok) st->Fail("read " + op.id + ": " + r.status.ToString());
        break;
      }
      case workload::OpType::kQuery: {
        const client::QueryResult r = c.ExecuteQuery(op.query);
        end = NowNs();
        e.end_us = clock->NowMicros();
        hit = r.outcome.served_by == webcache::ServedBy::kClientCache;
        e.kind = CheckEntry::kQuery;
        e.index = query_index_.at(op.query.NormalizedKey());
        e.ok = r.status.ok();
        e.value = r.etag;
        e.representation = static_cast<uint8_t>(r.representation);
        if (!e.ok) st->Fail("query: " + r.status.ToString());
        break;
      }
      default: {
        stack_->tracker().ExpectWrite(op.table + "/" + op.id, start);
        const Result<db::Document> r = c.Update(op.table, op.id, op.update);
        st->writes.push_back({start, NowNs() - start});
        if (!r.ok()) st->Fail("update: " + r.status().ToString());
        return;
      }
    }
    const Sample sample{start, end - start};
    st->reads.push_back(sample);
    if (hit) st->hit_reads.push_back(sample);
    st->checks.push_back(e);
  }

  std::array<Session, kThreads * kSessionsPerThread> sessions_;
  std::array<std::unique_ptr<WorkloadGenerator>, kThreads> gens_;
  std::unordered_map<std::string, uint32_t> query_index_;
  obs::Tracer* call_tracer_ = nullptr;
};

}  // namespace

void Workload::SetTracer(obs::Tracer* tracer) {
  stack_->server().set_tracer(tracer);
  stack_->worker().worker()->cluster().set_tracer(tracer);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "origin-read") return std::make_unique<OriginRead>();
  if (name == "write-invalidate") return std::make_unique<WriteInvalidate>();
  if (name == "sdk-mix") return std::make_unique<SdkMix>();
  return nullptr;
}

}  // namespace quaestor::perfbench
