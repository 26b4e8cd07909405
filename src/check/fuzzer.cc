#include "check/fuzzer.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "client/live_query.h"
#include "client/transaction.h"
#include "common/random.h"
#include "core/server.h"
#include "core/streams.h"
#include "db/database.h"
#include "db/update.h"
#include "db/value.h"
#include "sim/event_queue.h"
#include "webcache/web_cache.h"

namespace quaestor::check {
namespace {

constexpr char kTable[] = "items";

std::string KeyId(size_t key_index) {
  std::ostringstream os;
  os << "k" << (key_index < 10 ? "0" : "") << key_index;
  return os.str();
}

db::Value MakeBody(size_t group, int value) {
  db::Object body;
  body["g"] = db::Value(static_cast<int64_t>(group));
  body["v"] = db::Value(value);
  return db::Value(std::move(body));
}

db::Query GroupQuery(size_t group) {
  return db::Query(kTable, db::Predicate::Compare(
                               "g", db::CompareOp::kEq,
                               db::Value(static_cast<int64_t>(group))));
}

/// The sorted query family: top-k by `v` over the whole table, and the
/// next k after an OFFSET. Updates rewrite `v`, so members move inside
/// and across the windows (changeIndex as well as add/remove).
constexpr size_t kSortedQueries = 2;

db::Query TopQuery(int64_t offset) {
  db::Query q(kTable, db::Predicate::True());
  q.SetOrderBy({{"v", false}}).SetLimit(3).SetOffset(offset);
  return q;
}

/// Everything one schedule execution needs, built fresh per run so replays
/// and shrink probes are independent. Single-threaded InvaliDB keeps the
/// whole world deterministic under the event queue's FIFO tie-breaking.
struct World {
  explicit World(const FuzzOptions& opts)
      : options(opts),
        clock(0),
        events(&clock),
        db(&clock),
        cdn(&clock),
        purge_delay(opts.cdn_purge_delay) {
    core::ServerOptions server_options;
    server_options.invalidb_options.threaded = false;
    server_options.fault_disable_ebf_read_tracking =
        opts.fault_disable_ebf_report;
    server = std::make_unique<core::QuaestorServer>(&clock, &db,
                                                    server_options);
    // Purges reach the CDN after the (mutable) invalidation delay.
    server->AddPurgeTarget([this](const std::string& key) {
      events.ScheduleAfter(purge_delay,
                           [this, key] { cdn.Purge(key); });
    });

    OracleOptions oracle_options;
    oracle_options.delta = opts.delta;
    oracle_options.max_purge_delay = opts.max_purge_delay;
    oracle_options.revalidate_at_cdn = opts.revalidate_at_cdn;
    oracle_options.check_causal =
        opts.level == client::ConsistencyLevel::kCausal;
    oracle_options.check_strong =
        opts.level == client::ConsistencyLevel::kStrong;
    oracle = std::make_unique<ConsistencyOracle>(&clock, &db,
                                                 oracle_options);
    // After the server's own listener, so the oracle sees a world where
    // the commit's invalidations have already been dispatched.
    db.AddChangeListener(
        [this](const db::ChangeEvent& ev) { oracle->OnCommit(ev); });

    // Group queries first: the LiveQuery follows queries[0].
    for (size_t g = 0; g < opts.num_groups; ++g) {
      queries.push_back(GroupQuery(g));
    }
    queries.push_back(TopQuery(0));
    queries.push_back(TopQuery(2));

    client::ClientOptions client_options;
    client_options.ebf_refresh_interval = opts.delta;
    client_options.consistency = opts.level;
    client_options.revalidate_at_cdn = opts.revalidate_at_cdn;
    client_options.fault_skip_ebf_refresh = opts.fault_skip_ebf_refresh;
    for (size_t s = 0; s < opts.num_sessions; ++s) {
      Session session;
      session.name = "s" + std::to_string(s);
      session.cache = std::make_unique<webcache::ExpirationCache>(&clock);
      session.client = std::make_unique<client::QuaestorClient>(
          &clock, server.get(), session.cache.get(), &cdn, client_options);
      sessions.push_back(std::move(session));
    }
  }

  /// Initial state + subscriptions; runs at simulated t = 0.
  void Prepare() {
    for (size_t i = 0; i < options.num_keys; ++i) {
      server->Insert(kTable, KeyId(i), MakeBody(i % options.num_groups, 0));
    }
    for (const db::Query& q : queries) {
      server->RegisterQueryShape(q);
      oracle->TrackQuery(q);
    }
    for (Session& s : sessions) s.client->Connect();
    hub = std::make_unique<core::ChangeStreamHub>(server.get());
    live = std::make_unique<client::LiveQuery>(hub.get(), server.get(),
                                               queries[0]);
  }

  void Execute(const FuzzOp& op);

  struct Session {
    std::string name;
    std::unique_ptr<webcache::ExpirationCache> cache;
    std::unique_ptr<client::QuaestorClient> client;
  };

  FuzzOptions options;
  SimulatedClock clock;
  sim::EventQueue events;
  db::Database db;
  webcache::InvalidationCache cdn;
  Micros purge_delay;
  std::unique_ptr<core::QuaestorServer> server;
  std::unique_ptr<ConsistencyOracle> oracle;
  std::vector<db::Query> queries;
  std::vector<Session> sessions;
  std::unique_ptr<core::ChangeStreamHub> hub;
  std::unique_ptr<client::LiveQuery> live;
};

void World::Execute(const FuzzOp& op) {
  Session& s = sessions[op.session % sessions.size()];
  const size_t key_index = op.key_index % options.num_keys;
  const std::string id = KeyId(key_index);
  const std::string key = std::string(kTable) + "/" + id;
  switch (op.kind) {
    case FuzzOpKind::kRead: {
      client::ReadResult rr = s.client->Read(kTable, id);
      oracle->CheckRead(s.name, key, rr.status.ok(), rr.version);
      break;
    }
    case FuzzOpKind::kQuery: {
      const db::Query& q = queries[op.query_index % queries.size()];
      client::QueryResult qr = s.client->ExecuteQuery(q);
      oracle->CheckQuery(s.name, q, qr.status.ok(), qr.etag,
                         qr.representation);
      break;
    }
    case FuzzOpKind::kInsert: {
      // Re-insert under a deterministic fresh-or-recycled id: deleted keys
      // come back, which exercises tombstone handling end to end.
      Result<db::Document> wr = s.client->Insert(
          kTable, id, MakeBody(op.value % options.num_groups, op.value));
      if (wr.ok()) oracle->OnSessionWrite(s.name, wr.value());
      break;
    }
    case FuzzOpKind::kUpdate: {
      db::Update u;
      u.Set("v", db::Value(op.value));
      if (op.value % 3 == 0) {
        // Group churn: moves the record between query results.
        u.Set("g", db::Value(static_cast<int64_t>(
                       static_cast<size_t>(op.value) % options.num_groups)));
      }
      Result<db::Document> wr = s.client->Update(kTable, id, u);
      if (wr.ok()) oracle->OnSessionWrite(s.name, wr.value());
      break;
    }
    case FuzzOpKind::kDelete: {
      Result<db::Document> wr = s.client->Delete(kTable, id);
      if (wr.ok()) oracle->OnSessionWrite(s.name, wr.value());
      break;
    }
    case FuzzOpKind::kTxn: {
      const std::string id2 =
          KeyId((key_index + 1 + static_cast<size_t>(op.value) %
                                     (options.num_keys - 1)) %
                options.num_keys);
      client::ClientTransaction txn(s.client.get());
      client::ReadResult rr = txn.Read(kTable, id);
      oracle->CheckRead(s.name, key, rr.status.ok(), rr.version);
      txn.Update(kTable, id2, db::Update().Set("v", db::Value(op.value)));
      Result<core::CommitResult> cr = txn.Commit();
      if (cr.ok()) {
        for (const db::Document& doc : cr.value().applied) {
          oracle->OnSessionWrite(s.name, doc);
        }
      }
      break;
    }
    case FuzzOpKind::kEvictCache: {
      std::vector<std::string> keys = s.cache->Keys();
      std::sort(keys.begin(), keys.end());
      if (!keys.empty()) {
        s.cache->Remove(keys[static_cast<size_t>(op.value) % keys.size()]);
      }
      break;
    }
    case FuzzOpKind::kDelayPurges:
      purge_delay = op.new_purge_delay;
      break;
    case FuzzOpKind::kChangeDelta:
      for (Session& each : sessions) {
        each.client->set_ebf_refresh_interval(op.new_delta);
      }
      oracle->SetDelta(op.new_delta);
      break;
    case FuzzOpKind::kLiveCheck: {
      std::vector<std::string> got = live->Ids();
      std::sort(got.begin(), got.end());
      std::vector<std::string> want;
      for (const db::Document& d : db.Execute(queries[0])) {
        want.push_back(d.id);
      }
      std::sort(want.begin(), want.end());
      if (got != want) {
        std::ostringstream os;
        os << "live result {";
        for (const std::string& g : got) os << g << ",";
        os << "} != database result {";
        for (const std::string& w : want) os << w << ",";
        os << "}";
        oracle->ReportLiveQueryMismatch(s.name, queries[0].NormalizedKey(),
                                        os.str());
      }
      break;
    }
    case FuzzOpKind::kResize:
      // Elastic scale-out mid-schedule. The synchronous resize must be
      // invisible to every consistency property the oracle checks — the
      // fuzz world runs with degradation disabled and a strict ∆, so any
      // lost or duplicated notification surfaces as a violation.
      server->ResizeInvalidb(1 + static_cast<size_t>(op.value) % 3,
                             1 + op.key_index % 3);
      break;
  }
}

}  // namespace

std::string_view FuzzOpKindName(FuzzOpKind kind) {
  switch (kind) {
    case FuzzOpKind::kRead:
      return "read";
    case FuzzOpKind::kQuery:
      return "query";
    case FuzzOpKind::kInsert:
      return "insert";
    case FuzzOpKind::kUpdate:
      return "update";
    case FuzzOpKind::kDelete:
      return "delete";
    case FuzzOpKind::kTxn:
      return "txn";
    case FuzzOpKind::kEvictCache:
      return "evict";
    case FuzzOpKind::kDelayPurges:
      return "delay-purges";
    case FuzzOpKind::kChangeDelta:
      return "change-delta";
    case FuzzOpKind::kLiveCheck:
      return "live-check";
    case FuzzOpKind::kResize:
      return "resize";
  }
  return "unknown";
}

std::vector<FuzzOp> GenerateSchedule(const FuzzOptions& options) {
  Rng rng(options.seed);
  std::vector<FuzzOp> schedule;
  schedule.reserve(options.num_ops);
  for (size_t i = 0; i < options.num_ops; ++i) {
    FuzzOp op;
    const double roll = rng.NextDouble();
    if (roll < 0.35) {
      op.kind = FuzzOpKind::kRead;
    } else if (roll < 0.50) {
      op.kind = FuzzOpKind::kQuery;
    } else if (roll < 0.58) {
      op.kind = FuzzOpKind::kInsert;
    } else if (roll < 0.70) {
      op.kind = FuzzOpKind::kUpdate;
    } else if (roll < 0.75) {
      op.kind = FuzzOpKind::kDelete;
    } else if (roll < 0.83) {
      op.kind = FuzzOpKind::kTxn;
    } else if (roll < 0.88) {
      op.kind = FuzzOpKind::kEvictCache;
    } else if (roll < 0.92) {
      op.kind = FuzzOpKind::kDelayPurges;
    } else if (roll < 0.95) {
      op.kind = FuzzOpKind::kChangeDelta;
    } else if (roll < 0.975) {
      op.kind = FuzzOpKind::kLiveCheck;
    } else {
      op.kind = FuzzOpKind::kResize;
    }
    op.session = rng.NextUint64(options.num_sessions);
    op.key_index = rng.NextUint64(options.num_keys);
    op.query_index = rng.NextUint64(options.num_groups + kSortedQueries);
    op.value = static_cast<int>(rng.NextUint64(1000));
    op.new_purge_delay = rng.NextUint64(
        static_cast<uint64_t>(options.max_purge_delay) + 1);
    // Between ∆/2 and 1.5∆ — crossing the initial ∆ in both directions.
    op.new_delta = options.delta / 2 +
                   static_cast<Micros>(rng.NextUint64(
                       static_cast<uint64_t>(options.delta) + 1));
    // Mostly tight interleavings (well inside ∆), with occasional long
    // gaps that let TTLs and the refresh interval expire.
    const double gap_roll = rng.NextDouble();
    uint64_t span;
    if (gap_roll < 0.70) {
      span = static_cast<uint64_t>(options.delta) / 4;
    } else if (gap_roll < 0.90) {
      span = static_cast<uint64_t>(options.delta);
    } else {
      span = static_cast<uint64_t>(options.delta) * 2;
    }
    op.gap = static_cast<Micros>(rng.NextUint64(span + 1));
    schedule.push_back(op);
  }
  return schedule;
}

FuzzReport RunSchedule(const FuzzOptions& options,
                       const std::vector<FuzzOp>& schedule) {
  World world(options);
  world.Prepare();
  Micros at = 0;
  for (const FuzzOp& op : schedule) {
    at += op.gap;
    world.events.Schedule(at, [&world, &op] { world.Execute(op); });
  }
  // Margin so trailing purges and TTLs settle inside the simulation.
  world.events.RunUntil(at + options.max_purge_delay +
                        4 * options.delta + 1);
  FuzzReport report;
  report.violations = world.oracle->violations();
  report.ok = report.violations.empty();
  report.checked_reads = world.oracle->checked_reads();
  report.checked_queries = world.oracle->checked_queries();
  if (!report.ok) report.trace = schedule;
  return report;
}

namespace {

/// ddmin-style shrinking: find the shortest failing prefix by bisection,
/// then repeatedly drop chunks (halving the chunk size down to single
/// ops) as long as the reduced schedule still fails. Budgeted — every
/// probe is a full simulated run.
std::vector<FuzzOp> Shrink(const FuzzOptions& options,
                           std::vector<FuzzOp> schedule) {
  size_t budget = 200;
  const auto fails = [&](const std::vector<FuzzOp>& s) {
    if (s.empty() || budget == 0) return false;
    --budget;
    return !RunSchedule(options, s).ok;
  };

  // Phase 1: shortest failing prefix. Failures are monotone in practice
  // (extra trailing ops never mask an already-reported violation).
  size_t lo = 1, hi = schedule.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    std::vector<FuzzOp> prefix(schedule.begin(),
                               schedule.begin() + static_cast<long>(mid));
    if (fails(prefix)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  std::vector<FuzzOp> current(schedule.begin(),
                              schedule.begin() + static_cast<long>(hi));
  if (!fails(current)) return schedule;  // non-monotone; keep the original

  // Phase 2: chunk removal. Removing an op keeps the later ops' gaps, so
  // timings shift — the run decides whether the violation survives.
  for (size_t chunk = std::max<size_t>(1, current.size() / 2);;
       chunk /= 2) {
    for (size_t start = 0; start + chunk <= current.size();) {
      std::vector<FuzzOp> candidate;
      candidate.reserve(current.size() - chunk);
      candidate.insert(candidate.end(), current.begin(),
                       current.begin() + static_cast<long>(start));
      candidate.insert(candidate.end(),
                       current.begin() + static_cast<long>(start + chunk),
                       current.end());
      if (fails(candidate)) {
        current = std::move(candidate);
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) break;
  }
  return current;
}

}  // namespace

FuzzReport FuzzAndShrink(const FuzzOptions& options) {
  const std::vector<FuzzOp> schedule = GenerateSchedule(options);
  FuzzReport report = RunSchedule(options, schedule);
  if (report.ok) return report;
  const std::vector<FuzzOp> minimal = Shrink(options, schedule);
  FuzzReport final_report = RunSchedule(options, minimal);
  if (final_report.ok) {
    // Shrinking probes are budgeted; in the (rare) case the final re-run
    // no longer fails, fall back to the original failing schedule.
    report.trace = schedule;
    return report;
  }
  final_report.trace = minimal;
  return final_report;
}

std::string TraceToString(const std::vector<FuzzOp>& schedule) {
  std::ostringstream os;
  Micros at = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const FuzzOp& op = schedule[i];
    at += op.gap;
    os << "#" << i << " t=" << at << "us +" << op.gap << "us s"
       << op.session << " " << FuzzOpKindName(op.kind);
    switch (op.kind) {
      case FuzzOpKind::kRead:
      case FuzzOpKind::kDelete:
        os << " " << KeyId(op.key_index);
        break;
      case FuzzOpKind::kInsert:
      case FuzzOpKind::kUpdate:
        os << " " << KeyId(op.key_index) << " v=" << op.value;
        break;
      case FuzzOpKind::kTxn:
        os << " read " << KeyId(op.key_index) << " v=" << op.value;
        break;
      case FuzzOpKind::kQuery:
        os << " q" << op.query_index;
        break;
      case FuzzOpKind::kEvictCache:
        os << " slot " << op.value;
        break;
      case FuzzOpKind::kDelayPurges:
        os << " -> " << op.new_purge_delay << "us";
        break;
      case FuzzOpKind::kChangeDelta:
        os << " -> " << op.new_delta << "us";
        break;
      case FuzzOpKind::kLiveCheck:
        break;
      case FuzzOpKind::kResize:
        os << " -> " << (1 + static_cast<size_t>(op.value) % 3) << "x"
           << (1 + op.key_index % 3);
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace quaestor::check
