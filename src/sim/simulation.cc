#include "sim/simulation.h"

#include <algorithm>

namespace quaestor::sim {

namespace {

/// Per-operation CPU cost at a client instance (capacity model).
constexpr Micros kClientCpu = MillisToMicros(0.06);

}  // namespace

Simulation::Simulation(workload::WorkloadOptions workload_options,
                       SimOptions options)
    : workload_options_(workload_options),
      options_(options),
      clock_(0),
      events_(&clock_),
      server_pool_(options.num_servers, options.server_service) {
  db_ = std::make_unique<db::Database>(&clock_);

  core::ServerOptions server_options = options_.server_options;
  // The simulation needs deterministic, synchronous invalidation matching.
  server_options.invalidb_options.threaded = false;
  server_ = std::make_unique<core::QuaestorServer>(&clock_, db_.get(),
                                                   server_options);

  if (options_.trace) {
    obs::TracerOptions topts;
    topts.deterministic_ids = true;
    tracer_ = std::make_unique<obs::Tracer>(&clock_, topts);
    server_->set_tracer(tracer_.get());
  }

  if (options_.arch.cdn) {
    cdn_ = std::make_unique<webcache::InvalidationCache>(&clock_);
    // Purges reach the CDN after ∆_invalidation.
    server_->AddPurgeTarget([this](const std::string& key) {
      events_.ScheduleAfter(options_.cdn_purge_latency,
                            [this, key] { cdn_->Purge(key); });
    });
  }

  // Record invalidation times per query for the TTL-quality analysis.
  server_->AddNotificationTap(
      [this](const std::vector<invalidb::Notification>& batch) {
        for (const invalidb::Notification& n : batch) {
          invalidations_[n.query_key].push_back(clock_.NowMicros());
        }
      });

  // Ground-truth commit tracking per table (staleness checks key on this;
  // the InvaliDB notification stream is not reliable under fault
  // injection).
  db_->AddChangeListener([this](const db::ChangeEvent& ev) {
    TableActivity& ta = table_activity_[ev.after.table];
    ta.commits++;
    ta.last_commit = ev.commit_time;
  });

  client::ClientOptions copts = options_.client_options;
  copts.use_ebf = copts.use_ebf && options_.arch.use_ebf;

  clients_.reserve(options_.num_client_instances);
  for (size_t i = 0; i < options_.num_client_instances; ++i) {
    ClientInstance ci;
    if (options_.arch.client_cache) {
      // Browser caches are unbounded.
      ci.cache = std::make_unique<webcache::ExpirationCache>(&clock_);
    }
    ci.client = std::make_unique<client::QuaestorClient>(
        &clock_, server_.get(), ci.cache.get(), cdn_.get(), copts,
        options_.latency);
    if (tracer_ != nullptr) ci.client->set_tracer(tracer_.get());
    ci.cpu = std::make_unique<QueueingResource>(1, kClientCpu);
    clients_.push_back(std::move(ci));
  }

  generator_ = std::make_unique<workload::WorkloadGenerator>(
      workload_options_, options_.seed);
}

Simulation::~Simulation() = default;

bool Simulation::CheckReadStale(const std::string& table,
                                const std::string& id,
                                const client::ReadResult& rr,
                                double* stale_age_ms) {
  *stale_age_ms = 0.0;
  if (!rr.status.ok()) return false;
  auto current = db_->Get(table, id);
  const Micros now = clock_.NowMicros();
  if (!current.ok()) {
    // Served a copy of a deleted record; the table's latest commit is the
    // closest known lower bound on when the copy went stale.
    auto it = table_activity_.find(table);
    if (it != table_activity_.end() && it->second.last_commit <= now) {
      *stale_age_ms = MicrosToMillis(now - it->second.last_commit);
    }
    return true;
  }
  if (rr.version >= current->version) return false;
  // The served version was superseded no later than the current version's
  // commit.
  *stale_age_ms = MicrosToMillis(now - current->write_time);
  return true;
}

bool Simulation::CheckQueryStale(const db::Query& query,
                                 const client::QueryResult& qr,
                                 double* stale_age_ms) {
  *stale_age_ms = 0.0;
  if (!qr.status.ok()) return false;
  // Responses assembled at the origin are fresh by construction.
  if (qr.outcome.served_by == webcache::ServedBy::kOrigin) return false;
  // The ground-truth etag only changes when a commit touches the query's
  // table — recompute lazily keyed on the table's commit count instead of
  // scanning the table on every check. (Keying on the query's
  // invalidation count would go wrong here: a lossy or downed pipeline
  // emits no notification for exactly the commits that make copies
  // stale.)
  const std::string key = query.NormalizedKey();
  const auto activity = table_activity_.find(query.table());
  const uint64_t commit_count =
      activity == table_activity_.end() ? 0 : activity->second.commits;
  FreshEtags& cache = fresh_etags_[key];
  if (!cache.valid || cache.commit_count != commit_count) {
    const std::vector<db::Document> fresh = db_->Execute(query);
    core::QueryResponse as_objects;
    as_objects.representation = ttl::ResultRepresentation::kObjectList;
    core::QueryResponse as_ids;
    as_ids.representation = ttl::ResultRepresentation::kIdList;
    for (const db::Document& d : fresh) {
      as_objects.ids.push_back(d.Key());
      as_objects.versions.push_back(d.version);
      as_ids.ids.push_back(d.Key());
    }
    const uint64_t new_objects = as_objects.ComputeEtag();
    const uint64_t new_ids = as_ids.ComputeEtag();
    if (cache.valid &&
        (cache.etag_objects != new_objects || cache.etag_ids != new_ids) &&
        activity != table_activity_.end()) {
      const Micros changed_at = activity->second.last_commit;
      cache.last_change = changed_at;
      // Only the first expiry matters: an etag that resurfaces later
      // (result flipped back) still went stale at its first supersession.
      cache.expired_at.emplace(cache.etag_objects, changed_at);
      cache.expired_at.emplace(cache.etag_ids, changed_at);
    }
    cache.valid = true;
    cache.commit_count = commit_count;
    cache.etag_objects = new_objects;
    cache.etag_ids = new_ids;
  }
  const uint64_t fresh_etag =
      qr.representation == ttl::ResultRepresentation::kObjectList
          ? cache.etag_objects
          : cache.etag_ids;
  if (fresh_etag == qr.etag) return false;
  // Lower-bound age: when the served etag itself stopped being fresh;
  // fallbacks are the query's last observed result change, then the
  // table's latest commit.
  const Micros now = clock_.NowMicros();
  const auto expired = cache.expired_at.find(qr.etag);
  if (expired != cache.expired_at.end() && expired->second <= now) {
    *stale_age_ms = MicrosToMillis(now - expired->second);
  } else if (cache.last_change > 0 && cache.last_change <= now) {
    *stale_age_ms = MicrosToMillis(now - cache.last_change);
  } else if (activity != table_activity_.end() &&
             activity->second.last_commit <= now) {
    *stale_age_ms = MicrosToMillis(now - activity->second.last_commit);
  }
  return true;
}

void Simulation::RecordOutcome(OpMetrics* metrics,
                               const client::RequestOutcome& o,
                               bool ok, double total_latency_ms, bool stale,
                               double stale_age_ms, bool in_window) {
  if (!in_window) return;
  if (ok) {
    results_.ok_ops++;
    if (o.served_stale_on_shed) results_.stale_shed_serves++;
  } else if (o.deadline_exceeded) {
    results_.deadline_exceeded_ops++;
  } else if (o.shed) {
    results_.shed_ops++;
  }
  metrics->count++;
  metrics->latency.Record(total_latency_ms);
  if (stale) {
    metrics->stale++;
    metrics->stale_age_ms.Record(stale_age_ms);
  }
  switch (o.served_by) {
    case webcache::ServedBy::kClientCache:
      metrics->client_hits++;
      break;
    case webcache::ServedBy::kExpirationCache:
    case webcache::ServedBy::kInvalidationCache:
      metrics->cdn_hits++;
      break;
    case webcache::ServedBy::kOrigin:
      metrics->origin++;
      break;
  }
}

void Simulation::RunConnectionStep(size_t instance_index, Micros stop_at) {
  const Micros now = clock_.NowMicros();
  const bool in_window = now >= options_.warmup;
  ClientInstance& ci = clients_[instance_index];
  workload::Operation op = generator_->Next();

  Micros total = ci.cpu->Acquire(now);
  bool origin_visit = false;
  // True only when the request actually held an origin worker (not shed,
  // not past-deadline): the slowness-feedback hook below samples per unit
  // of origin work performed, so a 100%-shed storm cannot keep charging
  // the admission controller for work the origin never did.
  bool origin_served = false;

  OpObservation obs;
  obs.instance = instance_index;
  obs.type = op.type;
  obs.table = op.table;
  obs.id = op.id;

  switch (op.type) {
    case workload::OpType::kRead: {
      client::ReadResult rr = ci.client->Read(op.table, op.id);
      origin_visit =
          rr.outcome.served_by == webcache::ServedBy::kOrigin;
      double latency_ms = rr.outcome.latency_ms;
      // A shed or past-deadline request never holds a backend worker —
      // the rejection (or the skipped round trip) is the whole point of
      // the protection — so it is not charged pool service time.
      origin_served =
          origin_visit && !rr.outcome.shed && !rr.outcome.deadline_exceeded;
      if (origin_served) {
        latency_ms += MicrosToMillis(server_pool_.Acquire(now));
      }
      total += MillisToMicros(latency_ms);
      double stale_age_ms = 0.0;
      const bool stale = CheckReadStale(op.table, op.id, rr, &stale_age_ms);
      RecordOutcome(&results_.reads, rr.outcome, rr.status.ok(), latency_ms,
                    stale, stale_age_ms, in_window);
      obs.read = &rr;
      obs.stale = stale;
      obs.stale_age_ms = stale_age_ms;
      for (const OpObserver& o : op_observers_) o(obs);
      break;
    }
    case workload::OpType::kQuery: {
      client::QueryResult qr = ci.client->ExecuteQuery(op.query);
      origin_visit =
          qr.outcome.served_by == webcache::ServedBy::kOrigin;
      double latency_ms = qr.outcome.latency_ms;
      // Shed / past-deadline queries don't hold a backend worker either.
      origin_served =
          origin_visit && !qr.outcome.shed && !qr.outcome.deadline_exceeded;
      if (origin_served) {
        latency_ms += MicrosToMillis(server_pool_.Acquire(now));
        // Track the issued TTL estimate for Figure 11.
        if (in_window) {
          const std::string key = op.query.NormalizedKey();
          auto entry = server_->active_list().Find(key);
          if (entry.has_value() && entry->last_read_time == now &&
              entry->last_issued_ttl > 0) {
            query_serves_.push_back(
                QueryServe{key, now, entry->last_issued_ttl});
          }
        }
      }
      total += MillisToMicros(latency_ms);
      double stale_age_ms = 0.0;
      const bool stale = CheckQueryStale(op.query, qr, &stale_age_ms);
      RecordOutcome(&results_.queries, qr.outcome, qr.status.ok(), latency_ms,
                    stale, stale_age_ms, in_window);
      obs.query = &op.query;
      obs.query_result = &qr;
      obs.stale = stale;
      obs.stale_age_ms = stale_age_ms;
      for (const OpObserver& o : op_observers_) o(obs);
      break;
    }
    case workload::OpType::kInsert:
    case workload::OpType::kUpdate:
    case workload::OpType::kDelete: {
      Result<db::Document> wr = [&] {
        if (op.type == workload::OpType::kInsert) {
          return ci.client->Insert(op.table, op.id, std::move(op.body));
        }
        if (op.type == workload::OpType::kUpdate) {
          return ci.client->Update(op.table, op.id, op.update);
        }
        return ci.client->Delete(op.table, op.id);
      }();
      client::RequestOutcome o;
      o.served_by = webcache::ServedBy::kOrigin;
      o.shed = !wr.ok() && wr.status().IsResourceExhausted();
      o.deadline_exceeded = !wr.ok() && wr.status().IsDeadlineExceeded();
      double latency_ms = ci.client->WriteLatencyMs();
      // Shed writes are rejected at admission, before a backend worker
      // picks them up — no pool service time.
      if (!o.shed && !o.deadline_exceeded) {
        latency_ms += MicrosToMillis(server_pool_.Acquire(now));
      }
      total += MillisToMicros(latency_ms);
      o.latency_ms = latency_ms;
      RecordOutcome(&results_.writes, o, wr.ok(), latency_ms, /*stale=*/false,
                    /*stale_age_ms=*/0.0, in_window);
      if (wr.ok()) obs.written = &wr.value();
      for (const OpObserver& ob : op_observers_) ob(obs);
      break;
    }
  }

  // Origin slowness injection: a seeded latency spike stalls the server's
  // admission workers, so slowness becomes queue pressure the controller
  // can react to (not just a latency number in the results).
  if (origin_served && options_.origin_spike_fn) {
    const Micros spike = options_.origin_spike_fn(now);
    if (spike > 0) server_->admission().InjectDelay(now, spike);
  }

  Micros think = options_.think_time;
  if (load_multiplier_ > 1.0) {
    think = static_cast<Micros>(static_cast<double>(think) /
                                load_multiplier_);
  }
  const Micros next = now + std::max<Micros>(total, 1) + think;
  if (next < stop_at) {
    events_.Schedule(next, [this, instance_index, stop_at] {
      RunConnectionStep(instance_index, stop_at);
    });
  }
}

SimResults Simulation::Run() {
  if (ran_) return results_;
  ran_ = true;

  generator_->Load(db_.get());

  for (ClientInstance& ci : clients_) ci.client->Connect();

  // Elastic scale-out events: repartition the matching grid mid-run.
  for (const SimOptions::ScheduledResize& r : options_.scheduled_resizes) {
    events_.Schedule(r.at, [this, r] {
      server_->ResizeInvalidb(r.query_partitions, r.object_partitions);
    });
  }

  // Overload phases: scale the origin pool and spawn the flash crowd.
  for (const SimOptions::OverloadPhase& p : options_.overload_phases) {
    const Micros phase_end = p.at + p.duration;
    events_.Schedule(p.at, [this, p, phase_end] {
      load_multiplier_ = std::max(1.0, p.load_multiplier);
      if (p.origin_slowdown > 1.0) {
        server_pool_.set_service_time(static_cast<Micros>(
            static_cast<double>(options_.server_service) *
            p.origin_slowdown));
      }
      // Flash crowd: (multiplier - 1)x extra connections per instance,
      // staggered like the permanent ones, gone when the phase ends.
      const size_t extra_per_instance = static_cast<size_t>(
          (std::max(1.0, p.load_multiplier) - 1.0) *
          static_cast<double>(options_.connections_per_instance));
      uint64_t stagger = 0;
      for (size_t i = 0; i < clients_.size(); ++i) {
        for (size_t c = 0; c < extra_per_instance; ++c) {
          stagger = (stagger + 7919) % 10000;
          events_.ScheduleAfter(static_cast<Micros>(stagger),
                                [this, i, phase_end] {
                                  RunConnectionStep(i, phase_end);
                                });
        }
      }
    });
    events_.Schedule(phase_end, [this] {
      load_multiplier_ = 1.0;
      server_pool_.set_service_time(options_.server_service);
    });
  }

  // Stagger connection start times to avoid lockstep artifacts.
  uint64_t stagger = 0;
  for (size_t i = 0; i < clients_.size(); ++i) {
    for (size_t c = 0; c < options_.connections_per_instance; ++c) {
      stagger = (stagger + 7919) % 10000;
      events_.Schedule(static_cast<Micros>(stagger), [this, i] {
        RunConnectionStep(i, options_.duration);
      });
    }
  }

  events_.RunUntil(options_.duration);

  results_.duration_s =
      MicrosToSeconds(options_.duration - options_.warmup);
  results_.total_ops = results_.reads.count + results_.queries.count +
                       results_.writes.count;
  results_.throughput_ops_s =
      results_.duration_s > 0
          ? static_cast<double>(results_.total_ops) / results_.duration_s
          : 0.0;
  results_.goodput_ops_s =
      results_.duration_s > 0
          ? static_cast<double>(results_.ok_ops) / results_.duration_s
          : 0.0;

  // Figure 11: estimated vs true TTLs (seconds). The true TTL of a serve
  // is the time until the result's next invalidation; serves never
  // invalidated before simulation end are right-censored and dropped.
  for (const QueryServe& s : query_serves_) {
    results_.estimated_ttls_s.push_back(MicrosToSeconds(s.estimated_ttl));
    auto it = invalidations_.find(s.key);
    if (it == invalidations_.end()) continue;
    const std::vector<Micros>& times = it->second;
    auto next = std::upper_bound(times.begin(), times.end(), s.at);
    if (next != times.end()) {
      results_.true_ttls_s.push_back(MicrosToSeconds(*next - s.at));
    }
  }

  results_.server_stats = server_->stats();
  results_.invalidb_stats = server_->invalidb().stats();
  if (cdn_ != nullptr) results_.cdn_stats = cdn_->stats();

  // Unified export: every component's stats surface lands in the
  // registry, and the snapshot rides along in the results so benches can
  // merge runs and write one JSON blob.
  server_->ExportMetrics(&registry_);
  if (cdn_ != nullptr) {
    results_.cdn_stats.ExportTo(&registry_, {{"tier", "cdn"}});
  }
  for (const ClientInstance& ci : clients_) {
    ci.client->stats().ExportTo(&registry_);
    if (ci.cache != nullptr) {
      ci.cache->stats().ExportTo(&registry_, {{"tier", "client"}});
    }
  }
  const auto export_op = [this](const char* op_name, const OpMetrics& m) {
    const obs::Labels labels = {{"op", op_name}};
    registry_.Count("sim_ops", labels, m.count);
    registry_.Count("sim_stale", labels, m.stale);
    registry_.Count("sim_client_hits", labels, m.client_hits);
    registry_.Count("sim_cdn_hits", labels, m.cdn_hits);
    registry_.Count("sim_origin_fetches", labels, m.origin);
    registry_.GetTimer("sim_latency_ms", labels)->MergeHistogram(m.latency);
    registry_.GetTimer("sim_stale_age_ms", labels)
        ->MergeHistogram(m.stale_age_ms);
  };
  export_op("read", results_.reads);
  export_op("query", results_.queries);
  export_op("write", results_.writes);
  registry_.SetGauge("sim_throughput_ops_s", results_.throughput_ops_s);
  registry_.SetGauge("sim_goodput_ops_s", results_.goodput_ops_s);
  registry_.Count("sim_ok_ops", {}, results_.ok_ops);
  registry_.Count("sim_shed_ops", {}, results_.shed_ops);
  registry_.Count("sim_deadline_exceeded_ops", {},
                  results_.deadline_exceeded_ops);
  registry_.Count("sim_stale_shed_serves", {}, results_.stale_shed_serves);
  if (tracer_ != nullptr) {
    registry_.SetGauge("trace_spans",
                       static_cast<double>(tracer_->SpanCount()));
    registry_.SetGauge("trace_dropped_spans",
                       static_cast<double>(tracer_->DroppedSpans()));
  }
  results_.metrics = registry_.Snapshot();
  return results_;
}

}  // namespace quaestor::sim
