#include "core/server.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <unordered_set>

#include "common/hash.h"

namespace quaestor::core {
namespace {

/// InvaliDB events that invalidate a cached result (§4.1): an id-list
/// changes only with membership, an object list also with a member's
/// content, and a sorted result (ORDER BY / LIMIT / OFFSET) also with a
/// member's position. OnNotificationBatch filters by it.
invalidb::EventMask CacheEvents(const db::Query& query,
                                ttl::ResultRepresentation representation) {
  const invalidb::EventMask events =
      representation == ttl::ResultRepresentation::kIdList
          ? invalidb::kEventsIdList
          : invalidb::kEventsObjectList;
  return query.IsStateless() ? events : events | invalidb::kEventChangeIndex;
}

}  // namespace

void ServerStats::ExportTo(obs::MetricsRegistry* registry,
                           const obs::Labels& labels) const {
  registry->Count("server_record_reads", labels, record_reads);
  registry->Count("server_query_reads", labels, query_reads);
  registry->Count("server_writes", labels, writes);
  registry->Count("server_not_modified", labels, not_modified);
  registry->Count("server_query_invalidations", labels, query_invalidations);
  registry->Count("server_record_invalidations", labels,
                  record_invalidations);
  registry->Count("server_uncacheable_queries", labels, uncacheable_queries);
  registry->Count("server_bloom_filter_requests", labels,
                  bloom_filter_requests);
  registry->Count("server_body_memo_hits", labels, body_memo_hits);
  registry->Count("server_body_memo_misses", labels, body_memo_misses);
  registry->Count("server_degraded_reads", labels, degraded_reads);
  registry->Count("server_degradation_flips", labels, degradation_flips);
  registry->Count("server_change_events_dropped", labels,
                  change_events_dropped);
  registry->Count("server_unavailable_responses", labels,
                  unavailable_responses);
  registry->Count("server_shed_responses", labels, shed_responses);
  registry->Count("server_deadline_exceeded_responses", labels,
                  deadline_exceeded_responses);
}

QuaestorServer::QuaestorServer(Clock* clock, db::Database* database,
                               ServerOptions options)
    : clock_(clock),
      db_(database),
      options_(options),
      ebf_(clock, options.bloom_params),
      ttl_estimator_(clock, options.ttl_options),
      active_list_(),
      capacity_(options.query_capacity),
      admission_(options.admission),
      fault_rng_(options.fault_seed) {
  invalidb_ = std::make_unique<invalidb::InvalidbCluster>(
      clock, options.invalidb_options,
      [this](const std::vector<invalidb::Notification>& batch) {
        OnNotificationBatch(batch);
      });
  pipeline_ = invalidb_.get();
  db_->AddChangeListener([this](const db::ChangeEvent& ev) {
    // Fault gates: a hard pipeline outage swallows the whole change
    // stream; a lossy pipeline drops a seeded fraction of it. Either way
    // the event is counted — the oracle/degradation machinery has to
    // cover the resulting missed invalidations.
    if (pipeline_down_.load(std::memory_order_acquire)) {
      change_events_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (options_.fault_change_loss_rate > 0.0) {
      bool drop;
      {
        std::lock_guard<std::mutex> lock(fault_mu_);
        drop = fault_rng_.NextBool(options_.fault_change_loss_rate);
      }
      if (drop) {
        change_events_dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    pipeline_->OnChange(ev);
  });
  transactions_ = std::make_unique<TransactionManager>(this);
}

QuaestorServer::~QuaestorServer() = default;

void QuaestorServer::SetPipeline(invalidb::Pipeline* pipeline) {
  pipeline_ = pipeline;
}

Status QuaestorServer::RegisterLocked(const std::string& key,
                                      const db::Query& query,
                                      std::vector<db::Document>* result) {
  // Changes that commit after this instant race an evaluation below; the
  // pipeline replays them to the new query (§4.1 activation race). A
  // caller's `*result` was evaluated just before.
  const Micros evaluated_at = clock_->NowMicros();
  std::vector<db::Document> registration_set;
  if (!query.IsStateless()) {
    registration_set = db_->Execute(db::Query(query.table(), query.filter()));
  } else if (result != nullptr) {
    registration_set = std::move(*result);
  } else {
    registration_set = db_->Execute(query);
  }
  Status st;
  {
    obs::ScopedSpan reg_span(tracer_, "invalidb.register");
    st = pipeline_->RegisterQuery(query, registration_set, evaluated_at);
  }
  if (!st.ok() && !st.IsAlreadyExists()) return st;
  active_list_.SetRegistered(key, true);
  return Status::OK();
}

Status QuaestorServer::ActivateQuery(const db::Query& query) {
  const std::string key = query.NormalizedKey();
  std::lock_guard<std::mutex> reg_lock(registration_mu_);
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto it = query_meta_.find(key);
    if (it != query_meta_.end()) it->second.streamed = true;
  }
  if (active_list_.IsRegistered(key)) return Status::OK();
  return RegisterLocked(key, query, nullptr);
}

void QuaestorServer::DeactivateQuery(const std::string& key) {
  std::lock_guard<std::mutex> reg_lock(registration_mu_);
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto it = query_meta_.find(key);
    if (it == query_meta_.end()) return;
    it->second.streamed = false;
  }
  if (!active_list_.IsRegistered(key) || capacity_.IsAdmitted(key)) return;
  pipeline_->DeregisterQuery(key);
  active_list_.SetRegistered(key, false);
}

ttl::ResultRepresentation QuaestorServer::CachedRepresentation(
    const QueryMeta& meta) const {
  if (meta.has_chosen_representation) return meta.chosen_representation;
  return options_.representation == RepresentationPolicy::kAlwaysIdList
             ? ttl::ResultRepresentation::kIdList
             : ttl::ResultRepresentation::kObjectList;
}

void QuaestorServer::ReregisterQueries() {
  // Held throughout, so no fetch registers or evicts a query between the
  // snapshot and its re-registration.
  std::lock_guard<std::mutex> reg_lock(registration_mu_);
  std::vector<std::pair<std::string, db::Query>> registered;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    for (const auto& [key, meta] : query_meta_) {
      if (active_list_.IsRegistered(key)) {
        registered.emplace_back(key, meta.query);
      }
    }
  }
  for (const auto& [key, query] : registered) {
    pipeline_->DeregisterQuery(key);
    (void)RegisterLocked(key, query, nullptr);
  }
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status QuaestorServer::AdmitWrite(const RequestContext& ctx) {
  if (!options_.admission.enabled) return Status::OK();
  RequestContext eff = ctx;
  // Writes default to the lowest class: clients retry them, so they are
  // the first load to shed.
  if (eff.priority == Priority::kNormal) eff.priority = Priority::kLow;
  Status st = admission_.Admit(clock_->NowMicros(), eff);
  if (st.IsResourceExhausted()) {
    shed_responses_.fetch_add(1, std::memory_order_relaxed);
  } else if (st.IsDeadlineExceeded()) {
    deadline_exceeded_responses_.fetch_add(1, std::memory_order_relaxed);
  }
  return st;
}

Result<db::Document> QuaestorServer::Insert(const Credentials& who,
                                            const std::string& table,
                                            const std::string& id,
                                            db::Value body,
                                            const RequestContext& ctx) {
  obs::ScopedSpan span(tracer_, "server.write");
  QUAESTOR_RETURN_IF_ERROR(AdmitWrite(ctx));
  QUAESTOR_RETURN_IF_ERROR(auth_.CheckWrite(who, table));
  QUAESTOR_RETURN_IF_ERROR(schemas_.Validate(table, body));
  auto res = db_->Insert(table, id, std::move(body));
  if (res.ok()) OnRecordWrite(res.value());
  return res;
}

Result<db::Document> QuaestorServer::Update(const Credentials& who,
                                            const std::string& table,
                                            const std::string& id,
                                            const db::Update& update,
                                            const RequestContext& ctx) {
  obs::ScopedSpan span(tracer_, "server.write");
  QUAESTOR_RETURN_IF_ERROR(AdmitWrite(ctx));
  QUAESTOR_RETURN_IF_ERROR(auth_.CheckWrite(who, table));
  if (schemas_.HasSchema(table)) {
    // Validate the post-image before committing.
    auto current = db_->Get(table, id);
    if (!current.ok()) return current.status();
    db::Value post = current->body;
    QUAESTOR_RETURN_IF_ERROR(update.ApplyTo(post));
    QUAESTOR_RETURN_IF_ERROR(schemas_.Validate(table, post));
  }
  auto res = db_->Apply(table, id, update);
  if (res.ok()) OnRecordWrite(res.value());
  return res;
}

Result<db::Document> QuaestorServer::Delete(const Credentials& who,
                                            const std::string& table,
                                            const std::string& id,
                                            const RequestContext& ctx) {
  obs::ScopedSpan span(tracer_, "server.write");
  QUAESTOR_RETURN_IF_ERROR(AdmitWrite(ctx));
  QUAESTOR_RETURN_IF_ERROR(auth_.CheckWrite(who, table));
  auto res = db_->Delete(table, id);
  if (res.ok()) OnRecordWrite(res.value());
  return res;
}

void QuaestorServer::OnRecordWrite(const db::Document& after) {
  const std::string key = after.Key();
  writes_.fetch_add(1, std::memory_order_relaxed);
  // The record's memoized body (if any) describes the old version; the
  // version bump already makes it unservable, drop it eagerly.
  MemoErase(key);
  // Feed the write-rate estimator (Poisson model, §4.2).
  ttl_estimator_.RecordWrite(key);
  // The record's cached copies are now stale: flag in the EBF (if any
  // issued TTL is outstanding) and purge invalidation-based caches.
  const bool was_cached = ebf_.ReportWrite(key);
  if (was_cached) {
    record_invalidations_.fetch_add(1, std::memory_order_relaxed);
  }
  PurgeEverywhere(key);
  // The write response itself is cacheable by the writer
  // (read-your-writes): track its implied TTL so a later foreign write
  // can flag that copy too.
  if (!after.deleted && !options_.fault_disable_ebf_read_tracking) {
    ebf_.ReportRead(key, kOwnWriteTtl);
  }
  // Query invalidations are detected by InvaliDB via the change stream
  // (wired in the constructor) and handled in OnNotificationBatch.
}

// ---------------------------------------------------------------------------
// Invalidation pipeline
// ---------------------------------------------------------------------------

void QuaestorServer::OnNotificationBatch(
    const std::vector<invalidb::Notification>& batch) {
  if (batch.empty()) return;
  obs::ScopedSpan span(tracer_, "server.on_notification");
  // Lag / hysteresis: record every notification's lag (the last one wins),
  // then refresh the mode once.
  const Micros now = clock_->NowMicros();
  for (const invalidb::Notification& n : batch) {
    const Micros lag = std::max<Micros>(0, now - n.event_time);
    last_notification_lag_.store(lag, std::memory_order_relaxed);
    if (options_.degradation.enabled) {
      const Micros budget = options_.degradation.staleness_budget;
      if (lag > budget) {
        lag_degraded_.store(true, std::memory_order_relaxed);
      } else if (lag <= budget / 2) {
        lag_degraded_.store(false, std::memory_order_relaxed);
      }
    }
  }
  if (options_.degradation.enabled) RefreshDegradedState();
  // The kAuto cost model counts every notification. The cache pass below
  // sees only those that invalidate a cached copy; `kept` is filled only
  // once one is dropped, so a batch that passes whole is not copied.
  std::vector<invalidb::Notification> kept;
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    for (size_t i = 0; i < batch.size(); ++i) {
      const invalidb::Notification& n = batch[i];
      auto it = query_meta_.find(n.query_key);
      bool keep = true;
      if (it != query_meta_.end()) {
        QueryMeta& m = it->second;
        switch (n.type) {
          case invalidb::NotificationType::kAdd:
            m.adds++;
            break;
          case invalidb::NotificationType::kRemove:
            m.removes++;
            break;
          default:
            m.changes++;
        }
        keep = m.streamed ||
               (CacheEvents(m.query, CachedRepresentation(m)) &
                invalidb::EventBit(n.type)) != 0;
        if (keep) {
          m.last_result_change = std::max(m.last_result_change, n.event_time);
        }
      }
      if (!keep && !dropped) {
        dropped = true;
        kept.assign(batch.begin(), batch.begin() + i);
      } else if (keep && dropped) {
        kept.push_back(n);
      }
    }
  }
  const std::vector<invalidb::Notification>& invalidating =
      dropped ? kept : batch;
  if (invalidating.empty()) return;
  query_invalidations_.fetch_add(invalidating.size(),
                                 std::memory_order_relaxed);
  // Stale-key pass, once per distinct query in first-occurrence order:
  // repeated flags/purges of the same key within one batch are redundant
  // (the first already made every copy unservable).
  std::unordered_set<std::string_view> seen;
  seen.reserve(invalidating.size());
  for (const invalidb::Notification& n : invalidating) {
    if (!seen.insert(n.query_key).second) continue;
    MemoErase(n.query_key);
    ebf_.ReportWrite(n.query_key);
    PurgeEverywhere(n.query_key);
  }
  // TTL feedback and capacity accounting stay per-notification: the
  // active list needs every invalidation timestamp.
  for (const invalidb::Notification& n : invalidating) {
    const auto actual =
        active_list_.OnInvalidation(n.query_key, n.event_time);
    if (actual.has_value()) {
      ttl_estimator_.OnQueryInvalidated(n.query_key, *actual);
    }
    capacity_.OnInvalidation(n.query_key);
  }
  std::vector<invalidb::NotificationBatchSink> taps;
  {
    std::lock_guard<std::mutex> lock(purge_mu_);
    taps = notification_taps_;
  }
  for (const auto& tap : taps) tap(invalidating);
}

void QuaestorServer::AddNotificationTap(invalidb::NotificationBatchSink tap) {
  std::lock_guard<std::mutex> lock(purge_mu_);
  notification_taps_.push_back(std::move(tap));
}

void QuaestorServer::PurgeEverywhere(const std::string& key) {
  std::vector<PurgeTarget> targets;
  {
    std::lock_guard<std::mutex> lock(purge_mu_);
    targets = purge_targets_;
  }
  for (const PurgeTarget& t : targets) t(key);
}

void QuaestorServer::AddPurgeTarget(PurgeTarget target) {
  std::lock_guard<std::mutex> lock(purge_mu_);
  purge_targets_.push_back(std::move(target));
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

void QuaestorServer::RegisterQueryShape(const db::Query& query) {
  const std::string key = query.NormalizedKey();
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = query_meta_.find(key);
  if (it != query_meta_.end()) return;
  QueryMeta meta;
  meta.query = query;
  meta.first_seen = clock_->NowMicros();
  query_meta_[key] = std::move(meta);
}

webcache::HttpResponse QuaestorServer::Fetch(
    const webcache::HttpRequest& request) {
  obs::ScopedSpan span(tracer_, "server.fetch");
  span.Annotate("key", request.key);
  if (unavailable_.load(std::memory_order_acquire)) {
    unavailable_responses_.fetch_add(1, std::memory_order_relaxed);
    webcache::HttpResponse resp;
    resp.unavailable = true;  // 503: retryable, never cacheable
    return resp;
  }
  if (options_.admission.enabled) {
    const Micros now = clock_->NowMicros();
    if (request.context.Expired(now)) {
      // Dead on arrival: the client has already given up on this
      // response, don't burn capacity producing it.
      deadline_exceeded_responses_.fetch_add(1, std::memory_order_relaxed);
      webcache::HttpResponse resp;
      resp.deadline_exceeded = true;
      return resp;
    }
    RequestContext eff = request.context;
    // Conditional revalidations are usually a cheap 304 and keep cache
    // copies fresh; admit them ahead of plain reads.
    if (request.has_if_none_match && eff.priority == Priority::kNormal) {
      eff.priority = Priority::kHigh;
    }
    const Status admit = admission_.Admit(now, eff);
    if (!admit.ok()) {
      webcache::HttpResponse resp;
      if (admit.IsDeadlineExceeded()) {
        deadline_exceeded_responses_.fetch_add(1, std::memory_order_relaxed);
        resp.deadline_exceeded = true;
      } else {
        shed_responses_.fetch_add(1, std::memory_order_relaxed);
        resp.shed = true;  // 429: saturated, not down
      }
      return resp;
    }
  }
  if (request.key.rfind("q:", 0) == 0) {
    db::Query query;
    {
      std::lock_guard<std::mutex> lock(meta_mu_);
      auto it = query_meta_.find(request.key);
      if (it == query_meta_.end()) {
        webcache::HttpResponse resp;
        resp.ok = false;
        return resp;
      }
      query = it->second.query;
    }
    return FetchQuery(request, query);
  }
  return FetchRecord(request);
}

webcache::HttpResponse QuaestorServer::FetchRecord(
    const webcache::HttpRequest& request) {
  obs::ScopedSpan span(tracer_, "server.record");
  record_reads_.fetch_add(1, std::memory_order_relaxed);
  webcache::HttpResponse resp;
  const size_t slash = request.key.find('/');
  if (slash == std::string::npos) return resp;  // malformed key
  const std::string table = request.key.substr(0, slash);
  const std::string id = request.key.substr(slash + 1);
  // Authorization: 403 for callers without read access; non-public
  // tables are served uncacheable so shared caches never hold them.
  if (!auth_.CheckRead(auth_.Resolve(request.auth_token), table).ok()) {
    return resp;  // 403
  }
  const bool cacheable_table = auth_.ReadIsPublic(table);
  // Version and commit time only: 304s and memo hits need no document.
  auto current = db_->GetVersion(table, id);
  if (!current.ok()) return resp;  // 404

  resp.ok = true;
  resp.etag = current->version;
  resp.last_modified = current->write_time;
  {
    obs::ScopedSpan ttl_span(tracer_, "ttl.estimate");
    resp.ttl = cacheable_table ? ttl_estimator_.RecordTtl(request.key) : 0;
  }
  const Micros uncapped_ttl = resp.ttl;
  resp.ttl = CapTtl(resp.ttl);
  if (resp.ttl != uncapped_ttl) {
    degraded_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  if (request.has_if_none_match && request.if_none_match == resp.etag) {
    resp.not_modified = true;
    not_modified_.fetch_add(1, std::memory_order_relaxed);
  } else if (auto memo = MemoLookup(request.key);
             memo != nullptr && memo->etag == resp.etag) {
    // Record bodies carry no TTLs, so a memoized body is valid whenever
    // the version still matches (degraded or not).
    resp.body = memo->body;
    body_memo_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // A write may have landed since the version lookup: etag, commit
    // time, body and memo entry all come from this one copy, so they
    // always describe the same version.
    auto doc = db_->Get(table, id);
    if (!doc.ok()) return webcache::HttpResponse{};  // deleted since: 404
    resp.etag = doc->version;
    resp.last_modified = doc->write_time;
    auto entry = std::make_shared<MemoEntry>();
    entry->etag = doc->version;
    doc->body.AppendJson(&entry->body);
    resp.body = entry->body;
    MemoStore(request.key, std::move(entry));
    body_memo_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  // Track the issued TTL so a later write can flag staleness (§3.3).
  if (!options_.fault_disable_ebf_read_tracking) {
    obs::ScopedSpan ebf_span(tracer_, "ebf.report_read");
    ebf_.ReportRead(request.key, resp.ttl);
  }
  return resp;
}

ttl::ResultRepresentation QuaestorServer::ChooseRepresentationFor(
    const std::string& query_key, size_t result_size) {
  switch (options_.representation) {
    case RepresentationPolicy::kAlwaysObjectList:
      return ttl::ResultRepresentation::kObjectList;
    case RepresentationPolicy::kAlwaysIdList:
      return ttl::ResultRepresentation::kIdList;
    case RepresentationPolicy::kAuto:
      break;
  }
  ttl::RepresentationCosts costs;
  costs.result_size = result_size;
  double age_s = 1.0;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto it = query_meta_.find(query_key);
    if (it != query_meta_.end()) {
      age_s = std::max(
          1.0, MicrosToSeconds(clock_->NowMicros() - it->second.first_seen));
      costs.change_rate = static_cast<double>(it->second.changes) / age_s;
      costs.membership_rate =
          static_cast<double>(it->second.adds + it->second.removes) / age_s;
    }
  }
  const auto entry = active_list_.Find(query_key);
  costs.read_rate =
      entry.has_value()
          ? std::max(1.0, static_cast<double>(entry->read_count) / age_s)
          : 1.0;
  return ttl::ChooseRepresentation(costs);
}

ttl::ResultRepresentation QuaestorServer::DecideRepresentation(
    const std::string& query_key, size_t result_size, bool* need_switch) {
  *need_switch = false;
  if (options_.representation != RepresentationPolicy::kAuto) {
    return ChooseRepresentationFor(query_key, result_size);
  }
  const Micros now = clock_->NowMicros();
  bool evaluate = false;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto it = query_meta_.find(query_key);
    if (it != query_meta_.end()) {
      QueryMeta& m = it->second;
      if (!m.has_chosen_representation ||
          now - m.representation_chosen_at >=
              kRepresentationDecisionInterval) {
        evaluate = true;
      } else {
        return m.chosen_representation;
      }
    }
  }
  ttl::ResultRepresentation fresh =
      ChooseRepresentationFor(query_key, result_size);
  if (!evaluate) return fresh;
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = query_meta_.find(query_key);
  if (it == query_meta_.end()) return fresh;
  QueryMeta& m = it->second;
  if (m.has_chosen_representation && fresh != m.chosen_representation) {
    *need_switch = true;
  }
  m.has_chosen_representation = true;
  m.chosen_representation = fresh;
  m.representation_chosen_at = now;
  return fresh;
}

webcache::HttpResponse QuaestorServer::FetchQuery(
    const webcache::HttpRequest& request, const db::Query& query) {
  obs::ScopedSpan span(tracer_, "server.query");
  query_reads_.fetch_add(1, std::memory_order_relaxed);
  const std::string& key = request.key;
  const Micros now = clock_->NowMicros();

  // Authorization mirrors the record path: 403 without read access,
  // uncacheable results for non-public tables.
  if (!auth_.CheckRead(auth_.Resolve(request.auth_token), query.table())
           .ok()) {
    webcache::HttpResponse denied;
    return denied;  // 403
  }
  const bool cacheable_table = auth_.ReadIsPublic(query.table());

  // Capacity management (§4.1): only sufficiently cacheable queries are
  // admitted; a displaced query is evicted from the cached set.
  capacity_.OnRead(key);
  bool admitted = false;
  if (cacheable_table) {
    std::optional<std::string> evicted;
    admitted = capacity_.Admit(key, &evicted);
    if (evicted.has_value()) EvictQuery(*evicted);
  }

  // Representation decision. A switch changes which notifications the
  // filter keeps for the key, so outstanding copies of the old
  // representation are conservatively flagged stale and purged (an
  // object-list copy would otherwise miss `change` invalidations after a
  // switch to id-lists).
  bool representation_switched = false;
  std::optional<ttl::ResultRepresentation> representation;
  auto decide_representation = [&](size_t result_size) {
    representation =
        DecideRepresentation(key, result_size, &representation_switched);
    if (representation_switched) FlagCachedCopies(key);
  };

  // Result reuse: the memo entry of the last execution stands in for a
  // new one while its stamp is current: no index DDL and no write to one
  // of the index keys the result was looked up by (or, for range, top-k
  // and scan plans, no commit to the table at all) since. Execution is
  // the fallback whenever that cannot be shown: a stale stamp, degraded
  // mode (bodies then embed capped TTLs, so there is no memo), a changed
  // representation decision, or a pending InvaliDB registration, which
  // needs the documents.
  const bool memo_usable = !degraded();
  std::shared_ptr<const MemoEntry> memo;
  if (memo_usable && (!admitted || active_list_.IsRegistered(key))) {
    memo = MemoLookup(key);
    if (memo != nullptr &&
        db_->IsCurrent(
            query.table(),
            {memo->stamp_commit.load(std::memory_order_acquire),
             memo->stamp_slots})) {
      decide_representation(memo->member_keys.size());
      if (representation_switched || *representation != memo->representation) {
        memo = nullptr;
      }
    } else {
      memo = nullptr;
    }
  }
  const bool executed = memo == nullptr;

  webcache::HttpResponse resp;
  resp.ok = true;
  std::vector<db::Document> docs;
  db::ResultStamp stamp;
  QueryResponse qr;
  // Latest commit time among the members (before merging in removals).
  Micros members_write_time = 0;
  if (executed) {
    {
      obs::ScopedSpan db_span(tracer_, "db.execute");
      docs = db_->Execute(query, &stamp);
    }
    // Deadline re-check after the expensive step: if execution outlived
    // the request, abandon before serialization/registration — the client
    // has already stopped waiting, and the stale-serve path needs the slot
    // more.
    if (options_.admission.enabled &&
        request.context.Expired(clock_->NowMicros())) {
      deadline_exceeded_responses_.fetch_add(1, std::memory_order_relaxed);
      webcache::HttpResponse late;
      late.deadline_exceeded = true;
      return late;
    }
    if (!representation.has_value()) decide_representation(docs.size());
    qr.representation = *representation;
    qr.ids.reserve(docs.size());
    for (const db::Document& d : docs) {
      qr.ids.push_back(d.Key());
      members_write_time = std::max(members_write_time, d.write_time);
    }
    if (qr.representation == ttl::ResultRepresentation::kObjectList) {
      // Ids and versions alone determine the object-list etag: fill them
      // before the 304/memo decision so neither path copies document
      // bodies.
      qr.versions.reserve(docs.size());
      for (const db::Document& d : docs) qr.versions.push_back(d.version);
    }
    resp.etag = qr.ComputeEtag();
    // An execution that reproduces the memoized result refreshes the
    // entry's stamp, so later fetches reuse it until the next commit that
    // touches what it read. A plan change (index DDL) changes the slots,
    // which stay fixed in a published entry: the same result is then
    // published anew under the new stamp.
    if (memo_usable) {
      memo = MemoLookup(key);
      if (memo != nullptr && memo->etag == resp.etag &&
          memo->representation == qr.representation &&
          memo->members_write_time == members_write_time) {
        if (memo->stamp_slots == stamp.slots) {
          memo->stamp_commit.store(stamp.commit, std::memory_order_release);
        } else {
          auto entry = std::make_shared<MemoEntry>();
          entry->etag = memo->etag;
          entry->representation = memo->representation;
          entry->body = memo->body;
          entry->stamp_commit.store(stamp.commit, std::memory_order_relaxed);
          entry->stamp_slots = stamp.slots;
          entry->member_keys = memo->member_keys;
          entry->members_write_time = memo->members_write_time;
          entry->record_ttls = memo->record_ttls;
          MemoStore(key, entry);
          memo = std::move(entry);
        }
      } else {
        memo = nullptr;
      }
    }
  } else {
    resp.etag = memo->etag;
    members_write_time = memo->members_write_time;
  }
  const std::vector<std::string>& member_keys =
      memo != nullptr ? memo->member_keys : qr.ids;

  Micros ttl = 0;
  if (admitted) {
    {
      obs::ScopedSpan ttl_span(tracer_, "ttl.estimate");
      ttl = ttl_estimator_.QueryTtl(key, member_keys);
    }
    const Micros capped = CapTtl(ttl);
    if (capped != ttl) {
      degraded_reads_.fetch_add(1, std::memory_order_relaxed);
    }
    ttl = capped;
  } else {
    uncacheable_queries_.fetch_add(1, std::memory_order_relaxed);
  }
  resp.ttl = ttl;
  // Last-Modified of a query result: the latest of its members' commit
  // times and the last InvaliDB-detected result change (covers removals,
  // whose commit is no longer visible among the members).
  resp.last_modified = members_write_time;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto it = query_meta_.find(key);
    if (it != query_meta_.end()) {
      resp.last_modified =
          std::max(resp.last_modified, it->second.last_result_change);
    }
  }
  if (request.has_if_none_match && request.if_none_match == resp.etag) {
    // 304: no body leaves the server and no new record copies are issued,
    // so per-record TTL estimation and EBF tracking are skipped — every
    // copy the revalidating client holds was tracked when its body was
    // first served.
    resp.not_modified = true;
    not_modified_.fetch_add(1, std::memory_order_relaxed);
  } else if (memo != nullptr) {
    resp.body = memo->body;
    // Re-issue the memoized record TTLs: the embedded values are
    // durations from receipt, so each serve hands out fresh copies the
    // EBF must keep tracking (issued == tracked preserves ∆-atomicity).
    // Object-list entries only (id lists embed no TTLs); every member
    // belongs to the query's table, so one call covers them all.
    if (!options_.fault_disable_ebf_read_tracking &&
        !memo->record_ttls.empty()) {
      ebf_.ReportReads(query.table(), memo->member_keys, memo->record_ttls);
    }
    body_memo_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    auto entry = std::make_shared<MemoEntry>();
    if (qr.representation == ttl::ResultRepresentation::kObjectList) {
      qr.docs.reserve(docs.size());
      qr.record_ttls.reserve(docs.size());
      for (size_t i = 0; i < docs.size(); ++i) {
        qr.docs.push_back(docs[i].body);
        const Micros record_ttl =
            CapTtl(cacheable_table ? ttl_estimator_.RecordTtl(qr.ids[i]) : 0);
        qr.record_ttls.push_back(record_ttl);
        // The response implicitly issues per-record TTLs (results are
        // inserted into caches as individual entries, §6.2).
        if (!options_.fault_disable_ebf_read_tracking) {
          ebf_.ReportRead(qr.ids[i], record_ttl);
        }
      }
      entry->record_ttls = qr.record_ttls;
    }
    entry->etag = resp.etag;
    entry->representation = qr.representation;
    entry->stamp_commit.store(stamp.commit, std::memory_order_relaxed);
    entry->stamp_slots = stamp.slots;
    entry->members_write_time = members_write_time;
    entry->member_keys = qr.ids;
    qr.AppendJsonTo(&entry->body);
    resp.body = entry->body;
    if (memo_usable) MemoStore(key, std::move(entry));
    body_memo_misses_.fetch_add(1, std::memory_order_relaxed);
  }

  if (admitted) {
    // Register in InvaliDB before the response can be cached: every
    // subsequent change within the TTL must be detected (Figure 7 step 2).
    // Checked again under registration_mu_, which orders registration
    // against eviction, deactivation and recovery.
    if (!active_list_.IsRegistered(key)) {
      std::lock_guard<std::mutex> reg_lock(registration_mu_);
      if (!active_list_.IsRegistered(key)) {
        // Without an execution here (served from the memo, deregistered by
        // a concurrent eviction since the reuse check) the query runs anew.
        (void)RegisterLocked(key, query, executed ? &docs : nullptr);
      }
    }
    active_list_.OnRead(key, now, ttl);
    if (!options_.fault_disable_ebf_read_tracking) {
      obs::ScopedSpan ebf_span(tracer_, "ebf.report_read");
      ebf_.ReportRead(key, ttl);
    }
  }
  return resp;
}

void QuaestorServer::EvictQuery(const std::string& query_key) {
  // Stop maintaining the query (unless a change stream still needs its
  // registration). Outstanding cached copies can no longer be invalidated,
  // so conservatively mark the key stale for as long as any issued TTL is
  // unexpired and purge CDNs now.
  {
    std::lock_guard<std::mutex> reg_lock(registration_mu_);
    bool streamed;
    {
      std::lock_guard<std::mutex> lock(meta_mu_);
      auto it = query_meta_.find(query_key);
      streamed = it != query_meta_.end() && it->second.streamed;
    }
    if (!streamed) {
      pipeline_->DeregisterQuery(query_key);
      active_list_.SetRegistered(query_key, false);
    }
  }
  FlagCachedCopies(query_key);
  ttl_estimator_.Forget(query_key);
}

ebf::BloomFilter QuaestorServer::BloomSnapshot() {
  bloom_filter_requests_.fetch_add(1, std::memory_order_relaxed);
  return ebf_.AggregateSnapshot();
}

ebf::BloomFilter QuaestorServer::BloomSnapshotForTable(
    const std::string& table) {
  bloom_filter_requests_.fetch_add(1, std::memory_order_relaxed);
  return ebf_.Partition(table)->Snapshot();
}

// ---------------------------------------------------------------------------
// Fault tolerance & degradation
// ---------------------------------------------------------------------------

bool QuaestorServer::degraded() const {
  if (!options_.degradation.enabled) return false;
  if (manual_degraded_.load(std::memory_order_relaxed) ||
      pipeline_down_.load(std::memory_order_relaxed) ||
      lag_degraded_.load(std::memory_order_relaxed) ||
      resizing_.load(std::memory_order_relaxed)) {
    return true;
  }
  // An unhealthy pipeline (a dead matching node) silently loses
  // invalidations — that alone forfeits the invalidation guarantee.
  return !pipeline_->Healthy();
}

Micros QuaestorServer::CapTtl(Micros ttl) const {
  if (ttl <= 0 || !degraded()) return ttl;
  return std::min(ttl, options_.degradation.degraded_ttl_cap);
}

void QuaestorServer::FlagAllCachedCopies() {
  // The EBF tracks exactly the keys (records and queries) with unexpired
  // issued TTLs — a strict superset of the currently-registered queries.
  // Registered queries alone would miss cold queries that fell off the
  // active list but still sit in some cache with a long TTL.
  for (const std::string& key : ebf_.FlagAllTracked()) {
    PurgeEverywhere(key);
  }
  // Memoized bodies embed uncapped record TTLs from before the flip —
  // none of them may be replayed.
  MemoClear();
}

void QuaestorServer::FlagCachedCopies(const std::string& key) {
  MemoErase(key);
  ebf_.ReportWrite(key);
  PurgeEverywhere(key);
}

void QuaestorServer::RefreshDegradedState() {
  const bool now_degraded = degraded();
  if (was_degraded_.exchange(now_degraded) == now_degraded) return;
  degradation_flips_.fetch_add(1, std::memory_order_relaxed);
  if (now_degraded) FlagAllCachedCopies();
}

void QuaestorServer::SetDegraded(bool degraded) {
  manual_degraded_.store(degraded, std::memory_order_relaxed);
  RefreshDegradedState();
}

void QuaestorServer::SetPipelineDown(bool down) {
  if (pipeline_down_.exchange(down, std::memory_order_acq_rel) == down) {
    return;
  }
  if (!down) {
    // Recovery. The matchers missed every change committed during the
    // outage, so their membership state is untrustworthy: rebuild it from
    // the authoritative database by registering every query again, then
    // conservatively invalidate every key with an outstanding TTL: copies
    // cached during the outage may be stale.
    ReregisterQueries();
    FlagAllCachedCopies();
    lag_degraded_.store(false, std::memory_order_relaxed);
    last_notification_lag_.store(0, std::memory_order_relaxed);
  }
  RefreshDegradedState();
}

size_t QuaestorServer::ResizeInvalidb(size_t new_query_partitions,
                                      size_t new_object_partitions) {
  // Enter degraded mode before the cutover: notifications may be delayed
  // by the migration pause, so the TTL cap must already bound staleness
  // for responses issued during it (flags outstanding long-TTL copies).
  resizing_.store(true, std::memory_order_relaxed);
  RefreshDegradedState();
  const size_t reinstalled = invalidb_->Resize(
      new_query_partitions, new_object_partitions,
      [this](const db::Query& q) { return db_->Execute(q); });
  resizing_.store(false, std::memory_order_relaxed);
  RefreshDegradedState();
  return reinstalled;
}

PipelineHealth QuaestorServer::pipeline_health() const {
  PipelineHealth h;
  h.degraded = degraded();
  h.pipeline_down = pipeline_down_.load(std::memory_order_relaxed);
  h.resizing = resizing_.load(std::memory_order_relaxed);
  h.nodes_alive = invalidb_->AliveCount();
  h.nodes_total = invalidb_->NumNodes();
  h.last_notification_lag =
      last_notification_lag_.load(std::memory_order_relaxed);
  return h;
}

ServerStats QuaestorServer::stats() const {
  ServerStats s;
  s.record_reads = record_reads_.load(std::memory_order_relaxed);
  s.query_reads = query_reads_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.not_modified = not_modified_.load(std::memory_order_relaxed);
  s.query_invalidations =
      query_invalidations_.load(std::memory_order_relaxed);
  s.record_invalidations =
      record_invalidations_.load(std::memory_order_relaxed);
  s.uncacheable_queries =
      uncacheable_queries_.load(std::memory_order_relaxed);
  s.bloom_filter_requests =
      bloom_filter_requests_.load(std::memory_order_relaxed);
  s.body_memo_hits = body_memo_hits_.load(std::memory_order_relaxed);
  s.body_memo_misses = body_memo_misses_.load(std::memory_order_relaxed);
  s.degraded_reads = degraded_reads_.load(std::memory_order_relaxed);
  s.degradation_flips = degradation_flips_.load(std::memory_order_relaxed);
  s.change_events_dropped =
      change_events_dropped_.load(std::memory_order_relaxed);
  s.unavailable_responses =
      unavailable_responses_.load(std::memory_order_relaxed);
  s.shed_responses = shed_responses_.load(std::memory_order_relaxed);
  s.deadline_exceeded_responses =
      deadline_exceeded_responses_.load(std::memory_order_relaxed);
  return s;
}

std::shared_ptr<const QuaestorServer::MemoEntry> QuaestorServer::MemoLookup(
    const std::string& key) const {
  MemoShard& shard = body_memo_[Hash64(key) % kMemoShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  return it == shard.entries.end() ? nullptr : it->second;
}

void QuaestorServer::MemoStore(const std::string& key,
                               std::shared_ptr<const MemoEntry> entry) const {
  MemoShard& shard = body_memo_[Hash64(key) % kMemoShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.entries[key] = std::move(entry);
}

void QuaestorServer::MemoErase(const std::string& key) const {
  MemoShard& shard = body_memo_[Hash64(key) % kMemoShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.entries.erase(key);
}

void QuaestorServer::MemoClear() const {
  for (MemoShard& shard : body_memo_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.entries.clear();
  }
}

void QuaestorServer::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  invalidb_->set_tracer(tracer);
}

void QuaestorServer::ExportMetrics(obs::MetricsRegistry* registry) const {
  stats().ExportTo(registry);
  if (options_.admission.enabled) admission_.stats().ExportTo(registry);
  ebf_.AggregateStats().ExportTo(registry);
  invalidb_->stats().ExportTo(registry);
  registry->GetTimer("invalidb_notification_latency_ms")
      ->MergeHistogram(invalidb_->LatencyHistogram());
}

}  // namespace quaestor::core
