#include "client/client.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "ebf/expiring_bloom_filter.h"

namespace quaestor::client {

QuaestorClient::QuaestorClient(Clock* clock, core::QuaestorServer* server,
                               webcache::ExpirationCache* client_cache,
                               webcache::InvalidationCache* cdn,
                               ClientOptions options,
                               webcache::LatencyModel latency)
    : QuaestorClient(std::make_unique<LocalBackend>(server), nullptr, clock,
                     client_cache, cdn, std::move(options), latency) {}

QuaestorClient::QuaestorClient(Clock* clock, Backend* backend,
                               webcache::ExpirationCache* client_cache,
                               webcache::InvalidationCache* cdn,
                               ClientOptions options,
                               webcache::LatencyModel latency)
    : QuaestorClient(nullptr, backend, clock, client_cache, cdn,
                     std::move(options), latency) {}

QuaestorClient::QuaestorClient(std::unique_ptr<Backend> owned,
                               Backend* backend, Clock* clock,
                               webcache::ExpirationCache* client_cache,
                               webcache::InvalidationCache* cdn,
                               ClientOptions options,
                               webcache::LatencyModel latency)
    : clock_(clock),
      owned_backend_(std::move(owned)),
      backend_(owned_backend_ ? owned_backend_.get() : backend),
      client_cache_(client_cache),
      hierarchy_(clock, client_cache, /*proxy=*/nullptr, cdn,
                 backend_->origin(), latency),
      options_(options),
      latency_model_(latency),
      retry_rng_(options.retry.seed),
      retry_tokens_(options.retry.retry_budget) {
  hierarchy_.set_auth_token(options_.auth_token);
  hierarchy_.set_stale_serve(options_.stale_serve);
}

RequestContext QuaestorClient::MakeContext() const {
  if (options_.request_deadline <= 0) return RequestContext();
  return RequestContext::WithTimeout(clock_->NowMicros(),
                                     options_.request_deadline);
}

Status QuaestorClient::FailureStatus(const webcache::FetchOutcome& fo,
                                     const std::string& key) {
  if (fo.deadline_exceeded) return Status::DeadlineExceeded(key);
  if (fo.shed) return Status::ResourceExhausted(key);
  if (fo.unavailable) return Status::Unavailable(key);
  return Status::NotFound(key);
}

webcache::FetchOutcome QuaestorClient::FetchWithRetry(
    const std::string& key, webcache::FetchMode mode, RequestOutcome* out) {
  const RequestContext ctx = MakeContext();
  webcache::FetchOutcome fo = hierarchy_.Fetch(key, mode, ctx);
  if (!options_.retry.enabled) return fo;
  const ClientOptions::RetryOptions& r = options_.retry;
  const bool budgeted = r.retry_budget > 0.0;
  // 503 (origin down) and 429 (origin shedding) are both worth one more
  // try after backoff; a deadline that already expired is not.
  const auto retryable = [](const webcache::FetchOutcome& f) {
    return !f.ok && (f.unavailable || f.shed) && !f.deadline_exceeded;
  };
  Micros backoff = r.initial_backoff;
  for (size_t attempt = 1; retryable(fo) && attempt < r.max_attempts;
       ++attempt) {
    if (budgeted && retry_tokens_ < 1.0) {
      // Bucket empty: the backend is sick fleet-wide, don't pile on.
      stats_.retries_suppressed++;
      break;
    }
    const double spread =
        1.0 + r.jitter * (2.0 * retry_rng_.NextDouble() - 1.0);
    // Clamp in the double domain BEFORE narrowing to Micros: the grown
    // backoff can exceed the int64 range after a few doublings with a
    // large max_backoff, and casting an out-of-range double is UB
    // (in practice INT64_MIN, i.e. a negative wait). At the cap, reuse
    // the exact Micros value — max_backoff == INT64_MAX rounds UP when
    // converted to double, so even the clamped double can be uncastable.
    const double cap = static_cast<double>(r.max_backoff);
    const double grown_wait = static_cast<double>(backoff) * spread;
    const Micros wait =
        grown_wait >= cap ? r.max_backoff : static_cast<Micros>(grown_wait);
    // The failed round-trip and the backoff wait both delay the response.
    out->latency_ms += fo.latency_ms + MicrosToMillis(wait);
    const double grown_backoff = static_cast<double>(backoff) * r.multiplier;
    backoff = grown_backoff >= cap ? r.max_backoff
                                   : static_cast<Micros>(grown_backoff);
    if (budgeted) retry_tokens_ -= 1.0;
    stats_.retries++;
    fo = hierarchy_.Fetch(key, mode, ctx);
  }
  if (fo.ok && budgeted) {
    // Bucket capacity is at least one whole token: a configured budget in
    // (0, 1) would otherwise cap refills below 1.0 forever, permanently
    // suppressing retries even against a healthy backend.
    retry_tokens_ = std::min(std::max(r.retry_budget, 1.0),
                             retry_tokens_ + r.budget_refill_per_success);
  }
  if (!fo.ok && fo.unavailable) stats_.unavailable_failures++;
  if (!fo.ok && fo.shed) stats_.shed_failures++;
  if (!fo.ok && fo.deadline_exceeded) stats_.deadline_exceeded_failures++;
  return fo;
}

void QuaestorClient::Connect() {
  if (!options_.use_ebf) return;
  bloom_ = backend_->BloomSnapshot();
  bloom_time_ = clock_->NowMicros();
  whitelist_.clear();
  read_newer_than_ebf_ = false;
}

void QuaestorClient::RefreshEbf() {
  bloom_ = backend_->BloomSnapshot();
  bloom_time_ = clock_->NowMicros();
  whitelist_.clear();
  read_newer_than_ebf_ = false;
  stats_.ebf_refreshes++;
}

Micros QuaestorClient::EbfAge() const {
  return clock_->NowMicros() - bloom_time_;
}

webcache::FetchMode QuaestorClient::DecideMode(const std::string& key,
                                               RequestOutcome* outcome) {
  obs::ScopedSpan span(tracer_, "client.ebf_decide");
  // The ∆ − ∆_invalidation optimization only applies at the default
  // ∆-atomic level: a CDN copy can lag a purge by the invalidation
  // latency, which ∆-atomicity absorbs into its bound but causal
  // consistency cannot (a dependency committed just before the purge
  // lands could be missed). Causal/strong revalidations are end-to-end.
  const webcache::FetchMode reval =
      options_.revalidate_at_cdn &&
              options_.consistency == ConsistencyLevel::kDeltaAtomic
          ? webcache::FetchMode::kRevalidateAtCdn
          : webcache::FetchMode::kRevalidate;
  if (options_.consistency == ConsistencyLevel::kStrong) {
    // Strong consistency: explicit revalidation, cache miss at all levels
    // (Figure 4) — always end-to-end regardless of the CDN optimization.
    outcome->revalidated = true;
    return webcache::FetchMode::kRevalidate;
  }
  if (!options_.use_ebf) return webcache::FetchMode::kNormal;
  if (options_.use_table_ebfs) {
    return DecideModeTablePartitioned(key, outcome);
  }
  if (!bloom_.has_value()) return webcache::FetchMode::kNormal;
  // ∆ elapsed: promote this request to a revalidation piggybacking a
  // fresh EBF (§3.1 Freshness Policies — non-disruptive refresh).
  if (EbfAge() >= options_.ebf_refresh_interval &&
      !options_.fault_skip_ebf_refresh) {
    RefreshEbf();
    outcome->ebf_refreshed = true;
    outcome->revalidated = true;
    return reval;
  }
  // Causal opt-in: after observing data newer than the EBF, reads must
  // revalidate until the next refresh (§3.2).
  if (options_.consistency == ConsistencyLevel::kCausal &&
      read_newer_than_ebf_) {
    outcome->revalidated = true;
    return reval;
  }
  if (bloom_->MaybeContains(key) && whitelist_.count(key) == 0) {
    outcome->revalidated = true;
    return reval;
  }
  return webcache::FetchMode::kNormal;
}

void QuaestorClient::EraseWhitelistForTable(const std::string& table) {
  for (auto it = whitelist_.begin(); it != whitelist_.end();) {
    if (ebf::PartitionedEbf::TableOfKey(*it) == table) {
      it = whitelist_.erase(it);
    } else {
      ++it;
    }
  }
}

webcache::FetchMode QuaestorClient::DecideModeTablePartitioned(
    const std::string& key, RequestOutcome* outcome) {
  const webcache::FetchMode reval = options_.revalidate_at_cdn
                                        ? webcache::FetchMode::kRevalidateAtCdn
                                        : webcache::FetchMode::kRevalidate;
  const std::string table(ebf::PartitionedEbf::TableOfKey(key));
  const Micros now = clock_->NowMicros();
  auto it = table_ebfs_.find(table);
  if (it == table_ebfs_.end()) {
    // Lazy initial fetch of this table's filter (piggybacked).
    TableEbf entry;
    entry.filter = backend_->BloomSnapshotForTable(table);
    entry.fetched_at = now;
    it = table_ebfs_.emplace(table, std::move(entry)).first;
  } else if (now - it->second.fetched_at >= options_.ebf_refresh_interval) {
    // ∆ elapsed for this table: refresh and promote to a revalidation.
    it->second.filter = backend_->BloomSnapshotForTable(table);
    it->second.fetched_at = now;
    EraseWhitelistForTable(table);
    stats_.ebf_refreshes++;
    outcome->ebf_refreshed = true;
    outcome->revalidated = true;
    return reval;
  }
  if (it->second.filter.MaybeContains(key) && whitelist_.count(key) == 0) {
    outcome->revalidated = true;
    return reval;
  }
  return webcache::FetchMode::kNormal;
}

void QuaestorClient::NoteServedBy(const webcache::FetchOutcome& fo,
                                  RequestOutcome* out) {
  out->served_by = fo.served_by;
  out->latency_ms += fo.latency_ms;
  out->shed = fo.shed;
  out->deadline_exceeded = fo.deadline_exceeded;
  if (fo.ok && fo.served_stale_on_shed) {
    out->served_stale_on_shed = true;
    out->stale_entry_age = fo.stale_entry_age;
    stats_.stale_shed_serves++;
  }
  switch (fo.served_by) {
    case webcache::ServedBy::kClientCache:
      stats_.client_cache_hits++;
      break;
    case webcache::ServedBy::kExpirationCache:
    case webcache::ServedBy::kInvalidationCache:
      stats_.cdn_hits++;
      break;
    case webcache::ServedBy::kOrigin:
      stats_.origin_fetches++;
      break;
  }
  // Causal tracking (§3.2): data committed after the current EBF fetch
  // may be served from ANY level — a CDN copy refreshed by another
  // session is just as young as an origin response. Compare the
  // response's Last-Modified against the EBF fetch time; fall back to
  // treating unstamped origin responses as young (conservative).
  if (fo.last_modified > bloom_time_ ||
      (fo.last_modified == 0 &&
       fo.served_by == webcache::ServedBy::kOrigin)) {
    read_newer_than_ebf_ = true;
  }
}

bool QuaestorClient::IsRegression(const std::string& key,
                                  uint64_t version) const {
  auto it = seen_versions_.find(key);
  return it != seen_versions_.end() && version < it->second;
}

void QuaestorClient::NoteVersion(const std::string& key, uint64_t version) {
  uint64_t& v = seen_versions_[key];
  v = std::max(v, version);
}

ReadResult QuaestorClient::Read(const std::string& table,
                                const std::string& id) {
  const std::string key = table + "/" + id;
  obs::ScopedSpan span(tracer_, "client.read");
  span.Annotate("key", key);
  stats_.reads++;
  ReadResult result;
  webcache::FetchMode mode = DecideMode(key, &result.outcome);
  if (result.outcome.revalidated) stats_.revalidations++;

  webcache::FetchOutcome fo = FetchWithRetry(key, mode, &result.outcome);
  NoteServedBy(fo, &result.outcome);
  if (!fo.ok) {
    result.status = FailureStatus(fo, key);
    return result;
  }

  // Monotonic reads: a different cache may serve an older version than
  // this session has already seen — trigger a revalidation (§3.2).
  if (IsRegression(key, fo.etag)) {
    webcache::FetchOutcome fresh = FetchWithRetry(
        key, webcache::FetchMode::kRevalidate, &result.outcome);
    result.outcome.revalidated = true;
    stats_.revalidations++;
    NoteServedBy(fresh, &result.outcome);
    if (!fresh.ok) {
      result.status = FailureStatus(fresh, key);
      return result;
    }
    fo = std::move(fresh);
  }
  NoteVersion(key, fo.etag);
  // Differential whitelisting (§3.3): any key revalidated since the last
  // EBF renewal — at the origin or at a purge-coherent CDN — is fresh
  // until the next renewal. A stale-shed serve proves nothing about
  // freshness and must not whitelist.
  if (!fo.served_stale_on_shed &&
      (result.outcome.revalidated ||
       fo.served_by == webcache::ServedBy::kOrigin)) {
    whitelist_.insert(key);
  }

  auto doc = db::Value::FromJson(fo.body);
  if (!doc.ok()) {
    result.status = doc.status();
    return result;
  }
  result.doc = std::move(doc).value();
  result.version = fo.etag;
  return result;
}

QueryResult QuaestorClient::ExecuteQuery(const db::Query& query) {
  const std::string key = query.NormalizedKey();
  obs::ScopedSpan span(tracer_, "client.query");
  span.Annotate("key", key);
  // The fetch carries only the normalized key. The server answers a "q:"
  // key from the query it registered under that key, and fails one it
  // has never seen, so the session registers each shape before its first
  // fetch, and only then.
  const bool known_shape = !registered_shapes_.insert(key).second;
  if (!known_shape) backend_->RegisterQueryShape(query);
  stats_.queries++;
  QueryResult result;
  webcache::FetchMode mode = DecideMode(key, &result.outcome);
  if (result.outcome.revalidated) stats_.revalidations++;

  webcache::FetchOutcome fo = FetchWithRetry(key, mode, &result.outcome);
  if (known_shape && !fo.ok && !fo.unavailable && !fo.shed &&
      !fo.deadline_exceeded) {
    // A plain miss is what an origin that lost the shape (a restarted
    // one) answers: register it again and retry once.
    backend_->RegisterQueryShape(query);
    fo = FetchWithRetry(key, mode, &result.outcome);
  }
  NoteServedBy(fo, &result.outcome);
  if (!fo.ok) {
    result.status = FailureStatus(fo, key);
    return result;
  }

  // Monotonic reads for query results (§3.2): a delayed CDN purge can
  // leave a copy older than a result this session has already seen.
  // Etags are not ordered, so regressions are detected via Last-Modified
  // (mirrors the version-regression check in Read()).
  Micros& seen_lm = seen_result_times_[key];
  if (fo.last_modified < seen_lm) {
    webcache::FetchOutcome fresh = FetchWithRetry(
        key, webcache::FetchMode::kRevalidate, &result.outcome);
    result.outcome.revalidated = true;
    stats_.revalidations++;
    NoteServedBy(fresh, &result.outcome);
    if (!fresh.ok) {
      result.status = FailureStatus(fresh, key);
      return result;
    }
    fo = std::move(fresh);
  }
  seen_lm = std::max(seen_lm, fo.last_modified);

  if (!fo.served_stale_on_shed &&
      (result.outcome.revalidated ||
       fo.served_by == webcache::ServedBy::kOrigin)) {
    whitelist_.insert(key);
  }

  auto parsed = core::QueryResponse::FromJson(fo.body);
  if (!parsed.ok()) {
    result.status = parsed.status();
    return result;
  }
  core::QueryResponse& qr = parsed.value();
  result.etag = fo.etag;
  result.ids = qr.ids;
  result.representation = qr.representation;

  if (qr.representation == ttl::ResultRepresentation::kObjectList) {
    // Results are inserted into the cache as individual record entries
    // (§6.2) — bounded by the result's own remaining freshness. A stale-
    // shed result's records inherit its marker: they are exactly as old
    // as the flagged result body, and caching them unflagged would let a
    // later record read serve the stale state as fresh data.
    const Micros record_marker =
        fo.served_stale_on_shed
            ? std::max<Micros>(clock_->NowMicros() - fo.stale_entry_age, 1)
            : 0;
    for (size_t i = 0; i < qr.ids.size(); ++i) {
      const Micros record_ttl =
          std::min(qr.record_ttls[i], fo.remaining_ttl);
      if (client_cache_ != nullptr && record_ttl > 0) {
        client_cache_->Put(qr.ids[i], qr.docs[i].ToJson(), qr.versions[i],
                           record_ttl, /*last_modified=*/0, record_marker,
                           record_marker);
      }
      NoteVersion(qr.ids[i], qr.versions[i]);
    }
    result.docs = std::move(qr.docs);
    return result;
  }

  // Id-list: assemble the result with per-record reads. Browsers issue
  // these in parallel over multiple connections, so the added latency is
  // the slowest single fetch, not the sum. Under HTTP/2 (§7) the server
  // pushes the member records with the id-list frame, so assembly adds no
  // round-trips at all.
  double max_record_latency = 0.0;
  for (const std::string& record_key : qr.ids) {
    const size_t slash = record_key.find('/');
    if (slash == std::string::npos) continue;
    ReadResult rr =
        Read(record_key.substr(0, slash), record_key.substr(slash + 1));
    if (rr.status.ok()) {
      result.docs.push_back(std::move(rr.doc));
      max_record_latency =
          std::max(max_record_latency, rr.outcome.latency_ms);
    }
  }
  if (!options_.http2) result.outcome.latency_ms += max_record_latency;
  return result;
}

void QuaestorClient::CacheOwnWrite(const db::Document& doc) {
  NoteVersion(doc.Key(), doc.version);
  if (client_cache_ == nullptr) return;
  if (doc.deleted) {
    client_cache_->Remove(doc.Key());
    return;
  }
  // Read-your-writes: the session serves its own writes from the local
  // cache (§3.2).
  client_cache_->Put(doc.Key(), doc.body.ToJson(), doc.version,
                     core::kOwnWriteTtl, doc.write_time);
}

Result<db::Document> QuaestorClient::Insert(const std::string& table,
                                            const std::string& id,
                                            db::Value body) {
  obs::ScopedSpan span(tracer_, "client.write");
  stats_.writes++;
  auto res = backend_->Insert(options_.auth_token, table, id, std::move(body),
                              MakeContext());
  if (res.ok()) CacheOwnWrite(res.value());
  return res;
}

Result<db::Document> QuaestorClient::Update(const std::string& table,
                                            const std::string& id,
                                            const db::Update& update) {
  obs::ScopedSpan span(tracer_, "client.write");
  stats_.writes++;
  // Beginning an update drops the record from the session's own cache.
  if (client_cache_ != nullptr) client_cache_->Remove(table + "/" + id);
  auto res =
      backend_->Update(options_.auth_token, table, id, update, MakeContext());
  if (res.ok()) CacheOwnWrite(res.value());
  return res;
}

Result<db::Document> QuaestorClient::Delete(const std::string& table,
                                            const std::string& id) {
  obs::ScopedSpan span(tracer_, "client.write");
  stats_.writes++;
  if (client_cache_ != nullptr) client_cache_->Remove(table + "/" + id);
  auto res = backend_->Delete(options_.auth_token, table, id, MakeContext());
  if (res.ok()) CacheOwnWrite(res.value());
  return res;
}

void ClientStats::ExportTo(obs::MetricsRegistry* registry,
                           const obs::Labels& labels) const {
  registry->Count("client_reads", labels, reads);
  registry->Count("client_queries", labels, queries);
  registry->Count("client_writes", labels, writes);
  registry->Count("client_revalidations", labels, revalidations);
  registry->Count("client_ebf_refreshes", labels, ebf_refreshes);
  registry->Count("client_cache_hits", labels, client_cache_hits);
  registry->Count("client_cdn_hits", labels, cdn_hits);
  registry->Count("client_origin_fetches", labels, origin_fetches);
  registry->Count("client_retries", labels, retries);
  registry->Count("client_unavailable_failures", labels,
                  unavailable_failures);
  registry->Count("client_retries_suppressed", labels, retries_suppressed);
  registry->Count("client_stale_shed_serves", labels, stale_shed_serves);
  registry->Count("client_shed_failures", labels, shed_failures);
  registry->Count("client_deadline_exceeded_failures", labels,
                  deadline_exceeded_failures);
}

}  // namespace quaestor::client
