#include "invalidb/transport.h"

#include <charconv>
#include <chrono>
#include <string_view>

namespace quaestor::invalidb {

void TransportStats::ExportTo(obs::MetricsRegistry* registry,
                              const obs::Labels& labels) const {
  registry->Count("transport_decode_errors", labels, decode_errors);
  registry->Count("transport_duplicates_dropped", labels,
                  duplicates_dropped);
  registry->Count("transport_redeliveries", labels, redeliveries);
  registry->Count("transport_batches_sent", labels, batches_sent);
  registry->Count("transport_batch_events", labels, batch_events);
  const auto with_reason = [&labels](const char* reason) {
    obs::Labels merged = labels;
    merged.emplace_back("reason", reason);
    return merged;
  };
  registry->Count("transport_batch_flushes", with_reason("size"),
                  flushes_size);
  registry->Count("transport_batch_flushes", with_reason("interval"),
                  flushes_interval);
  registry->Count("transport_batch_flushes", with_reason("barrier"),
                  flushes_barrier);
  registry->Count("transport_batch_flushes", with_reason("manual"),
                  flushes_manual);
}

namespace transport {

using db::Value;

namespace {

/// Single-pass canonical document spec. Key order (body, deleted, id,
/// table, version, write_time) is the sorted order a db::Object would
/// serialize in — golden-tested against the tree encoder.
void AppendDocumentSpec(std::string* out, const db::Document& doc) {
  *out += "{\"body\":";
  doc.body.AppendJson(out);
  *out += ",\"deleted\":";
  *out += doc.deleted ? "true" : "false";
  *out += ",\"id\":";
  db::AppendJsonEscaped(out, doc.id);
  *out += ",\"table\":";
  db::AppendJsonEscaped(out, doc.table);
  *out += ",\"version\":";
  *out += std::to_string(static_cast<int64_t>(doc.version));
  *out += ",\"write_time\":";
  *out += std::to_string(static_cast<int64_t>(doc.write_time));
  *out += '}';
}

}  // namespace

/// Change-event spec without the "op" discriminator — the inner element
/// of a change_batch envelope. Keys: after, commit_time, kind.
void AppendChangeEventSpec(std::string* out, const db::ChangeEvent& event) {
  *out += "{\"after\":";
  AppendDocumentSpec(out, event.after);
  *out += ",\"commit_time\":";
  *out += std::to_string(static_cast<int64_t>(event.commit_time));
  *out += ",\"kind\":";
  *out += std::to_string(static_cast<int64_t>(event.kind));
  *out += '}';
}

/// Notification spec without "op". Keys: event_time, new_index,
/// query_key, record_id, type.
void AppendNotificationSpec(std::string* out, const Notification& n) {
  *out += "{\"event_time\":";
  *out += std::to_string(static_cast<int64_t>(n.event_time));
  *out += ",\"new_index\":";
  *out += std::to_string(static_cast<int64_t>(n.new_index));
  *out += ",\"query_key\":";
  db::AppendJsonEscaped(out, n.query_key);
  *out += ",\"record_id\":";
  db::AppendJsonEscaped(out, n.record_id);
  *out += ",\"type\":";
  *out += std::to_string(static_cast<int64_t>(n.type));
  *out += '}';
}

namespace {

/// Scanner for the canonical batch wire form: the encoders above emit a
/// fixed key order with no whitespace, so the common case decodes in one
/// pass without building a Value tree for the batch skeleton. Any byte
/// that deviates from the canonical layout makes the caller fall back to
/// the generic Value-based decoder, which handles non-canonical producers
/// and yields the proper error for corrupt input.
class CanonicalScanner {
 public:
  explicit CanonicalScanner(std::string_view text) : text_(text) {}

  bool Lit(std::string_view lit) {
    if (text_.size() - pos_ < lit.size() ||
        text_.compare(pos_, lit.size(), lit) != 0) {
      return false;
    }
    pos_ += lit.size();
    return true;
  }

  bool Int(int64_t* out) {
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    auto [ptr, ec] = std::from_chars(begin, end, *out);
    if (ec != std::errc() || ptr == begin) return false;
    pos_ += static_cast<size_t>(ptr - begin);
    return true;
  }

  bool Bool(bool* out) {
    if (Lit("true")) {
      *out = true;
      return true;
    }
    if (Lit("false")) {
      *out = false;
      return true;
    }
    return false;
  }

  /// JSON string literal. Escape-free strings (the common case for ids,
  /// tables, and query keys) copy straight out of the wire buffer; a
  /// backslash delegates to the generic parser for correct unescaping.
  bool Str(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    const size_t stop = text_.find_first_of("\"\\", pos_ + 1);
    if (stop == std::string_view::npos) return false;
    if (text_[stop] == '"') {
      out->assign(text_, pos_ + 1, stop - pos_ - 1);
      pos_ = stop + 1;
      return true;
    }
    return Val() && scratch_.is_string() &&
           (*out = std::move(scratch_).as_string(), true);
  }

  /// Embedded arbitrary value (document bodies) via the generic parser.
  bool Val(Value* out = nullptr) {
    size_t consumed = 0;
    auto v = Value::FromJsonPrefix(text_.substr(pos_), &consumed);
    if (!v.ok()) return false;
    (out != nullptr ? *out : scratch_) = std::move(v).value();
    pos_ += consumed;
    return true;
  }

  bool AtEnd() const { return pos_ == text_.size(); }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  Value scratch_;
};

bool TryDecodeCanonicalChangeBatch(std::string_view text,
                                   std::vector<db::ChangeEvent>* out) {
  CanonicalScanner sc(text);
  if (!sc.Lit("{\"events\":[")) return false;
  out->clear();
  if (!sc.Lit("]")) {
    for (;;) {
      db::ChangeEvent ev;
      int64_t version = 0;
      int64_t kind = 0;
      if (!sc.Lit("{\"after\":{\"body\":") || !sc.Val(&ev.after.body) ||
          !sc.Lit(",\"deleted\":") || !sc.Bool(&ev.after.deleted) ||
          !sc.Lit(",\"id\":") || !sc.Str(&ev.after.id) ||
          !sc.Lit(",\"table\":") || !sc.Str(&ev.after.table) ||
          !sc.Lit(",\"version\":") || !sc.Int(&version) ||
          !sc.Lit(",\"write_time\":") || !sc.Int(&ev.after.write_time) ||
          !sc.Lit("},\"commit_time\":") || !sc.Int(&ev.commit_time) ||
          !sc.Lit(",\"kind\":") || !sc.Int(&kind) || !sc.Lit("}")) {
        return false;
      }
      ev.after.version = static_cast<uint64_t>(version);
      ev.kind = static_cast<db::WriteKind>(kind);
      out->push_back(std::move(ev));
      if (sc.Lit(",")) continue;
      if (sc.Lit("]")) break;
      return false;
    }
  }
  return sc.Lit(",\"op\":\"change_batch\"}") && sc.AtEnd();
}

bool TryDecodeCanonicalNotificationBatch(std::string_view text,
                                         std::vector<Notification>* out) {
  CanonicalScanner sc(text);
  if (!sc.Lit("{\"notifications\":[")) return false;
  out->clear();
  if (!sc.Lit("]")) {
    for (;;) {
      Notification n;
      int64_t type = 0;
      if (!sc.Lit("{\"event_time\":") || !sc.Int(&n.event_time) ||
          !sc.Lit(",\"new_index\":") || !sc.Int(&n.new_index) ||
          !sc.Lit(",\"query_key\":") || !sc.Str(&n.query_key) ||
          !sc.Lit(",\"record_id\":") || !sc.Str(&n.record_id) ||
          !sc.Lit(",\"type\":") || !sc.Int(&type) || !sc.Lit("}")) {
        return false;
      }
      n.type = static_cast<NotificationType>(type);
      out->push_back(std::move(n));
      if (sc.Lit(",")) continue;
      if (sc.Lit("]")) break;
      return false;
    }
  }
  return sc.Lit(",\"op\":\"notify_batch\"}") && sc.AtEnd();
}

Result<db::Document> DocumentFromSpec(const Value& spec) {
  const Value* table = spec.Find("table");
  const Value* id = spec.Find("id");
  const Value* body = spec.Find("body");
  if (table == nullptr || !table->is_string() || id == nullptr ||
      !id->is_string() || body == nullptr) {
    return Status::Corruption("malformed document spec");
  }
  db::Document doc;
  doc.table = table->as_string();
  doc.id = id->as_string();
  doc.body = *body;
  if (const Value* v = spec.Find("version"); v != nullptr && v->is_int()) {
    doc.version = static_cast<uint64_t>(v->as_int());
  }
  if (const Value* v = spec.Find("write_time"); v != nullptr && v->is_int()) {
    doc.write_time = v->as_int();
  }
  if (const Value* v = spec.Find("deleted"); v != nullptr && v->is_bool()) {
    doc.deleted = v->as_bool();
  }
  return doc;
}

}  // namespace

Result<db::Document> DecodeDocument(const Value& spec) {
  return DocumentFromSpec(spec);
}

Result<db::ChangeEvent> DecodeChangeEvent(const Value& spec) {
  const Value* after = spec.Find("after");
  const Value* kind = spec.Find("kind");
  const Value* commit = spec.Find("commit_time");
  if (after == nullptr || kind == nullptr || !kind->is_int()) {
    return Status::Corruption("malformed change event");
  }
  auto doc = DocumentFromSpec(*after);
  if (!doc.ok()) return doc.status();
  db::ChangeEvent ev;
  ev.kind = static_cast<db::WriteKind>(kind->as_int());
  ev.after = std::move(doc).value();
  ev.commit_time = commit != nullptr && commit->is_int()
                       ? commit->as_int()
                       : ev.after.write_time;
  return ev;
}

std::string EncodeChangeBatch(const std::vector<db::ChangeEvent>& events) {
  std::string out;
  out.reserve(32 + 160 * events.size());
  out += "{\"events\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ',';
    AppendChangeEventSpec(&out, events[i]);
  }
  out += "],\"op\":\"change_batch\"}";
  return out;
}

Result<std::vector<db::ChangeEvent>> DecodeChangeBatch(const Value& msg) {
  const Value* events = msg.Find("events");
  if (events == nullptr || !events->is_array()) {
    return Status::Corruption("malformed change batch");
  }
  std::vector<db::ChangeEvent> out;
  out.reserve(events->as_array().size());
  for (const Value& spec : events->as_array()) {
    auto ev = DecodeChangeEvent(spec);
    if (!ev.ok()) return ev.status();
    out.push_back(std::move(ev).value());
  }
  return out;
}

Result<std::vector<db::ChangeEvent>> DecodeChangeBatch(
    const std::string& message) {
  std::vector<db::ChangeEvent> fast;
  if (TryDecodeCanonicalChangeBatch(message, &fast)) return fast;
  auto parsed = Value::FromJson(message);
  if (!parsed.ok()) return parsed.status();
  const Value* op =
      parsed->is_object() ? parsed->Find("op") : nullptr;
  if (op == nullptr || !op->is_string() ||
      op->as_string() != "change_batch") {
    return Status::Corruption("malformed change batch");
  }
  return DecodeChangeBatch(parsed.value());
}

std::string EncodeRegister(const db::Query& query,
                           const std::vector<db::Document>& initial_result,
                           EventMask events, Micros evaluated_at) {
  std::string out;
  out.reserve(128 + 160 * initial_result.size());
  out += "{\"evaluated_at\":";
  out += std::to_string(static_cast<int64_t>(evaluated_at));
  out += ",\"events\":";
  out += std::to_string(static_cast<int64_t>(events));
  out += ",\"initial\":[";
  for (size_t i = 0; i < initial_result.size(); ++i) {
    if (i > 0) out += ',';
    AppendDocumentSpec(&out, initial_result[i]);
  }
  out += "],\"op\":\"register\",\"query\":";
  query.ToSpec().AppendJson(&out);
  out += '}';
  return out;
}

std::string EncodeDeregister(const std::string& query_key) {
  std::string out;
  out.reserve(32 + query_key.size());
  out += "{\"key\":";
  db::AppendJsonEscaped(&out, query_key);
  out += ",\"op\":\"deregister\"}";
  return out;
}

std::string EncodeResize(size_t query_partitions, size_t object_partitions) {
  std::string out;
  out.reserve(80);
  out += "{\"object_partitions\":";
  out += std::to_string(static_cast<int64_t>(object_partitions));
  out += ",\"op\":\"resize\",\"query_partitions\":";
  out += std::to_string(static_cast<int64_t>(query_partitions));
  out += '}';
  return out;
}

std::string EncodeNotificationBatch(const std::vector<Notification>& batch) {
  std::string out;
  out.reserve(40 + 96 * batch.size());
  out += "{\"notifications\":[";
  for (size_t i = 0; i < batch.size(); ++i) {
    if (i > 0) out += ',';
    AppendNotificationSpec(&out, batch[i]);
  }
  out += "],\"op\":\"notify_batch\"}";
  return out;
}

Result<Notification> DecodeNotification(const Value& msg) {
  const Value* type = msg.Find("type");
  const Value* key = msg.Find("query_key");
  const Value* record = msg.Find("record_id");
  if (type == nullptr || !type->is_int() || key == nullptr ||
      !key->is_string() || record == nullptr || !record->is_string()) {
    return Status::Corruption("malformed notification");
  }
  Notification n;
  n.type = static_cast<NotificationType>(type->as_int());
  n.query_key = key->as_string();
  n.record_id = record->as_string();
  if (const Value* v = msg.Find("event_time"); v != nullptr && v->is_int()) {
    n.event_time = v->as_int();
  }
  if (const Value* v = msg.Find("new_index"); v != nullptr && v->is_int()) {
    n.new_index = v->as_int();
  }
  return n;
}

Result<std::vector<Notification>> DecodeNotificationBatch(const Value& msg) {
  const Value* notifs = msg.Find("notifications");
  if (notifs == nullptr || !notifs->is_array()) {
    return Status::Corruption("malformed notification batch");
  }
  std::vector<Notification> out;
  out.reserve(notifs->as_array().size());
  for (const Value& spec : notifs->as_array()) {
    auto n = DecodeNotification(spec);
    if (!n.ok()) return n.status();
    out.push_back(std::move(n).value());
  }
  return out;
}

Result<std::vector<Notification>> DecodeNotificationBatch(
    const std::string& message) {
  std::vector<Notification> fast;
  if (TryDecodeCanonicalNotificationBatch(message, &fast)) return fast;
  auto parsed = Value::FromJson(message);
  if (!parsed.ok()) return parsed.status();
  const Value* op =
      parsed->is_object() ? parsed->Find("op") : nullptr;
  if (op == nullptr || !op->is_string() ||
      op->as_string() != "notify_batch") {
    return Status::Corruption("malformed notification batch");
  }
  return DecodeNotificationBatch(parsed.value());
}

}  // namespace transport

// ---------------------------------------------------------------------------
// StagedEnvelope
// ---------------------------------------------------------------------------

size_t StagedEnvelope::Ship(std::atomic<uint64_t>* reason, size_t min_count,
                            Micros min_age) {
  std::string payload;
  size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ == 0 || count_ < min_count ||
        (min_age > 0 && clock_->NowMicros() - oldest_ < min_age)) {
      return 0;
    }
    payload = std::move(json_);
    count = count_;
    json_.clear();
    count_ = 0;
  }
  (*reason)++;
  payload += suffix_;
  sender_->Send(std::move(payload));
  batches_sent_++;
  batch_events_ += count;
  return count;
}

size_t StagedEnvelope::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

// ---------------------------------------------------------------------------
// TransportEndpoint
// ---------------------------------------------------------------------------

TransportEndpoint::TransportEndpoint(Clock* clock, TransportMedium medium,
                                     TransportOptions options,
                                     std::string outgoing,
                                     std::string incoming,
                                     std::string sender_id,
                                     ReliableOptions reliable,
                                     std::string envelope_open,
                                     std::string envelope_close)
    : kv_(medium.kv),
      options_(options),
      incoming_(std::move(incoming)),
      sender_(clock, medium.send, std::move(outgoing), std::move(sender_id),
              reliable),
      receiver_(medium.send, incoming_),
      staged_(clock, &sender_, std::move(envelope_open),
              std::move(envelope_close)) {}

size_t TransportEndpoint::Receive(const std::string& queue,
                                  const std::string& message) {
  if (queue == sender_.ack_queue()) {
    sender_.OnAck(message);
    return 0;
  }
  if (queue != incoming_) return 0;
  size_t handled = 0;
  receiver_.Accept(message, [this, &handled](const std::string& p) {
    handled += Handle(p);
  });
  return handled;
}

void TransportEndpoint::TickSender() {
  if (kv_ != nullptr && options_.reliable.enabled) {
    DrainKvQueue(kv_, sender_.ack_queue(), [this](const std::string& m) {
      sender_.OnAck(m);
    });
  }
  sender_.Tick();
}

size_t TransportEndpoint::DrainIncoming() {
  size_t handled = 0;
  DrainKvQueue(kv_, incoming_, [this, &handled](const std::string& m) {
    handled += Receive(incoming_, m);
  });
  return handled;
}

TransportStats TransportEndpoint::stats() const {
  TransportStats s;
  s.decode_errors = decode_errors_.load();
  s.duplicates_dropped = receiver_.duplicates_dropped();
  s.redeliveries = sender_.redeliveries();
  s.batches_sent = staged_.batches_sent();
  s.batch_events = staged_.batch_events();
  s.flushes_size = flushes_size_.load();
  s.flushes_interval = flushes_interval_.load();
  s.flushes_barrier = flushes_barrier_.load();
  s.flushes_manual = flushes_manual_.load();
  return s;
}

// ---------------------------------------------------------------------------
// InvalidbRemote
// ---------------------------------------------------------------------------

InvalidbRemote::InvalidbRemote(Clock* clock, TransportMedium medium,
                               std::string prefix, NotificationBatchSink sink,
                               TransportOptions options)
    : TransportEndpoint(clock, std::move(medium), options,
                        prefix + ":requests", prefix + ":notifications",
                        "quaestor", options.reliable, "{\"events\":[",
                        "],\"op\":\"change_batch\"}"),
      sink_(std::move(sink)) {}

InvalidbRemote::~InvalidbRemote() { FlushChanges(); }

void InvalidbRemote::FlushChanges() { staged_.Ship(&flushes_manual_, 1); }

void InvalidbRemote::RegisterQuery(
    const db::Query& query, const std::vector<db::Document>& initial_result,
    EventMask events, Micros evaluated_at) {
  // Barrier: a change buffered before this call must be matched before the
  // registration installs (otherwise the worker would replay it against
  // the fresh query as a spurious post-activation event).
  staged_.Ship(&flushes_barrier_, 1);
  sender_.Send(transport::EncodeRegister(query, initial_result, events,
                                         evaluated_at));
}

void InvalidbRemote::DeregisterQuery(const std::string& query_key) {
  staged_.Ship(&flushes_barrier_, 1);
  sender_.Send(transport::EncodeDeregister(query_key));
}

void InvalidbRemote::OnChange(const db::ChangeEvent& event) {
  staged_.Append(std::span(&event, 1), transport::AppendChangeEventSpec);
  staged_.Ship(&flushes_size_, options_.batching.max_batch);
}

void InvalidbRemote::Resize(size_t query_partitions,
                            size_t object_partitions) {
  staged_.Ship(&flushes_barrier_, 1);
  sender_.Send(transport::EncodeResize(query_partitions, object_partitions));
}

size_t InvalidbRemote::Handle(const std::string& payload) {
  // Canonical notify_batch envelopes decode in one scanning pass; anything
  // else goes through the generic, op-checked decoder, which rejects every
  // payload that is not a notify_batch.
  auto batch = transport::DecodeNotificationBatch(payload);
  if (!batch.ok()) {
    decode_errors_++;
    return 0;
  }
  if (!batch->empty()) sink_(batch.value());
  return batch->size();
}

void InvalidbRemote::Tick() {
  staged_.Ship(&flushes_interval_, 1, options_.batching.flush_interval);
  TickSender();
}

size_t InvalidbRemote::DrainNotifications() {
  Tick();
  return DrainIncoming();
}

// ---------------------------------------------------------------------------
// InvalidbWorker
// ---------------------------------------------------------------------------

namespace {

/// Decorrelates the worker's jitter stream from the remote's without a
/// second configuration knob.
ReliableOptions WorkerReliable(ReliableOptions base) {
  base.seed = base.seed * 0x9e3779b97f4a7c15ull + 1;
  return base;
}

}  // namespace

InvalidbWorker::InvalidbWorker(Clock* clock, TransportMedium medium,
                               std::string prefix, InvalidbOptions options,
                               TransportOptions transport_options)
    : TransportEndpoint(clock, std::move(medium), transport_options,
                        prefix + ":notifications", prefix + ":requests",
                        "invalidb", WorkerReliable(transport_options.reliable),
                        "{\"notifications\":[",
                        "],\"op\":\"notify_batch\"}") {
  // Each dispatch's notifications join the staged notify_batch envelope,
  // which ships at max_batch or at the end of the pump cycle. The cluster
  // calls in from its worker threads in threaded mode.
  cluster_ = std::make_unique<InvalidbCluster>(
      clock, options, [this](const std::vector<Notification>& batch) {
        staged_.Append(batch, transport::AppendNotificationSpec);
        staged_.Ship(&flushes_size_, options_.batching.max_batch);
      });
}

InvalidbWorker::~InvalidbWorker() {
  cluster_->Flush();
  FlushNotifications();
}

size_t InvalidbWorker::FlushNotifications() {
  return staged_.Ship(&flushes_manual_, 1);
}

void InvalidbWorker::HandleMessage(const std::string& message) {
  // Batch fast path: only change_batch envelopes start with this prefix,
  // and the canonical form decodes in one pass with no Value tree for the
  // batch skeleton.
  if (message.compare(0, 11, "{\"events\":[") == 0) {
    auto events = transport::DecodeChangeBatch(message);
    if (!events.ok()) {
      decode_errors_++;
      return;
    }
    cluster_->OnChangeBatch(std::move(events).value());
    return;
  }
  auto parsed = db::Value::FromJson(message);
  if (!parsed.ok() || !parsed->is_object()) {
    decode_errors_++;
    return;
  }
  const db::Value& msg = parsed.value();
  const db::Value* op = msg.Find("op");
  if (op == nullptr || !op->is_string()) {
    decode_errors_++;
    return;
  }
  if (op->as_string() == "register") {
    const db::Value* query_spec = msg.Find("query");
    const db::Value* events = msg.Find("events");
    const db::Value* initial = msg.Find("initial");
    const db::Value* evaluated_at = msg.Find("evaluated_at");
    if (query_spec == nullptr || events == nullptr || !events->is_int() ||
        initial == nullptr || !initial->is_array()) {
      decode_errors_++;
      return;
    }
    auto query = db::Query::FromSpec(*query_spec);
    if (!query.ok()) {
      decode_errors_++;
      return;
    }
    std::vector<db::Document> docs;
    for (const db::Value& d : initial->as_array()) {
      auto doc = transport::DecodeDocument(d);
      if (!doc.ok()) {
        decode_errors_++;
        return;
      }
      docs.push_back(std::move(doc).value());
    }
    (void)cluster_->RegisterQuery(
        query.value(), docs, static_cast<EventMask>(events->as_int()),
        evaluated_at != nullptr && evaluated_at->is_int()
            ? evaluated_at->as_int()
            : -1);
  } else if (op->as_string() == "deregister") {
    const db::Value* key = msg.Find("key");
    if (key == nullptr || !key->is_string()) {
      decode_errors_++;
      return;
    }
    cluster_->DeregisterQuery(key->as_string());
  } else if (op->as_string() == "change_batch") {
    auto events = transport::DecodeChangeBatch(msg);
    if (!events.ok()) {
      decode_errors_++;
      return;
    }
    cluster_->OnChangeBatch(std::move(events).value());
  } else if (op->as_string() == "resize") {
    const db::Value* qp = msg.Find("query_partitions");
    const db::Value* op_parts = msg.Find("object_partitions");
    if (qp == nullptr || !qp->is_int() || qp->as_int() <= 0 ||
        op_parts == nullptr || !op_parts->is_int() ||
        op_parts->as_int() <= 0) {
      decode_errors_++;
      return;
    }
    // State handoff (no evaluator): the worker has no database to
    // re-evaluate against; the cluster hands matching sets between grids.
    (void)cluster_->Resize(static_cast<size_t>(qp->as_int()),
                           static_cast<size_t>(op_parts->as_int()));
  } else {
    decode_errors_++;
  }
}

size_t InvalidbWorker::ProcessPending() {
  Tick();
  const size_t handled = DrainIncoming();
  cluster_->Flush();
  FlushNotifications();
  return handled;
}

}  // namespace quaestor::invalidb
