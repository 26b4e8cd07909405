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

/// One batch envelope: the framing's open bytes, the items' specs
/// comma-separated, the close bytes.
template <typename Item, typename AppendSpec>
std::string EncodeBatch(BatchFraming framing, const std::vector<Item>& items,
                        size_t bytes_per_item, AppendSpec append_spec) {
  std::string out;
  out.reserve(framing.open.size() + framing.close.size() +
              bytes_per_item * items.size());
  out += framing.open;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    append_spec(&out, items[i]);
  }
  out += framing.close;
  return out;
}

}  // namespace

/// Change-event spec without the "op" discriminator — the inner element
/// of a change_batch envelope. Keys: after, commit_time, kind.
void AppendChangeEventSpec(std::string* out, const db::ChangeEvent& event) {
  *out += "{\"after\":";
  db::AppendDocumentJson(out, event.after);
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

/// Reads the canonical batch wire form: the encoders above emit a fixed
/// key order with no whitespace, so a batch decodes in one pass without a
/// Value tree for its skeleton. Each method reads one token and returns
/// false when the next bytes are not it. Document bodies and escaped
/// strings go through the JSON parser, which reads any spelling of a
/// value.
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
  /// backslash hands the literal to the JSON parser for unescaping.
  bool Str(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    const size_t stop = text_.find_first_of("\"\\", pos_ + 1);
    if (stop == std::string_view::npos) return false;
    if (text_[stop] == '"') {
      out->assign(text_, pos_ + 1, stop - pos_ - 1);
      pos_ = stop + 1;
      return true;
    }
    Value v;
    if (!Val(&v) || !v.is_string()) return false;
    *out = std::move(v).as_string();
    return true;
  }

  /// Embedded arbitrary value (document bodies) via the JSON parser.
  bool Val(Value* out) {
    size_t consumed = 0;
    auto v = Value::FromJsonPrefix(text_.substr(pos_), &consumed);
    if (!v.ok()) return false;
    *out = std::move(v).value();
    pos_ += consumed;
    return true;
  }

  bool AtEnd() const { return pos_ == text_.size(); }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

/// The one batch decoder: `framing`'s open bytes, the items (each read by
/// `scan_item`) comma-separated, the close bytes, and nothing after them.
template <typename Item, typename ScanItem>
Result<std::vector<Item>> DecodeBatch(std::string_view text,
                                      BatchFraming framing,
                                      ScanItem scan_item) {
  CanonicalScanner sc(text);
  if (!sc.Lit(framing.open)) {
    return Status::Corruption("not a batch envelope");
  }
  std::vector<Item> out;
  if (!sc.Lit(framing.close)) {
    do {
      Item item;
      if (!scan_item(&sc, &item)) {
        return Status::Corruption("malformed batch element");
      }
      out.push_back(std::move(item));
    } while (sc.Lit(","));
    if (!sc.Lit(framing.close)) {
      return Status::Corruption("malformed batch envelope");
    }
  }
  if (!sc.AtEnd()) return Status::Corruption("bytes after batch envelope");
  return out;
}

bool ScanChangeEvent(CanonicalScanner* sc, db::ChangeEvent* ev) {
  int64_t version = 0;
  int64_t kind = 0;
  if (!sc->Lit("{\"after\":{\"body\":") || !sc->Val(&ev->after.body) ||
      !sc->Lit(",\"deleted\":") || !sc->Bool(&ev->after.deleted) ||
      !sc->Lit(",\"id\":") || !sc->Str(&ev->after.id) ||
      !sc->Lit(",\"table\":") || !sc->Str(&ev->after.table) ||
      !sc->Lit(",\"version\":") || !sc->Int(&version) ||
      !sc->Lit(",\"write_time\":") || !sc->Int(&ev->after.write_time) ||
      !sc->Lit("},\"commit_time\":") || !sc->Int(&ev->commit_time) ||
      !sc->Lit(",\"kind\":") || !sc->Int(&kind) || !sc->Lit("}")) {
    return false;
  }
  ev->after.version = static_cast<uint64_t>(version);
  ev->kind = static_cast<db::WriteKind>(kind);
  return true;
}

bool ScanNotification(CanonicalScanner* sc, Notification* n) {
  int64_t type = 0;
  if (!sc->Lit("{\"event_time\":") || !sc->Int(&n->event_time) ||
      !sc->Lit(",\"new_index\":") || !sc->Int(&n->new_index) ||
      !sc->Lit(",\"query_key\":") || !sc->Str(&n->query_key) ||
      !sc->Lit(",\"record_id\":") || !sc->Str(&n->record_id) ||
      !sc->Lit(",\"type\":") || !sc->Int(&type) || !sc->Lit("}")) {
    return false;
  }
  n->type = static_cast<NotificationType>(type);
  return true;
}

}  // namespace

Result<db::Document> DecodeDocument(const Value& spec) {
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

std::string EncodeChangeBatch(const std::vector<db::ChangeEvent>& events) {
  return EncodeBatch(kChangeBatch, events, 160, AppendChangeEventSpec);
}

Result<std::vector<db::ChangeEvent>> DecodeChangeBatch(
    const std::string& message) {
  return DecodeBatch<db::ChangeEvent>(message, kChangeBatch, ScanChangeEvent);
}

std::string EncodeRegister(const db::Query& query,
                           const std::vector<db::Document>& initial_result,
                           Micros evaluated_at) {
  std::string out;
  out.reserve(128 + 160 * initial_result.size());
  out += "{\"evaluated_at\":";
  out += std::to_string(static_cast<int64_t>(evaluated_at));
  out += ",\"initial\":[";
  for (size_t i = 0; i < initial_result.size(); ++i) {
    if (i > 0) out += ',';
    db::AppendDocumentJson(&out, initial_result[i]);
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
  return EncodeBatch(kNotifyBatch, batch, 96, AppendNotificationSpec);
}

Result<std::vector<Notification>> DecodeNotificationBatch(
    const std::string& message) {
  return DecodeBatch<Notification>(message, kNotifyBatch, ScanNotification);
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
  payload += framing_.close;
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

TransportEndpoint::TransportEndpoint(Clock* clock, QueueSend send,
                                     TransportOptions options,
                                     std::string outgoing,
                                     std::string incoming,
                                     std::string sender_id,
                                     ReliableOptions reliable,
                                     transport::BatchFraming outgoing_framing)
    : options_(options),
      incoming_(std::move(incoming)),
      sender_(clock, send, std::move(outgoing), std::move(sender_id),
              reliable),
      receiver_(clock, std::move(send), incoming_),
      staged_(clock, &sender_, outgoing_framing) {}

size_t TransportEndpoint::Receive(const std::string& queue,
                                  const std::string& message) {
  if (queue == sender_.ack_queue()) {
    sender_.OnAck(message);
    return 0;
  }
  if (queue != incoming_) return 0;
  size_t handled = 0;
  const auto accepted =
      receiver_.Accept(message, [this, &handled](const std::string& p) {
        handled += Handle(p);
      });
  if (!accepted.ok()) decode_errors_++;
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

InvalidbRemote::InvalidbRemote(Clock* clock, QueueSend send,
                               std::string prefix, NotificationBatchSink sink,
                               TransportOptions options)
    : TransportEndpoint(clock, std::move(send), options,
                        prefix + ":requests", prefix + ":notifications",
                        "quaestor", options.reliable,
                        transport::kChangeBatch),
      sink_(std::move(sink)) {}

InvalidbRemote::~InvalidbRemote() { FlushChanges(); }

void InvalidbRemote::FlushChanges() { staged_.Ship(&flushes_manual_, 1); }

Status InvalidbRemote::RegisterQuery(
    const db::Query& query, const std::vector<db::Document>& initial_result,
    Micros evaluated_at) {
  // Barrier: a change buffered before this call must be matched before the
  // registration installs (otherwise the worker would replay it against
  // the fresh query as a spurious post-activation event).
  staged_.Ship(&flushes_barrier_, 1);
  sender_.Send(transport::EncodeRegister(query, initial_result, evaluated_at));
  return Status::OK();
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
  sender_.Tick();
  receiver_.SendAcks();
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

InvalidbWorker::InvalidbWorker(Clock* clock, QueueSend send,
                               std::string prefix, InvalidbOptions options,
                               TransportOptions transport_options)
    : TransportEndpoint(clock, std::move(send), transport_options,
                        prefix + ":notifications", prefix + ":requests",
                        "invalidb", WorkerReliable(transport_options.reliable),
                        transport::kNotifyBatch) {
  // Each dispatch's notifications join the staged notify_batch envelope,
  // which ships at max_batch or at the end of the pump cycle (Tick). The
  // cluster calls in from its worker threads in threaded mode.
  cluster_ = std::make_unique<InvalidbCluster>(
      clock, options, [this](const std::vector<Notification>& batch) {
        staged_.Append(batch, transport::AppendNotificationSpec);
        staged_.Ship(&flushes_size_, options_.batching.max_batch);
      });
}

InvalidbWorker::~InvalidbWorker() {
  cluster_->Flush();
  staged_.Ship(&flushes_manual_, 1);
}

void InvalidbWorker::HandleMessage(const std::string& message) {
  // Only change_batch envelopes open with these bytes, and they decode in
  // one pass with no Value tree for the batch skeleton.
  if (message.starts_with(transport::kChangeBatch.open)) {
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
    const db::Value* initial = msg.Find("initial");
    const db::Value* evaluated_at = msg.Find("evaluated_at");
    if (query_spec == nullptr || initial == nullptr || !initial->is_array()) {
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
        query.value(), docs,
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

void InvalidbWorker::Tick() {
  sender_.Tick();
  cluster_->Flush();
  staged_.Ship(&flushes_manual_, 1);
  receiver_.SendAcks();
}

// ---------------------------------------------------------------------------
// LoopbackLink
// ---------------------------------------------------------------------------

void LoopbackLink::Send(const std::string& queue, std::string message) {
  std::lock_guard<std::mutex> lock(mu_);
  fifo_.emplace_back(queue, std::move(message));
}

size_t LoopbackLink::Pump() {
  const size_t handled =
      Drain([this](const std::string& queue, const std::string& message) {
        return peer_->Receive(queue, message);
      });
  peer_->Tick();
  return handled;
}

size_t LoopbackLink::Drain(const Receiver& receive) {
  size_t handled = 0;
  for (;;) {
    std::pair<std::string, std::string> next;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (fifo_.empty()) return handled;
      next = std::move(fifo_.front());
      fifo_.pop_front();
    }
    handled += receive(next.first, next.second);
  }
}

size_t LoopbackLink::pending(std::string_view queue) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue.empty()) return fifo_.size();
  size_t n = 0;
  for (const auto& [q, message] : fifo_) n += q == queue ? 1 : 0;
  return n;
}

}  // namespace quaestor::invalidb
