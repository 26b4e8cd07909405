#include "invalidb/reliable_queue.h"

#include <algorithm>
#include <vector>

#include "common/hash.h"
#include "db/value.h"

namespace quaestor::invalidb {

namespace reliable {

namespace {

uint64_t Checksum(const std::string& sender, uint64_t seq,
                  const std::string& payload) {
  std::string buf = sender;
  buf.push_back('\x1f');
  buf += std::to_string(seq);
  buf.push_back('\x1f');
  buf += payload;
  return Hash64(buf, /*seed=*/0xfa17);
}

}  // namespace

std::string Encode(const std::string& sender, uint64_t seq,
                   const std::string& payload) {
  // Single-pass serialization, keys in sorted order: byte-identical to
  // building a db::Object and serializing it, without the object build
  // and payload copy per envelope.
  std::string out;
  out.reserve(payload.size() + sender.size() + 64);
  out += "{\"rc\":";
  out += std::to_string(
      static_cast<int64_t>(Checksum(sender, seq, payload)));
  out += ",\"rn\":";
  out += std::to_string(static_cast<int64_t>(seq));
  out += ",\"rp\":";
  db::AppendJsonEscaped(&out, payload);
  out += ",\"rs\":";
  db::AppendJsonEscaped(&out, sender);
  out += '}';
  return out;
}

Result<Envelope> Decode(const std::string& message) {
  auto parsed = db::Value::FromJson(message);
  if (!parsed.ok() || !parsed->is_object()) {
    return Status::Corruption("not an envelope");
  }
  const db::Value& msg = parsed.value();
  const db::Value* sender = msg.Find("rs");
  const db::Value* seq = msg.Find("rn");
  const db::Value* checksum = msg.Find("rc");
  const db::Value* payload = msg.Find("rp");
  if (sender == nullptr || !sender->is_string() || seq == nullptr ||
      !seq->is_int() || checksum == nullptr || !checksum->is_int() ||
      payload == nullptr || !payload->is_string() || seq->as_int() <= 0) {
    return Status::Corruption("malformed envelope");
  }
  Envelope env;
  env.sender = sender->as_string();
  env.seq = static_cast<uint64_t>(seq->as_int());
  env.payload = payload->as_string();
  if (static_cast<uint64_t>(checksum->as_int()) !=
      Checksum(env.sender, env.seq, env.payload)) {
    return Status::Corruption("envelope checksum mismatch");
  }
  return env;
}

std::string EncodeAck(const std::string& sender, uint64_t seq) {
  std::string out;
  out.reserve(sender.size() + 32);
  out += "{\"ra\":";
  out += std::to_string(static_cast<int64_t>(seq));
  out += ",\"rs\":";
  db::AppendJsonEscaped(&out, sender);
  out += '}';
  return out;
}

Result<Envelope> DecodeAck(const std::string& message) {
  auto parsed = db::Value::FromJson(message);
  if (!parsed.ok() || !parsed->is_object()) {
    return Status::Corruption("malformed ack");
  }
  const db::Value* sender = parsed->Find("rs");
  const db::Value* seq = parsed->Find("ra");
  if (sender == nullptr || !sender->is_string() || seq == nullptr ||
      !seq->is_int() || seq->as_int() <= 0) {
    return Status::Corruption("malformed ack");
  }
  Envelope env;
  env.sender = sender->as_string();
  env.seq = static_cast<uint64_t>(seq->as_int());
  return env;
}

}  // namespace reliable

// ---------------------------------------------------------------------------
// ReliableSender
// ---------------------------------------------------------------------------

ReliableSender::ReliableSender(Clock* clock, QueueSend send,
                               std::string queue, std::string sender_id,
                               ReliableOptions options)
    : clock_(clock),
      send_(std::move(send)),
      queue_(std::move(queue)),
      ack_queue_(queue_ + ":acks"),
      sender_id_(std::move(sender_id)),
      options_(options),
      rng_(options.seed) {}

Micros ReliableSender::JitteredLocked(Micros backoff) {
  const double jitter = std::max(0.0, options_.jitter);
  return backoff +
         static_cast<Micros>(static_cast<double>(backoff) * jitter *
                             rng_.NextDouble());
}

void ReliableSender::Send(std::string payload) {
  if (!options_.enabled) {
    send_(queue_, std::move(payload));
    return;
  }
  std::string wire;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t seq = next_seq_++;
    wire = reliable::Encode(sender_id_, seq, payload);
    Pending p;
    p.payload = std::move(payload);
    p.backoff = options_.retransmit_timeout;
    p.next_retransmit = clock_->NowMicros() + JitteredLocked(p.backoff);
    deadlines_.insert(p.next_retransmit);
    unacked_.emplace(seq, std::move(p));
  }
  send_(queue_, std::move(wire));
}

void ReliableSender::OnAck(const std::string& message) {
  auto ack = reliable::DecodeAck(message);
  if (!ack.ok() || ack->sender != sender_id_) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = unacked_.find(ack->seq);
  if (it == unacked_.end()) return;
  // Retire the acked message's retransmit deadline with it — if it held
  // the earliest deadline, the idle-tick early-out must see the next
  // one, not a stale minimum.
  auto dl = deadlines_.find(it->second.next_retransmit);
  if (dl != deadlines_.end()) deadlines_.erase(dl);
  unacked_.erase(it);
}

size_t ReliableSender::RetransmitDue() {
  std::vector<std::string> resend;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Micros now = clock_->NowMicros();
    const Micros earliest =
        deadlines_.empty() ? kNoDeadline : *deadlines_.begin();
    if (now < earliest) return 0;  // nothing can be due yet
    retransmit_scans_++;
    for (auto& [seq, p] : unacked_) {
      if (now < p.next_retransmit) continue;
      resend.push_back(reliable::Encode(sender_id_, seq, p.payload));
      auto dl = deadlines_.find(p.next_retransmit);
      if (dl != deadlines_.end()) deadlines_.erase(dl);
      p.backoff = std::min(p.backoff * 2, options_.max_backoff);
      p.next_retransmit = now + JitteredLocked(p.backoff);
      deadlines_.insert(p.next_retransmit);
      redeliveries_++;
    }
  }
  for (std::string& m : resend) send_(queue_, std::move(m));
  return resend.size();
}

size_t ReliableSender::unacked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return unacked_.size();
}

uint64_t ReliableSender::redeliveries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return redeliveries_;
}

uint64_t ReliableSender::retransmit_scans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retransmit_scans_;
}

// ---------------------------------------------------------------------------
// ReliableReceiver
// ---------------------------------------------------------------------------

ReliableReceiver::ReliableReceiver(QueueSend send, std::string queue,
                                   bool enabled)
    : send_(std::move(send)),
      ack_queue_(std::move(queue) + ":acks"),
      enabled_(enabled) {}

Result<size_t> ReliableReceiver::Accept(const std::string& message,
                                        const Handler& handler) {
  if (!enabled_) {
    handler(message);
    return size_t{1};
  }
  // A message that is no intact envelope is dropped *without* an ack: the
  // sender's retransmit is the recovery path, so the payload is never
  // lost.
  auto env = reliable::Decode(message);
  if (!env.ok()) return env.status();
  // Ack unconditionally — the sender may be retransmitting because the
  // first ack was lost.
  send_(ack_queue_, reliable::EncodeAck(env->sender, env->seq));

  std::vector<std::string> deliverable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SenderState& st = senders_[env->sender];
    if (env->seq <= st.floor || st.pending.count(env->seq) > 0) {
      duplicates_dropped_++;
      return size_t{0};
    }
    st.pending.emplace(env->seq, std::move(env->payload));
    // Release the contiguous run starting at floor+1 (in-order delivery:
    // reordered change events would otherwise produce phantom add/remove
    // flaps downstream).
    for (auto it = st.pending.begin();
         it != st.pending.end() && it->first == st.floor + 1;
         it = st.pending.erase(it)) {
      deliverable.push_back(std::move(it->second));
      st.floor = it->first;
    }
  }
  for (const std::string& p : deliverable) handler(p);
  return deliverable.size();
}

uint64_t ReliableReceiver::duplicates_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return duplicates_dropped_;
}

size_t ReliableReceiver::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [sender, st] : senders_) n += st.pending.size();
  return n;
}

}  // namespace quaestor::invalidb
