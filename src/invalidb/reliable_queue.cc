#include "invalidb/reliable_queue.h"

#include <algorithm>
#include <charconv>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace quaestor::invalidb {

namespace reliable {

namespace {

uint64_t Checksum(std::string_view sender, uint64_t seq,
                  std::string_view payload) {
  return Hash64(payload, Hash64(seq, Hash64(sender, /*seed=*/0xfa17)));
}

/// Reads the decimal number that `text` starts with, up to the separator
/// `sep`, and drops both from `text`. False on an empty or non-digit
/// field, a missing separator, or a value that overflows uint64_t.
bool TakeNumber(std::string_view* text, char sep, uint64_t* out) {
  const char* begin = text->data();
  const char* end = begin + text->size();
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  if (ec != std::errc() || ptr == end || *ptr != sep) return false;
  text->remove_prefix(static_cast<size_t>(ptr - begin) + 1);
  return true;
}

}  // namespace

std::string Encode(const std::string& sender, uint64_t seq,
                   const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + sender.size() + 43);  // 2 x 20 digits + 3
  out += std::to_string(seq);
  out += ' ';
  out += std::to_string(Checksum(sender, seq, payload));
  out += ' ';
  out += sender;
  out += '\n';
  out += payload;
  return out;
}

Result<Envelope> Decode(std::string_view message) {
  uint64_t seq = 0;
  uint64_t checksum = 0;
  if (!TakeNumber(&message, ' ', &seq) ||
      !TakeNumber(&message, ' ', &checksum) || seq == 0) {
    return Status::Corruption("malformed envelope header");
  }
  const size_t newline = message.find('\n');
  if (newline == std::string_view::npos) {
    return Status::Corruption("envelope header without newline");
  }
  const std::string_view sender = message.substr(0, newline);
  const std::string_view payload = message.substr(newline + 1);
  if (checksum != Checksum(sender, seq, payload)) {
    return Status::Corruption("envelope checksum mismatch");
  }
  return Envelope{std::string(sender), seq, std::string(payload)};
}

std::string EncodeAck(const std::string& sender, uint64_t floor) {
  std::string out = std::to_string(floor);
  out += ' ';
  out += sender;
  return out;
}

Result<Envelope> DecodeAck(std::string_view message) {
  uint64_t floor = 0;
  if (!TakeNumber(&message, ' ', &floor) || floor == 0) {
    return Status::Corruption("malformed ack");
  }
  return Envelope{std::string(message), floor, {}};
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

void ReliableSender::RestartTimerLocked(Micros now) {
  backoff_ = options_.retransmit_timeout;
  deadline_ = now + JitteredLocked(backoff_);
}

void ReliableSender::Send(std::string payload) {
  std::string wire;
  {
    std::lock_guard<std::mutex> lock(mu_);
    wire = reliable::Encode(sender_id_, next_seq_++, payload);
    if (unacked_.empty()) RestartTimerLocked(clock_->NowMicros());
    unacked_.push_back(std::move(payload));
  }
  send_(queue_, std::move(wire));
}

void ReliableSender::OnAck(std::string_view message) {
  auto ack = reliable::DecodeAck(message);
  if (!ack.ok() || ack->sender != sender_id_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (ack->seq < first_seq_) return;  // nothing new retired
  const uint64_t retired =
      std::min<uint64_t>(ack->seq - first_seq_ + 1, unacked_.size());
  unacked_.erase(unacked_.begin(),
                 unacked_.begin() + static_cast<ptrdiff_t>(retired));
  first_seq_ += retired;
  if (unacked_.empty()) {
    deadline_ = kNoDeadline;
  } else {
    RestartTimerLocked(clock_->NowMicros());
  }
}

size_t ReliableSender::Tick() {
  std::vector<std::string> resend;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Micros now = clock_->NowMicros();
    if (now < deadline_) return 0;  // nothing can be due yet
    retransmit_scans_++;
    // A cumulative ack stops at the first gap, so everything from the
    // oldest unacked message on goes again; the receiver drops what it
    // already has.
    resend.reserve(unacked_.size());
    uint64_t seq = first_seq_;
    for (const std::string& payload : unacked_) {
      resend.push_back(reliable::Encode(sender_id_, seq++, payload));
    }
    redeliveries_ += resend.size();
    backoff_ = std::min(backoff_ * 2, options_.max_backoff);
    deadline_ = now + JitteredLocked(backoff_);
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

ReliableReceiver::ReliableReceiver(Clock* clock, QueueSend send,
                                   std::string queue)
    : clock_(clock),
      send_(std::move(send)),
      ack_queue_(std::move(queue) + ":acks") {}

Result<size_t> ReliableReceiver::Accept(std::string_view message,
                                        const Handler& handler) {
  // A message that is no intact envelope is dropped *without* an ack: the
  // sender's retransmit is the recovery path, so the payload is never
  // lost.
  auto env = reliable::Decode(message);
  if (!env.ok()) return env.status();

  std::vector<std::string> deliverable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SenderState& st = senders_[env->sender];
    st.ack_owed = true;
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

size_t ReliableReceiver::SendAcks() {
  std::vector<std::string> acks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Micros now = clock_->NowMicros();
    if (now < acks_sent_at_ + kAckInterval) return 0;
    for (auto& [sender, st] : senders_) {
      if (!st.ack_owed) continue;
      st.ack_owed = false;
      // Floor 0 (only out-of-order arrivals so far) acks nothing.
      if (st.floor > 0) acks.push_back(reliable::EncodeAck(sender, st.floor));
    }
    if (acks.empty()) return 0;
    acks_sent_at_ = now;
  }
  for (std::string& a : acks) send_(ack_queue_, std::move(a));
  return acks.size();
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
