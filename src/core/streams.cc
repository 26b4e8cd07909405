#include "core/streams.h"

#include <utility>

#include "core/server.h"

namespace quaestor::core {

ChangeStreamHub::ChangeStreamHub(QuaestorServer* server) : server_(server) {
  server_->AddNotificationTap(
      [this](const std::vector<invalidb::Notification>& batch) {
        OnNotificationBatch(batch);
      });
}

Result<uint64_t> ChangeStreamHub::Subscribe(
    const db::Query& query, StreamCallback callback,
    std::vector<db::Document>* initial_result) {
  const std::string key = query.NormalizedKey();
  std::lock_guard<std::mutex> activation(activation_mu_);
  server_->RegisterQueryShape(query);
  QUAESTOR_RETURN_IF_ERROR(server_->ActivateQuery(query));

  if (initial_result != nullptr) {
    *initial_result = server_->database().Execute(query);
  }

  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  subscriptions_[id] = Subscription{key, std::move(callback)};
  by_query_[key].push_back(id);
  return id;
}

void ChangeStreamHub::Unsubscribe(uint64_t subscription_id) {
  std::lock_guard<std::mutex> activation(activation_mu_);
  std::string released;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = subscriptions_.find(subscription_id);
    if (it == subscriptions_.end()) return;
    auto& ids = by_query_[it->second.query_key];
    std::erase(ids, subscription_id);
    if (ids.empty()) {
      by_query_.erase(it->second.query_key);
      released = std::move(it->second.query_key);
    }
    subscriptions_.erase(it);
  }
  // Outside mu_: the pipeline may deliver notifications synchronously.
  if (!released.empty()) server_->DeactivateQuery(released);
}

void ChangeStreamHub::OnNotificationBatch(
    const std::vector<invalidb::Notification>& batch) {
  // The receivers of each streamed notification, resolved under one lock
  // for the whole delivery; callbacks run outside it.
  std::vector<std::pair<const invalidb::Notification*,
                        std::vector<StreamCallback>>>
      deliveries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const invalidb::Notification& n : batch) {
      auto it = by_query_.find(n.query_key);
      if (it == by_query_.end()) continue;
      auto& receivers =
          deliveries.emplace_back(&n, std::vector<StreamCallback>()).second;
      receivers.reserve(it->second.size());
      for (uint64_t id : it->second) {
        receivers.push_back(subscriptions_[id].callback);
      }
    }
  }
  for (const auto& [n, receivers] : deliveries) {
    StreamEvent ev;
    ev.type = n->type;
    ev.query_key = n->query_key;
    ev.record_id = n->record_id;
    ev.event_time = n->event_time;
    ev.new_index = n->new_index;
    if (n->type == invalidb::NotificationType::kAdd ||
        n->type == invalidb::NotificationType::kChange) {
      // Resolve the record's current state for the frame body. The record
      // id is unqualified; notifications carry the query key, whose table
      // prefix locates the record.
      std::string table;
      if (n->query_key.rfind("q:", 0) == 0) {
        const size_t qmark = n->query_key.find('?');
        table = n->query_key.substr(2, qmark - 2);
      }
      auto doc = server_->database().Get(table, n->record_id);
      if (doc.ok()) {
        ev.body = doc->body;
        ev.has_body = true;
      }
    }
    for (const StreamCallback& cb : receivers) cb(ev);
  }
}

size_t ChangeStreamHub::SubscriberCount(const std::string& query_key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_query_.find(query_key);
  return it == by_query_.end() ? 0 : it->second.size();
}

size_t ChangeStreamHub::TotalSubscriptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return subscriptions_.size();
}

}  // namespace quaestor::core
