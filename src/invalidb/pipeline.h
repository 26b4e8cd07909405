#ifndef QUAESTOR_INVALIDB_PIPELINE_H_
#define QUAESTOR_INVALIDB_PIPELINE_H_

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "db/document.h"
#include "db/query.h"
#include "invalidb/notification.h"

namespace quaestor::invalidb {

/// The invalidation pipeline's data path as Quaestor sees it (§4.1): query
/// activations, deactivations and the change stream go in; notifications
/// come back through the batch sink the pipeline was built with.
/// InvalidbCluster implements it in process, InvalidbRemote over a message
/// queue. Control-plane operations (failover, resize, stats) stay on the
/// concrete types.
class Pipeline {
 public:
  virtual ~Pipeline() = default;

  /// Activates a query with its current matching set (for stateful
  /// queries the unwindowed predicate set) evaluated at `evaluated_at`
  /// (-1: now). Every event the query can emit is delivered: a stateless
  /// query's add/remove/change, a stateful one's windowed events; the
  /// server decides which of them invalidate a cached copy.
  virtual Status RegisterQuery(const db::Query& query,
                               const std::vector<db::Document>& initial_result,
                               Micros evaluated_at = -1) = 0;

  /// Deactivates a query.
  virtual void DeregisterQuery(const std::string& query_key) = 0;

  /// Ingests one committed change (an after-image, in commit order).
  virtual void OnChange(const db::ChangeEvent& event) = 0;

  /// False while the pipeline is known to lose invalidations (a dead
  /// matching node); the server then degrades.
  virtual bool Healthy() const = 0;
};

}  // namespace quaestor::invalidb

#endif  // QUAESTOR_INVALIDB_PIPELINE_H_
