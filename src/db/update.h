#ifndef QUAESTOR_DB_UPDATE_H_
#define QUAESTOR_DB_UPDATE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "db/value.h"

namespace quaestor::db {

/// Partial-update operators, MongoDB style.
enum class UpdateOp {
  kSet,    // $set  — assign a path
  kUnset,  // $unset — remove a path
  kInc,    // $inc  — add a number to a numeric path (creates it at 0)
  kPush,   // $push — append to an array path (creates an empty array)
  kPull,   // $pull — remove all equal elements from an array path
};

/// One update action on a document path.
struct UpdateAction {
  UpdateOp op;
  std::string path;
  Value operand;
};

/// An ordered list of update actions applied atomically to one document.
class Update {
 public:
  Update() = default;

  Update& Set(std::string path, Value v);
  Update& Unset(std::string path);
  Update& Inc(std::string path, Value delta);
  Update& Push(std::string path, Value v);
  Update& Pull(std::string path, Value v);

  const std::vector<UpdateAction>& actions() const { return actions_; }
  bool empty() const { return actions_.empty(); }

  /// Applies all actions to `body` (an object). On error the document is
  /// left unchanged (copy-apply-swap).
  Status ApplyTo(Value& body) const;

  /// Returns a copy of `body` (an object) with all actions applied; `body`
  /// itself is never changed, so a caller that keeps the old value (a
  /// table's before-image) needs no copy of its own.
  Result<Value> Applied(const Value& body) const;

  /// Parses a MongoDB-style update document, e.g.
  ///   {"$set": {"a.b": 1}, "$inc": {"n": 2}, "$push": {"tags": "x"}}
  static Result<Update> Parse(const Value& spec);

  /// Inverse of Parse: rebuilds the operator document, so updates
  /// round-trip over the wire (Parse(ToSpec()) preserves semantics; two
  /// actions on the same path under one operator collapse to the last,
  /// matching object-key semantics of the spec format).
  Value ToSpec() const;

 private:
  std::vector<UpdateAction> actions_;
};

}  // namespace quaestor::db

#endif  // QUAESTOR_DB_UPDATE_H_
