#include "db/update.h"

#include <utility>

namespace quaestor::db {

Update& Update::Set(std::string path, Value v) {
  actions_.push_back({UpdateOp::kSet, std::move(path), std::move(v)});
  return *this;
}

Update& Update::Unset(std::string path) {
  actions_.push_back({UpdateOp::kUnset, std::move(path), Value()});
  return *this;
}

Update& Update::Inc(std::string path, Value delta) {
  actions_.push_back({UpdateOp::kInc, std::move(path), std::move(delta)});
  return *this;
}

Update& Update::Push(std::string path, Value v) {
  actions_.push_back({UpdateOp::kPush, std::move(path), std::move(v)});
  return *this;
}

Update& Update::Pull(std::string path, Value v) {
  actions_.push_back({UpdateOp::kPull, std::move(path), std::move(v)});
  return *this;
}

namespace {

Status ApplyAction(Value& body, const UpdateAction& a) {
  switch (a.op) {
    case UpdateOp::kSet:
      return body.SetPath(a.path, a.operand);
    case UpdateOp::kUnset:
      body.RemovePath(a.path);
      return Status::OK();
    case UpdateOp::kInc: {
      if (!a.operand.is_number()) {
        return Status::InvalidArgument("$inc operand must be a number");
      }
      const Value* cur = body.Find(a.path);
      if (cur == nullptr) {
        return body.SetPath(a.path, a.operand);
      }
      if (!cur->is_number()) {
        return Status::InvalidArgument("$inc target is not a number: " +
                                       a.path);
      }
      if (cur->is_int() && a.operand.is_int()) {
        return body.SetPath(a.path, Value(cur->as_int() + a.operand.as_int()));
      }
      return body.SetPath(a.path,
                          Value(cur->as_number() + a.operand.as_number()));
    }
    case UpdateOp::kPush: {
      const Value* cur = body.Find(a.path);
      Array arr;
      if (cur != nullptr) {
        if (!cur->is_array()) {
          return Status::InvalidArgument("$push target is not an array: " +
                                         a.path);
        }
        arr = cur->as_array();
      }
      arr.push_back(a.operand);
      return body.SetPath(a.path, Value(std::move(arr)));
    }
    case UpdateOp::kPull: {
      const Value* cur = body.Find(a.path);
      if (cur == nullptr) return Status::OK();
      if (!cur->is_array()) {
        return Status::InvalidArgument("$pull target is not an array: " +
                                       a.path);
      }
      Array out;
      for (const Value& e : cur->as_array()) {
        if (!(e == a.operand)) out.push_back(e);
      }
      return body.SetPath(a.path, Value(std::move(out)));
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace

Status Update::ApplyTo(Value& body) const {
  QUAESTOR_ASSIGN_OR_RETURN(body, Applied(body));
  return Status::OK();
}

Result<Value> Update::Applied(const Value& body) const {
  if (!body.is_object()) {
    return Status::InvalidArgument("document body must be an object");
  }
  Result<Value> out(body);
  for (const UpdateAction& a : actions_) {
    QUAESTOR_RETURN_IF_ERROR(ApplyAction(*out, a));
  }
  return out;
}

Result<Update> Update::Parse(const Value& spec) {
  if (!spec.is_object()) {
    return Status::InvalidArgument("update must be an object");
  }
  Update u;
  for (const auto& [opname, fields] : spec.as_object()) {
    if (!fields.is_object()) {
      return Status::InvalidArgument(std::string(opname) +
                                     " requires an object");
    }
    for (const auto& [path, operand] : fields.as_object()) {
      if (opname == "$set") {
        u.Set(std::string(path), operand);
      } else if (opname == "$unset") {
        u.Unset(std::string(path));
      } else if (opname == "$inc") {
        u.Inc(std::string(path), operand);
      } else if (opname == "$push") {
        u.Push(std::string(path), operand);
      } else if (opname == "$pull") {
        u.Pull(std::string(path), operand);
      } else {
        return Status::InvalidArgument("unknown update operator: " +
                                       std::string(opname));
      }
    }
  }
  if (u.empty()) return Status::InvalidArgument("empty update");
  return u;
}

Value Update::ToSpec() const {
  Object spec;
  for (const UpdateAction& a : actions_) {
    const char* opname = "$set";
    switch (a.op) {
      case UpdateOp::kSet:
        opname = "$set";
        break;
      case UpdateOp::kUnset:
        opname = "$unset";
        break;
      case UpdateOp::kInc:
        opname = "$inc";
        break;
      case UpdateOp::kPush:
        opname = "$push";
        break;
      case UpdateOp::kPull:
        opname = "$pull";
        break;
    }
    Value& fields = spec[opname];
    if (!fields.is_object()) fields = Object{};
    // $unset parses any operand shape; serialize as true for clarity.
    fields.as_object()[a.path] =
        a.op == UpdateOp::kUnset ? Value(true) : a.operand;
  }
  return Value(std::move(spec));
}

}  // namespace quaestor::db
