#include "workload/workload.h"

#include <algorithm>
#include <cassert>

namespace quaestor::workload {

WorkloadGenerator::WorkloadGenerator(WorkloadOptions options, uint64_t seed)
    : options_(options),
      rng_(seed),
      num_groups_(std::max<size_t>(
          1, options.docs_per_table / std::max<size_t>(1,
                                                       options.docs_per_query))),
      table_dist_(std::max<size_t>(1, options.num_tables),
                  options.zipf_theta),
      key_dist_(std::max<size_t>(1, options.docs_per_table),
                options.zipf_theta),
      query_dist_(std::max<size_t>(1, options.queries_per_table),
                  options.zipf_theta),
      op_dist_({options.read_weight, options.query_weight,
                options.insert_weight, options.update_weight,
                options.delete_weight}) {
  assert(options.queries_per_table <= num_groups_ &&
         "need at least one group per distinct query");
  // Pick an affine permutation of group ids (see GroupOf).
  auto gcd = [](size_t a, size_t b) {
    while (b != 0) {
      const size_t t = a % b;
      a = b;
      b = t;
    }
    return a;
  };
  group_mult_ = 1;
  for (size_t candidate = 37; candidate < 37 + num_groups_; ++candidate) {
    if (gcd(candidate, num_groups_) == 1) {
      group_mult_ = candidate;
      break;
    }
  }
  group_offset_ = 53 % num_groups_;
  queries_.resize(options.num_tables);
  for (size_t t = 0; t < options.num_tables; ++t) {
    queries_[t].reserve(options.queries_per_table);
    for (size_t q = 0; q < options.queries_per_table; ++q) {
      queries_[t].push_back(MakeQuery(t, q));
    }
  }
}

db::Query WorkloadGenerator::MakeQuery(size_t table_index,
                                       size_t group) const {
  db::Predicate p = db::Predicate::Compare(
      "group", db::CompareOp::kEq, db::Value(static_cast<int64_t>(group)));
  return db::Query(TableName(table_index), std::move(p));
}

db::Value WorkloadGenerator::MakeDoc(size_t table_index,
                                     size_t doc_index) const {
  db::Object obj;
  obj.reserve(5);  // the five fields below, in one exact-size block
  obj["group"] = db::Value(static_cast<int64_t>(GroupOf(doc_index)));
  obj["title"] = db::Value("Post " + std::to_string(doc_index) + " in " +
                           TableName(table_index));
  obj["author"] =
      db::Value("author" + std::to_string(doc_index % 97));
  obj["views"] = db::Value(static_cast<int64_t>(0));
  db::Array tags;
  tags.push_back(db::Value("tag" + std::to_string(doc_index % 13)));
  tags.push_back(db::Value("tag" + std::to_string(doc_index % 29)));
  obj["tags"] = db::Value(std::move(tags));
  return db::Value(std::move(obj));
}

void WorkloadGenerator::Load(db::Database* db) {
  for (size_t t = 0; t < options_.num_tables; ++t) {
    const std::string table = TableName(t);
    for (size_t d = 0; d < options_.docs_per_table; ++d) {
      auto res = db->Insert(table, DocId(d), MakeDoc(t, d));
      assert(res.ok());
      (void)res;
    }
    // The benchmark queries select by group; index it (the paper's
    // MongoDB deployment would equally index its query fields).
    db->GetOrCreateTable(table)->CreateIndex("group");
  }
}

Operation WorkloadGenerator::Next() {
  Operation op;
  const size_t kind = op_dist_.Next(rng_);
  const size_t t = table_dist_.Next(rng_);
  op.table = TableName(t);
  switch (kind) {
    case 0: {  // read
      op.type = OpType::kRead;
      op.id = DocId(key_dist_.Next(rng_));
      break;
    }
    case 1: {  // query
      op.type = OpType::kQuery;
      op.query = queries_[t][query_dist_.Next(rng_)];
      break;
    }
    case 2: {  // insert
      op.type = OpType::kInsert;
      const size_t idx = options_.docs_per_table + insert_counter_++;
      op.id = DocId(idx);
      op.body = MakeDoc(t, idx);
      break;
    }
    case 3: {  // update
      op.type = OpType::kUpdate;
      op.id = DocId(key_dist_.Next(rng_));
      if (rng_.NextBool(options_.membership_change_fraction)) {
        // Move the document to a uniformly chosen group: membership
        // change for the source and target groups' queries.
        op.update.Set("group",
                      db::Value(static_cast<int64_t>(
                          rng_.NextUint64(num_groups_))));
      } else {
        // Bump a counter: pure state change.
        op.update.Inc("views", db::Value(static_cast<int64_t>(1)));
      }
      break;
    }
    default: {  // delete
      op.type = OpType::kDelete;
      op.id = DocId(key_dist_.Next(rng_));
      break;
    }
  }
  return op;
}

}  // namespace quaestor::workload
