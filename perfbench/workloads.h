#ifndef DATACON_PERFBENCH_WORKLOADS_H_
#define DATACON_PERFBENCH_WORKLOADS_H_

// Seeded, fixed-work workloads for the perfbench driver. Each workload is a
// DBPL set-up script, a list of prepared query forms, and an operation
// sequence whose every result is predicted by an oracle written here, outside
// the engine (BFS reachability, depth-based same-generation, quantity
// explosion, selector filtering, and a model of every mutable relation).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ast/branch.h"
#include "storage/tuple.h"
#include "types/value.h"

namespace perfbench {

using datacon::Tuple;
using datacon::Value;

/// The public entry point an operation goes through.
enum class OpKind {
  kQuery,     // Interpreter::Execute("QUERY ...;")
  kPrepared,  // PreparedQuery::Execute(params)
  kInsert,    // Database::InsertAll(relation, tuples)
  kDelete,    // Interpreter::Execute("R := {EACH r IN R: NOT (...)};")
};

/// Which end-to-end latency metric an operation feeds.
enum class Metric { kQuery, kInsert, kDelete };

struct Op {
  OpKind kind = OpKind::kQuery;
  /// Index into Workload::classes (the op's class, for shares and reports).
  int cls = 0;
  /// kQuery / kDelete: the statement text.
  std::string text;
  /// kPrepared: index into Workload::forms, with its parameter values.
  int form = -1;
  std::map<std::string, Value> params;
  /// kInsert: the target relation and tuples; kDelete: the target relation.
  std::string relation;
  std::vector<Tuple> tuples;

  // --- Oracle predictions (computed at generation time). ---
  /// kQuery / kPrepared: the result, sorted.
  std::vector<Tuple> expected;
  /// kInsert: the insert must be refused with kConstraintViolation.
  bool expect_refused = false;
  /// kInsert / kDelete: size of `relation` after the op.
  size_t expected_size = 0;
  /// kInsert / kDelete: tuples that must (not) be in `relation` afterwards.
  std::vector<Tuple> present;
  std::vector<Tuple> absent;
};

struct OpClass {
  std::string name;
  Metric metric = Metric::kQuery;
};

/// A compiled parameterized query form, built through the AST builder.
struct Form {
  datacon::CalcExprPtr expr;
  std::map<std::string, datacon::ValueType> placeholders;
};

struct Workload {
  std::string name;
  std::vector<OpClass> classes;
  /// The set-up script in the order it is executed: definitions
  /// (TYPE/VAR/SELECTOR/CONSTRUCTOR/CONSTRAINT) and bulk INSERTs.
  std::vector<std::string> setup;
  std::vector<Form> forms;
  /// Untimed warm-up operations, then the measured sequence.
  std::vector<Op> warmup;
  std::vector<Op> ops;
  /// Oracle contents of every relation after the last operation.
  std::map<std::string, std::vector<Tuple>> final_relations;
  /// Human-readable data sizes ("W: 9000 edges", ...).
  std::vector<std::string> sizes;
  /// Untraced passes over the sequence per run; an op's latency is its
  /// minimum over them.
  int passes = 1;
};

/// Builds workload `name` ("recursive-analytics", "point-queries" or
/// "update-churn") for `seed`. The number of measured operations is
/// a fixed function of `seconds` (the nominal run length), never of elapsed
/// time. Returns null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int seconds);

}  // namespace perfbench

#endif  // DATACON_PERFBENCH_WORKLOADS_H_
