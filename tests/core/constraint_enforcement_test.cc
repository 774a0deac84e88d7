// Commit-time enforcement of declared integrity constraints: violating
// mutations must be rejected atomically (relation tuple sets exactly as
// before), the simplified delta-driven checks must agree with full
// re-evaluation, and the PRAGMA CONSTRAINTS = OFF escape hatch must admit
// tuples whose violations then surface on the next checked statement.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/constraint.h"
#include "ast/builder.h"
#include "common/metrics.h"
#include "core/database.h"
#include "lang/interpreter.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction in tests

std::unique_ptr<Database> GraphDb(DatabaseOptions options = {}) {
  auto db = std::make_unique<Database>(options);
  EXPECT_TRUE(db->DefineRelationType("edgerel",
                                     Schema({{"src", ValueType::kInt},
                                             {"dst", ValueType::kInt}}))
                  .ok());
  EXPECT_TRUE(db->DefineRelationType("markrel",
                                     Schema({{"node", ValueType::kInt}}))
                  .ok());
  EXPECT_TRUE(db->CreateRelation("Edge", "edgerel").ok());
  EXPECT_TRUE(db->CreateRelation("Mark", "markrel").ok());
  return db;
}

ConstraintDeclPtr NoSelfLoop() {
  return std::make_shared<const ConstraintDecl>(
      "no_self_loop", std::vector<Binding>{Each("p", Rel("Edge"))},
      Eq(FieldRef("p", "src"), FieldRef("p", "dst")));
}

ConstraintDeclPtr MarkRefsEdge() {
  return std::make_shared<const ConstraintDecl>(
      "mark_refs_edge", "node", Rel("Mark"), "src", Rel("Edge"));
}

Tuple Edge2(int64_t a, int64_t b) {
  return Tuple({Value::Int(a), Value::Int(b)});
}

std::vector<Tuple> SortedTuples(const Database& db, const std::string& name) {
  Result<const Relation*> rel = db.GetRelation(name);
  EXPECT_TRUE(rel.ok());
  return rel.value()->SortedTuples();
}

TEST(ConstraintEnforcement, ViolatingInsertIsRejectedAndRolledBack) {
  std::unique_ptr<Database> db = GraphDb();
  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  ASSERT_TRUE(db->Insert("Edge", Edge2(1, 2)).ok());
  std::vector<Tuple> before = SortedTuples(*db, "Edge");

  Status violation = db->Insert("Edge", Edge2(3, 3));
  EXPECT_EQ(violation.code(), StatusCode::kConstraintViolation);
  EXPECT_NE(violation.message().find("no_self_loop"), std::string::npos);
  EXPECT_EQ(SortedTuples(*db, "Edge"), before);

  // The database is still usable after the rejection.
  EXPECT_TRUE(db->Insert("Edge", Edge2(3, 4)).ok());
}

TEST(ConstraintEnforcement, BatchInsertIsAtomic) {
  std::unique_ptr<Database> db = GraphDb();
  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  ASSERT_TRUE(db->Insert("Edge", Edge2(1, 2)).ok());
  std::vector<Tuple> before = SortedTuples(*db, "Edge");

  // Two clean tuples around one violating tuple: nothing may stick.
  Status violation = db->InsertAll(
      "Edge", {Edge2(5, 6), Edge2(7, 7), Edge2(8, 9)});
  EXPECT_EQ(violation.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(SortedTuples(*db, "Edge"), before);
}

TEST(ConstraintEnforcement, ViolatingAssignIsRolledBack) {
  std::unique_ptr<Database> db = GraphDb();
  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  ASSERT_TRUE(db->Insert("Edge", Edge2(1, 2)).ok());
  std::vector<Tuple> before = SortedTuples(*db, "Edge");

  Relation bad(Schema({{"src", ValueType::kInt}, {"dst", ValueType::kInt}}));
  ASSERT_TRUE(bad.Insert(Edge2(4, 4)).ok());
  EXPECT_EQ(db->Assign("Edge", bad).code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(SortedTuples(*db, "Edge"), before);
}

TEST(ConstraintEnforcement, ViolatingDefineLeavesCatalogUntouched) {
  std::unique_ptr<Database> db = GraphDb();
  ASSERT_TRUE(db->Insert("Edge", Edge2(5, 5)).ok());
  Status refused = db->DefineConstraint(NoSelfLoop());
  EXPECT_EQ(refused.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(db->catalog().constraints().size(), 0u);
  // A later insert is unchecked — the constraint never registered.
  EXPECT_TRUE(db->Insert("Edge", Edge2(6, 6)).ok());
}

TEST(ConstraintEnforcement, DuplicateNameIsAlreadyExists) {
  std::unique_ptr<Database> db = GraphDb();
  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  EXPECT_EQ(db->DefineConstraint(NoSelfLoop()).code(),
            StatusCode::kAlreadyExists);
}

TEST(ConstraintEnforcement, ForeignKeySidesBehaveAsymmetrically) {
  std::unique_ptr<Database> db = GraphDb();
  ASSERT_TRUE(db->DefineConstraint(MarkRefsEdge()).ok());
  ASSERT_TRUE(db->Insert("Edge", Edge2(1, 2)).ok());
  // Referencing side: must match an Edge source.
  EXPECT_TRUE(db->Insert("Mark", Tuple({Value::Int(1)})).ok());
  EXPECT_EQ(db->Insert("Mark", Tuple({Value::Int(9)})).code(),
            StatusCode::kConstraintViolation);
  // Referenced side: always admissible (skip event).
  EXPECT_TRUE(db->Insert("Edge", Edge2(7, 8)).ok());
}

TEST(ConstraintEnforcement, SimplifiedAgreesWithFullRecheck) {
  // The same mutation sequence against two databases differing only in
  // constraints_simplify must produce identical verdicts and final states.
  DatabaseOptions simplified;
  simplified.constraints_simplify = true;
  DatabaseOptions full;
  full.constraints_simplify = false;
  std::unique_ptr<Database> a = GraphDb(simplified);
  std::unique_ptr<Database> b = GraphDb(full);
  for (Database* db : {a.get(), b.get()}) {
    ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
    ASSERT_TRUE(db->DefineConstraint(MarkRefsEdge()).ok());
  }
  const std::vector<Tuple> edges = {Edge2(1, 2), Edge2(2, 2), Edge2(2, 3),
                                    Edge2(4, 4), Edge2(3, 1)};
  for (const Tuple& t : edges) {
    Status sa = a->Insert("Edge", t);
    Status sb = b->Insert("Edge", t);
    EXPECT_EQ(sa.code(), sb.code()) << t.ToString();
  }
  for (int64_t node : {1, 5, 2, 9}) {
    Status sa = a->Insert("Mark", Tuple({Value::Int(node)}));
    Status sb = b->Insert("Mark", Tuple({Value::Int(node)}));
    EXPECT_EQ(sa.code(), sb.code()) << node;
  }
  EXPECT_EQ(SortedTuples(*a, "Edge"), SortedTuples(*b, "Edge"));
  EXPECT_EQ(SortedTuples(*a, "Mark"), SortedTuples(*b, "Mark"));
}

TEST(ConstraintEnforcement, CountersTrackCheckKinds) {
  // The counters are per-database, so a fresh database starts at zero.
  std::unique_ptr<Database> db = GraphDb();
  Counter* checks = db->metrics().GetCounter("constraints.checks");
  Counter* simplified = db->metrics().GetCounter("constraints.simplified");
  Counter* violations = db->metrics().GetCounter("constraints.violations");
  EXPECT_EQ(checks->value(), 0);
  EXPECT_EQ(simplified->value(), 0);
  EXPECT_EQ(violations->value(), 0);

  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  ASSERT_TRUE(db->Insert("Edge", Edge2(1, 2)).ok());
  EXPECT_EQ(db->Insert("Edge", Edge2(3, 3)).code(),
            StatusCode::kConstraintViolation);

  EXPECT_GT(checks->value(), 0);
  EXPECT_GT(simplified->value(), 0);
  EXPECT_EQ(violations->value(), 1);
}

TEST(ConstraintEnforcement, PragmaOffAdmitsThenFullRecheckSurfaces) {
  std::unique_ptr<Database> db = GraphDb();
  Interpreter interp(db.get());
  ASSERT_TRUE(interp
                  .Execute("CONSTRAINT c DENY EACH p IN Edge: "
                           "p.src = p.dst;")
                  .ok());
  ASSERT_TRUE(interp.Execute("PRAGMA CONSTRAINTS = OFF;").ok());
  // Violations are admitted while enforcement is off.
  ASSERT_TRUE(interp.Execute("INSERT INTO Edge <5, 5>;").ok());
  ASSERT_TRUE(interp.Execute("PRAGMA CONSTRAINTS = ON;").ok());
  // The next checked statement re-checks everything inserted since the
  // last successful check — the stale violation surfaces and the statement
  // is rejected, so its own (clean) tuple does not stick either.
  Status late = interp.Execute("INSERT INTO Edge <1, 2>;");
  EXPECT_EQ(late.code(), StatusCode::kConstraintViolation);
  std::vector<Tuple> edges = SortedTuples(*db, "Edge");
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0], Edge2(5, 5));
}

TEST(ConstraintEnforcement, DescribeConstraintsListsPlans) {
  std::unique_ptr<Database> db = GraphDb();
  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  ASSERT_TRUE(db->DefineConstraint(MarkRefsEdge()).ok());
  std::string text = db->DescribeConstraints();
  EXPECT_NE(text.find("no_self_loop"), std::string::npos);
  EXPECT_NE(text.find("mark_refs_edge"), std::string::npos);
  EXPECT_NE(text.find("simplified"), std::string::npos);
  EXPECT_NE(text.find("skip"), std::string::npos);
  EXPECT_NE(text.find("full recheck"), std::string::npos);
}

TEST(ConstraintEnforcement, EraseForcesFullRecheckSoundly) {
  // A failed check rolls back by erasing, which invalidates the delta log;
  // the next check must fall back to full re-evaluation and still accept
  // clean tuples / reject violating ones.
  std::unique_ptr<Database> db = GraphDb();
  Counter* full_rechecks =
      db->metrics().GetCounter("constraints.full_rechecks");
  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  ASSERT_TRUE(db->Insert("Edge", Edge2(1, 2)).ok());
  EXPECT_EQ(db->Insert("Edge", Edge2(2, 2)).code(),
            StatusCode::kConstraintViolation);
  int64_t full0 = full_rechecks->value();
  // The rollback erased a tuple: InsertedSince is gone, so this check runs
  // the full denial — and passes.
  EXPECT_TRUE(db->Insert("Edge", Edge2(2, 3)).ok());
  EXPECT_GT(full_rechecks->value(), full0);
}

TEST(ConstraintEnforcement, ChecksAreNotRecordedAsQueries) {
  // A check is part of the statement that triggered it, not a user query:
  // it takes no evaluation index, feeds no latency histogram, fills no
  // slow log (whose default threshold 0 admits every query) and leaves
  // last_query() alone.
  std::unique_ptr<Database> db = GraphDb();
  ASSERT_TRUE(db->DefineConstraint(NoSelfLoop()).ok());
  ASSERT_TRUE(db->Insert("Edge", Edge2(1, 2)).ok());
  ASSERT_TRUE(db->Insert("Edge", Edge2(2, 3)).ok());
  EXPECT_GT(db->metrics().GetCounter("constraints.checks")->value(), 0);
  EXPECT_EQ(db->metrics().GetHistogram("query.latency_ns")->count(), 0);
  EXPECT_TRUE(db->slow_query_log().Entries().empty());
  EXPECT_EQ(db->last_eval_index(), 0);

  ASSERT_TRUE(db->EvalRange(Rel("Edge")).ok());
  const std::string query = FormatQueryLines(db->last_query());
  ASSERT_TRUE(db->Insert("Edge", Edge2(3, 4)).ok());
  // A rejected insert rolls back by erasing, so the next check is a full
  // recheck: both check kinds stay unobserved.
  EXPECT_EQ(db->Insert("Edge", Edge2(4, 4)).code(),
            StatusCode::kConstraintViolation);
  ASSERT_TRUE(db->Insert("Edge", Edge2(4, 5)).ok());
  EXPECT_EQ(FormatQueryLines(db->last_query()), query);
  EXPECT_EQ(db->last_eval_index(), 1);
  EXPECT_EQ(db->metrics().GetHistogram("query.latency_ns")->count(), 1);
  EXPECT_EQ(db->slow_query_log().Entries().size(), 1u);
}

}  // namespace
}  // namespace datacon
