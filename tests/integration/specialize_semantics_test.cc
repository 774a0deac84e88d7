// Pinned end-to-end guarantee of the magic-seed specialization: for every
// example program (and a few targeted scripts), evaluation with PRAGMA
// SPECIALIZE = ON must produce bit-identical query results to SPECIALIZE =
// OFF — the rewrite may only skip irrelevant work, never change answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/database.h"
#include "lang/interpreter.h"

namespace datacon {
namespace {

/// Canonical form of a relation: sorted tuple renderings.
std::vector<std::string> Canonical(const Relation& rel) {
  std::vector<std::string> out;
  for (const Tuple& t : rel.tuples()) {
    std::string row;
    for (const Value& v : t.values()) row += v.ToString() + "|";
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct RunOutcome {
  std::vector<std::vector<std::string>> results;
  EvalStats stats;
};

/// Executes `source` from scratch with specialization on or off and
/// canonicalizes every QUERY result.
RunOutcome RunScript(const std::string& source, bool specialize) {
  DatabaseOptions options;
  options.specialize = specialize;
  Database db(options);
  Interpreter interp(&db);
  Status s = interp.Execute(source);
  EXPECT_TRUE(s.ok()) << s.ToString();
  RunOutcome outcome;
  for (const Interpreter::QueryResult& r : interp.results()) {
    outcome.results.push_back(Canonical(r.relation));
  }
  outcome.stats = db.last_stats();
  return outcome;
}

constexpr const char* kBoundAhead = R"(
TYPE parttype = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel = RELATION OF RECORD head, tail: parttype END;
VAR Infront: infrontrel;

SELECTOR from_head (Obj: parttype) FOR Rel: aheadrel;
BEGIN EACH r IN Rel: r.head = Obj END from_head;

CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN EACH r IN Rel: TRUE,
      <f.front, b.tail> OF EACH f IN Rel,
      EACH b IN Rel {ahead}: f.back = b.head
END ahead;

INSERT INTO Infront <"vase", "table">, <"table", "chair">, <"chair", "wall">;
INSERT INTO Infront <"lamp", "desk">, <"desk", "rug">, <"rug", "floor">;

QUERY Infront {ahead} [from_head("vase")];
)";

TEST(SpecializeSemantics, BoundQueryPrunesButMatches) {
  RunOutcome on = RunScript(kBoundAhead, /*specialize=*/true);
  RunOutcome off = RunScript(kBoundAhead, /*specialize=*/false);
  ASSERT_EQ(on.results.size(), 1u);
  EXPECT_EQ(on.results, off.results);
  // Reachability from "vase" only: table, chair, wall.
  EXPECT_EQ(on.results[0].size(), 3u);
  // The specialized run actually restricted the fixpoint: the lamp chain
  // was dropped before evaluation.
  EXPECT_GT(on.stats.specialized_branches, 0u);
  EXPECT_GT(on.stats.seed_tuples_pruned, 0u);
  EXPECT_EQ(off.stats.specialized_branches, 0u);
  EXPECT_EQ(off.stats.seed_tuples_pruned, 0u);
}

TEST(SpecializeSemantics, EveryExampleProgramIsBitIdentical) {
  const std::filesystem::path dir(DATACON_EXAMPLES_DIR);
  size_t examples = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".dbpl") continue;
    ++examples;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    RunOutcome on = RunScript(buffer.str(), /*specialize=*/true);
    RunOutcome off = RunScript(buffer.str(), /*specialize=*/false);
    EXPECT_EQ(on.results, off.results) << entry.path();
  }
  // The corpus exists and was actually exercised.
  EXPECT_GE(examples, 5u);
}

TEST(SpecializeSemantics, PragmaTogglesSpecialization) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kBoundAhead).ok());
  EXPECT_GT(db.last_stats().specialized_branches, 0u);

  ASSERT_TRUE(interp
                  .Execute("PRAGMA SPECIALIZE = OFF;\n"
                           "QUERY Infront {ahead} [from_head(\"vase\")];")
                  .ok());
  EXPECT_EQ(db.last_stats().specialized_branches, 0u);
  EXPECT_EQ(db.last_stats().seed_tuples_pruned, 0u);

  ASSERT_TRUE(interp
                  .Execute("PRAGMA SPECIALIZE = ON;\n"
                           "QUERY Infront {ahead} [from_head(\"vase\")];")
                  .ok());
  EXPECT_GT(db.last_stats().specialized_branches, 0u);

  // Same contract as the other ON/OFF pragmas: only 0/1 are accepted.
  EXPECT_EQ(interp.Execute("PRAGMA SPECIALIZE = 2;").code(),
            StatusCode::kInvalidArgument);
}

TEST(SpecializeSemantics, ExplainAnalyzeReportsPruning) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kBoundAhead).ok());
  interp.ClearResults();
  ASSERT_TRUE(
      interp.Execute("EXPLAIN ANALYZE Infront {ahead} [from_head(\"vase\")];")
          .ok());
  ASSERT_EQ(interp.results().size(), 1u);
  const std::string& text = interp.results()[0].text;
  EXPECT_NE(text.find("specialized branch(es)"), std::string::npos) << text;
  EXPECT_NE(text.find("seed tuple(s) pruned"), std::string::npos) << text;
  EXPECT_EQ(text.find(" 0 seed tuple(s) pruned"), std::string::npos) << text;
}

TEST(SpecializeSemantics, QueryConjunctSeedAlsoPrunes) {
  // The same restriction expressed as a query conjunct instead of a
  // trailing selector. DetectSeededTc captures this shape first, so turn
  // capture rules off to drive it through the general specialized path.
  std::string script(kBoundAhead);
  script +=
      "\nQUERY {EACH v IN Infront {ahead}: v.head = \"lamp\"};\n";

  DatabaseOptions options;
  options.use_capture_rules = false;
  for (bool specialize : {false, true}) {
    options.specialize = specialize;
    Database db(options);
    Interpreter interp(&db);
    ASSERT_TRUE(interp.Execute(script).ok());
    ASSERT_EQ(interp.results().size(), 2u);
    // lamp reaches desk, rug, floor.
    EXPECT_EQ(interp.results()[1].relation.size(), 3u);
    if (specialize) {
      EXPECT_GT(db.last_stats().specialized_branches, 0u);
      EXPECT_GT(db.last_stats().seed_tuples_pruned, 0u);
    }
  }
}

/// A weighted reachability constructor (a predicate on the edge weight
/// keeps capture rules away), queried with its source bound: a specialized
/// semi-naive fixpoint over several rounds whose base binding is
/// magic-filtered in every round.
constexpr const char* kBoundWeightedReach = R"(
TYPE wedge = RELATION OF RECORD src, dst, w: INTEGER END;
TYPE pairrel = RELATION OF RECORD src, dst: INTEGER END;
VAR W: wedge;

CONSTRUCTOR wreach FOR Rel: wedge (): pairrel;
BEGIN <r.src, r.dst> OF EACH r IN Rel: r.w < 5,
      <f.src, b.dst> OF EACH f IN Rel, EACH b IN Rel {wreach}:
        f.dst = b.src AND f.w < 5
END wreach;

INSERT INTO W <1, 2, 1>, <2, 3, 2>, <3, 4, 1>, <4, 5, 7>, <5, 6, 1>;
INSERT INTO W <2, 7, 3>, <7, 8, 1>, <10, 11, 1>, <11, 12, 1>, <12, 13, 2>;

QUERY {EACH p IN W {wreach}: p.src = 1};
)";

TEST(SpecializeSemantics, WeightedReachStatsArePinned) {
  // Reusing a magic-filtered base binding across rounds must count exactly
  // the prunes and work of re-filtering it every round.
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kBoundWeightedReach).ok());
  ASSERT_EQ(interp.results().size(), 1u);
  // 1 reaches 2, 3, 4, 7, 8 (4 -> 5 weighs too much).
  EXPECT_EQ(interp.results()[0].relation.size(), 5u);
  const EvalStats& s = db.last_stats();
  EXPECT_EQ("iterations=" + std::to_string(s.iterations) +
                " considered=" + std::to_string(s.tuples_considered) +
                " inserted=" + std::to_string(s.tuples_inserted) +
                " outer=" + std::to_string(s.outer_tuples) +
                " index_builds=" + std::to_string(s.index_builds) +
                " index_probes=" + std::to_string(s.index_probes) +
                " specialized=" + std::to_string(s.specialized_branches) +
                " pruned=" + std::to_string(s.seed_tuples_pruned),
            "iterations=4 considered=17 inserted=17 outer=47 index_builds=4 "
            "index_probes=24 specialized=2 pruned=15");
}

}  // namespace
}  // namespace datacon
