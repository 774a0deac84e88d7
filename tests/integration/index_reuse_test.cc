// Hash indexes belong to the relation version they index
// (Relation::IndexOn): an index built by one query is reused by the next
// only while its relation is unchanged. Each test here runs a query, writes
// to a relation that query probed through an index, and repeats the query:
// the repeat must see the write on every index-using path — the magic-set
// closure, an inlined join, and a hash-joinable constraint check.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/database.h"
#include "lang/interpreter.h"

namespace datacon {
namespace {

/// The sorted tuples of the last query result.
std::string LastResult(const Interpreter& interp) {
  EXPECT_FALSE(interp.results().empty());
  if (interp.results().empty()) return "";
  return interp.results().back().relation.ToString();
}

std::string StatsDigest(const EvalStats& s) {
  return "iterations=" + std::to_string(s.iterations) +
         " considered=" + std::to_string(s.tuples_considered) +
         " inserted=" + std::to_string(s.tuples_inserted) +
         " outer=" + std::to_string(s.outer_tuples) +
         " index_builds=" + std::to_string(s.index_builds) +
         " index_probes=" + std::to_string(s.index_probes) +
         " specialized=" + std::to_string(s.specialized_branches) +
         " pruned=" + std::to_string(s.seed_tuples_pruned);
}

/// Weighted reachability queried with its source bound: the specialized
/// fixpoint whose magic closure hops over W on `src`.
constexpr const char* kWeightedReach = R"(
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
)";

constexpr const char* kReachFromOne =
    "QUERY {EACH p IN W {wreach}: p.src = 1};";

TEST(IndexReuse, MagicClosureSeesHopInsert) {
  for (bool cache : {false, true}) {
    SCOPED_TRACE(cache ? "cache on" : "cache off");
    DatabaseOptions options;
    options.cache = cache;
    Database db(options);
    Interpreter interp(&db);
    ASSERT_TRUE(interp.Execute(kWeightedReach).ok());
    ASSERT_TRUE(interp.Execute(kReachFromOne).ok());
    EXPECT_EQ(LastResult(interp), "{<1, 2>, <1, 3>, <1, 4>, <1, 7>, <1, 8>}");
    EXPECT_GT(db.last_stats().specialized_branches, 0u);
    // 20 becomes relevant only through the new hop <8, 20>: a closure
    // probing the index built before the insert would prune <20, 21>.
    ASSERT_TRUE(interp.Execute("INSERT INTO W <8, 20, 1>, <20, 21, 1>;").ok());
    ASSERT_TRUE(interp.Execute(kReachFromOne).ok());
    EXPECT_EQ(LastResult(interp),
              "{<1, 2>, <1, 3>, <1, 4>, <1, 7>, <1, 8>, <1, 20>, <1, 21>}");
  }
}

TEST(IndexReuse, RepeatedSpecializedQueryReportsIdenticalStats) {
  // The second run reuses the indexes the first one built; index_builds
  // counts probed join levels, so it repeats too.
  DatabaseOptions options;
  options.cache = false;
  Database db(options);
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kWeightedReach).ok());
  ASSERT_TRUE(interp.Execute(kReachFromOne).ok());
  const std::string first = StatsDigest(db.last_stats());
  ASSERT_TRUE(interp.Execute(kReachFromOne).ok());
  EXPECT_EQ(StatsDigest(db.last_stats()), first);
  EXPECT_EQ(first,
            "iterations=4 considered=17 inserted=17 outer=47 index_builds=4 "
            "index_probes=24 specialized=2 pruned=15");
}

TEST(IndexReuse, InlinedJoinSeesInsertAndErase) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp
                  .Execute(R"(
TYPE edge = RELATION OF RECORD src, dst: INTEGER END;
VAR E: edge;
CONSTRUCTOR two_hop FOR Rel: edge (): edge;
BEGIN <a.src, b.dst> OF EACH a IN Rel, EACH b IN Rel: a.dst = b.src
END two_hop;
CONSTRAINT no_two_cycle DENY EACH p IN E, EACH q IN E:
  p.dst = q.src AND q.dst = p.src;
INSERT INTO E <1, 2>, <2, 3>;
)")
                  .ok());
  const std::string query = "QUERY {EACH t IN E {two_hop}: t.src = 1};";
  ASSERT_TRUE(interp.Execute(query).ok());
  EXPECT_EQ(LastResult(interp), "{<1, 3>}");

  ASSERT_TRUE(interp.Execute("INSERT INTO E <2, 4>;").ok());
  ASSERT_TRUE(interp.Execute(query).ok());
  EXPECT_EQ(LastResult(interp), "{<1, 3>, <1, 4>}");

  // <2, 2> is a two-cycle with itself: the check probes E on src with the
  // tuple stored, then the rejection erases it. An index kept across the
  // erase would hand the join <2, 2> and derive <1, 2>.
  EXPECT_EQ(interp.Execute("INSERT INTO E <2, 2>;").code(),
            StatusCode::kConstraintViolation);
  ASSERT_TRUE(interp.Execute(query).ok());
  EXPECT_EQ(LastResult(interp), "{<1, 3>, <1, 4>}");
}

TEST(IndexReuse, JoinDenialSeesInsertIntoProbedRelation) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp
                  .Execute(R"(
TYPE noderel = RELATION OF RECORD id, grp: INTEGER END;
TYPE edgerel = RELATION OF RECORD src, dst: INTEGER END;
VAR Node: noderel;
VAR E: edgerel;
INSERT INTO Node <1, 1>, <2, 2>;
CONSTRAINT upward DENY EACH e IN E, EACH a IN Node, EACH b IN Node:
  e.src = a.id AND e.dst = b.id AND b.grp < a.grp;
)")
                  .ok());
  // The check of each edge insert probes Node on id.
  ASSERT_TRUE(interp.Execute("INSERT INTO E <1, 2>;").ok());
  ASSERT_TRUE(interp.Execute("INSERT INTO Node <3, 0>;").ok());
  // Node 3 sits below node 2; a probe missing it would admit the edge.
  EXPECT_EQ(interp.Execute("INSERT INTO E <2, 3>;").code(),
            StatusCode::kConstraintViolation);
  ASSERT_TRUE(interp.Execute("INSERT INTO E <3, 1>;").ok());
  ASSERT_TRUE(interp.Execute("QUERY E;").ok());
  EXPECT_EQ(LastResult(interp), "{<1, 2>, <3, 1>}");
}

}  // namespace
}  // namespace datacon
