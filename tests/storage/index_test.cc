#include "storage/index.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace datacon {
namespace {

Relation EdgeRelation(std::initializer_list<std::pair<int, int>> edges) {
  Relation r(Schema({{"src", ValueType::kInt}, {"dst", ValueType::kInt}}));
  for (const auto& [a, b] : edges) {
    EXPECT_TRUE(r.Insert(Tuple({Value::Int(a), Value::Int(b)})).ok());
  }
  return r;
}

TEST(HashIndex, ProbeSingleColumn) {
  Relation r = EdgeRelation({{1, 2}, {1, 3}, {2, 3}});
  HashIndex index(r, {0});
  EXPECT_EQ(index.key_count(), 2u);
  EXPECT_EQ(index.Probe(Tuple({Value::Int(1)})).size(), 2u);
  EXPECT_EQ(index.Probe(Tuple({Value::Int(2)})).size(), 1u);
  EXPECT_TRUE(index.Probe(Tuple({Value::Int(9)})).empty());
}

TEST(HashIndex, ProbeSecondColumn) {
  Relation r = EdgeRelation({{1, 2}, {3, 2}, {4, 5}});
  HashIndex index(r, {1});
  EXPECT_EQ(index.Probe(Tuple({Value::Int(2)})).size(), 2u);
  EXPECT_EQ(index.Probe(Tuple({Value::Int(5)})).size(), 1u);
}

TEST(HashIndex, CompositeKey) {
  Relation r = EdgeRelation({{1, 2}, {1, 3}});
  HashIndex index(r, {0, 1});
  EXPECT_EQ(index.key_count(), 2u);
  EXPECT_EQ(index.Probe(Tuple({Value::Int(1), Value::Int(2)})).size(), 1u);
  EXPECT_TRUE(index.Probe(Tuple({Value::Int(1), Value::Int(4)})).empty());
}

TEST(HashIndex, PointersReferenceStoredTuples) {
  Relation r = EdgeRelation({{7, 8}});
  HashIndex index(r, {0});
  const std::vector<const Tuple*>& hits = index.Probe(Tuple({Value::Int(7)}));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->value(1).AsInt(), 8);
  EXPECT_TRUE(r.Contains(*hits[0]));
}

TEST(HashIndex, EmptyRelation) {
  Relation r = EdgeRelation({});
  HashIndex index(r, {0});
  EXPECT_EQ(index.key_count(), 0u);
  EXPECT_TRUE(index.Probe(Tuple({Value::Int(0)})).empty());
}

TEST(HashIndex, ColumnsAccessor) {
  Relation r = EdgeRelation({{1, 2}});
  HashIndex index(r, {1, 0});
  EXPECT_EQ(index.columns(), (std::vector<int>{1, 0}));
}

TEST(HashIndex, InSyncTracksRelationSize) {
  Relation r = EdgeRelation({{1, 2}, {2, 3}});
  HashIndex index(r, {0});
  EXPECT_EQ(index.size_at_build(), 2u);
  EXPECT_TRUE(index.InSync());

  // Growing the relation after the build makes the index stale: a probe
  // silently misses the new tuple, which is exactly the bug the InSync
  // guard exists to catch.
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(9)})).ok());
  EXPECT_FALSE(index.InSync());
  EXPECT_EQ(index.Probe(Tuple({Value::Int(1)})).size(), 1u);
}

TEST(HashIndex, InSyncAfterDuplicateInsert) {
  // Set semantics: re-inserting an existing tuple does not grow the
  // relation, so the index stays in sync.
  Relation r = EdgeRelation({{1, 2}});
  HashIndex index(r, {0});
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  EXPECT_TRUE(index.InSync());
}

TEST(HashIndex, EqualSizeChurnIsOutOfSync) {
  // Regression: the old InSync() compared sizes only, so an erase paired
  // with an insert left a stale index looking "in sync" — probes on the
  // erased tuple returned a dangling hit and the new tuple was invisible.
  // Generations catch the churn even though the size is back to 2.
  Relation r = EdgeRelation({{1, 2}, {2, 3}});
  HashIndex index(r, {0});
  ASSERT_TRUE(r.Erase(Tuple({Value::Int(2), Value::Int(3)})));
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(5), Value::Int(6)})).ok());
  ASSERT_EQ(r.size(), index.size_at_build());
  EXPECT_FALSE(index.InSync());
}

TEST(HashIndex, EraseAloneIsOutOfSync) {
  Relation r = EdgeRelation({{1, 2}, {2, 3}});
  HashIndex index(r, {0});
  ASSERT_TRUE(r.Erase(Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_FALSE(index.InSync());
}

TEST(HashIndex, ClearIsOutOfSync) {
  Relation r = EdgeRelation({{1, 2}});
  HashIndex index(r, {0});
  r.Clear();
  EXPECT_FALSE(index.InSync());
}

// --- Relation-owned indexes (Relation::IndexOn) ---------------------------

/// True when every tuple `index` returns for `key` is stored in `rel` itself
/// (pointer identity, not value equality): a probe never hands out another
/// relation's tuples.
bool ProbesInto(const Relation& rel, const HashIndex& index, int key) {
  for (const Tuple* t : index.Probe(Tuple({Value::Int(key)}))) {
    auto it = rel.tuples().find(*t);
    if (it == rel.tuples().end() || &*it != t) return false;
  }
  return true;
}

size_t ProbeCount(const HashIndex& index, int key) {
  return index.Probe(Tuple({Value::Int(key)})).size();
}

TEST(RelationIndexOn, SameIndexWhileUnchanged) {
  Relation r = EdgeRelation({{1, 2}, {1, 3}, {2, 3}});
  const HashIndex* first = &r.IndexOn({0});
  EXPECT_EQ(&r.IndexOn({0}), first);
  // A no-op insert does not change the relation version.
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  EXPECT_EQ(&r.IndexOn({0}), first);
  // Each column list has its own index.
  const HashIndex* second = &r.IndexOn({1});
  EXPECT_NE(second, first);
  EXPECT_EQ(second->columns(), std::vector<int>({1}));
  EXPECT_EQ(&r.IndexOn({0}), first);
  EXPECT_EQ(&r.IndexOn({1}), second);
  EXPECT_EQ(ProbeCount(*first, 1), 2u);
}

TEST(RelationIndexOn, RebuildsAfterInsert) {
  Relation r = EdgeRelation({{1, 2}});
  EXPECT_EQ(ProbeCount(r.IndexOn({0}), 1), 1u);
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(5)})).ok());
  const HashIndex& rebuilt = r.IndexOn({0});
  EXPECT_TRUE(rebuilt.InSync());
  EXPECT_EQ(rebuilt.size_at_build(), 2u);
  EXPECT_EQ(ProbeCount(rebuilt, 1), 2u);
}

TEST(RelationIndexOn, RebuildsAfterErase) {
  Relation r = EdgeRelation({{1, 2}, {1, 3}});
  EXPECT_EQ(ProbeCount(r.IndexOn({0}), 1), 2u);
  ASSERT_TRUE(r.Erase(Tuple({Value::Int(1), Value::Int(2)})));
  const HashIndex& rebuilt = r.IndexOn({0});
  EXPECT_TRUE(rebuilt.InSync());
  EXPECT_EQ(ProbeCount(rebuilt, 1), 1u);
  EXPECT_TRUE(ProbesInto(r, rebuilt, 1));
}

TEST(RelationIndexOn, RebuildsAfterClear) {
  Relation r = EdgeRelation({{1, 2}});
  EXPECT_EQ(ProbeCount(r.IndexOn({0}), 1), 1u);
  r.Clear();
  EXPECT_EQ(ProbeCount(r.IndexOn({0}), 1), 0u);
  ASSERT_TRUE(r.Insert(Tuple({Value::Int(1), Value::Int(4)})).ok());
  EXPECT_EQ(ProbeCount(r.IndexOn({0}), 1), 1u);
}

TEST(RelationIndexOn, RebuildsAfterCopyAssignment) {
  Relation r = EdgeRelation({{1, 2}});
  Relation other = EdgeRelation({{1, 7}, {1, 8}, {3, 9}});
  EXPECT_EQ(ProbeCount(r.IndexOn({0}), 1), 1u);
  EXPECT_EQ(ProbeCount(other.IndexOn({0}), 1), 2u);
  r = other;
  const HashIndex& index = r.IndexOn({0});
  EXPECT_TRUE(index.InSync());
  EXPECT_EQ(ProbeCount(index, 1), 2u);
  EXPECT_TRUE(ProbesInto(r, index, 1));
  // The source keeps its own index.
  EXPECT_TRUE(ProbesInto(other, other.IndexOn({0}), 1));
}

TEST(RelationIndexOn, RebuildsAfterMoveAssignment) {
  Relation r = EdgeRelation({{1, 2}});
  Relation other = EdgeRelation({{1, 7}, {1, 8}});
  EXPECT_EQ(ProbeCount(r.IndexOn({0}), 1), 1u);
  EXPECT_EQ(ProbeCount(other.IndexOn({0}), 1), 2u);
  r = std::move(other);
  const HashIndex& index = r.IndexOn({0});
  EXPECT_TRUE(index.InSync());
  EXPECT_EQ(ProbeCount(index, 1), 2u);
  EXPECT_TRUE(ProbesInto(r, index, 1));
  // The moved-from relation dropped its index with its tuples.
  EXPECT_TRUE(ProbesInto(other, other.IndexOn({0}), 1));
}

TEST(RelationIndexOn, CopyStartsWithoutTheSourceIndex) {
  auto source = std::make_unique<Relation>(EdgeRelation({{1, 2}, {1, 3}}));
  EXPECT_EQ(ProbeCount(source->IndexOn({0}), 1), 2u);
  Relation copy = *source;
  source.reset();  // a carried-over index would now dangle
  const HashIndex& index = copy.IndexOn({0});
  EXPECT_TRUE(index.InSync());
  EXPECT_EQ(ProbeCount(index, 1), 2u);
  EXPECT_TRUE(ProbesInto(copy, index, 1));
}

TEST(RelationIndexOn, MoveStartsWithoutTheSourceIndex) {
  Relation source = EdgeRelation({{1, 2}, {1, 3}});
  EXPECT_EQ(ProbeCount(source.IndexOn({0}), 1), 2u);
  Relation moved = std::move(source);
  const HashIndex& index = moved.IndexOn({0});
  EXPECT_TRUE(index.InSync());
  EXPECT_EQ(ProbeCount(index, 1), 2u);
  EXPECT_TRUE(ProbesInto(moved, index, 1));
  // The moved-from source must not answer from an index over the tuples
  // that now belong to `moved`.
  EXPECT_EQ(ProbeCount(source.IndexOn({0}), 1), source.size());
}

}  // namespace
}  // namespace datacon
