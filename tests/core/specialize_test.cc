// ComputeMagicSets closes a specialization plan's seeds under its transfer
// edges, probing each hop relation through its own hash index. These tests
// pin the probed closure against the definition — a scan of the whole hop
// relation per relevant value — and check that the hop index is reused
// while the relation is unchanged and rebuilt once it changes.

#include "core/specialize.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ast/builder.h"
#include "storage/index.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction in tests

/// Resolves plain base ranges to relations owned by the test.
class PointerResolver : public RelationResolver {
 public:
  void Add(const std::string& name, const Relation* rel) {
    relations_[name] = rel;
  }
  Result<const Relation*> Resolve(const Range& range) const override {
    auto it = relations_.find(range.relation());
    if (it == relations_.end()) {
      return Status::NotFound("relation '" + range.relation() + "'");
    }
    return it->second;
  }

 private:
  std::map<std::string, const Relation*> relations_;
};

Relation Hops(std::initializer_list<std::pair<int, int>> pairs) {
  Relation r(Schema({{"src", ValueType::kInt}, {"dst", ValueType::kInt}}));
  for (const auto& [a, b] : pairs) {
    EXPECT_TRUE(r.Insert(Tuple({Value::Int(a), Value::Int(b)})).ok());
  }
  return r;
}

SpecializationPlan::Edge HopEdge(int from_node, int to_node, int from_field,
                                 int to_field) {
  SpecializationPlan::Edge edge;
  edge.from_node = from_node;
  edge.to_node = to_node;
  edge.via_base = Rel("H");
  edge.from_field = from_field;
  edge.to_field = to_field;
  return edge;
}

/// Nodes 0 and 1 are active, node 2 is not. Node 0 is seeded with 1 and 9
/// (9 matches no hop tuple) and closes backwards over H (dst -> src); node
/// 1 takes node 0's values forwards over H and closes forwards; node 1's
/// values also flow verbatim to the inactive node 2, which must stay
/// without a set.
SpecializationPlan TwoNodePlan() {
  SpecializationPlan plan;
  plan.nodes.resize(3);
  plan.nodes[0].active = true;
  plan.nodes[1].active = true;
  for (int64_t v : {1, 9}) {
    SpecializationPlan::Seed& seed = plan.seeds.emplace_back();
    seed.node = 0;
    seed.literal.emplace(Value::Int(v));
  }
  plan.edges.push_back(HopEdge(0, 0, 1, 0));
  plan.edges.push_back(HopEdge(0, 1, 0, 1));
  plan.edges.push_back(HopEdge(1, 1, 0, 1));
  SpecializationPlan::Edge verbatim;
  verbatim.from_node = 1;
  verbatim.to_node = 2;
  plan.edges.push_back(std::move(verbatim));
  return plan;
}

using ValueSets = std::map<int, std::set<int64_t>>;

/// The closure by its definition: every relevant value scans the whole hop
/// relation of every edge leaving its node.
ValueSets ScanClosure(const SpecializationPlan& plan, const Relation& hops) {
  ValueSets sets;
  std::vector<std::pair<int, int64_t>> worklist;
  auto add = [&](int node, int64_t v) {
    if (!plan.nodes[static_cast<size_t>(node)].active) return;
    if (sets[node].insert(v).second) worklist.emplace_back(node, v);
  };
  for (const SpecializationPlan::Seed& seed : plan.seeds) {
    add(seed.node, seed.literal->AsInt());
  }
  while (!worklist.empty()) {
    auto [node, v] = worklist.back();
    worklist.pop_back();
    for (const SpecializationPlan::Edge& edge : plan.edges) {
      if (edge.from_node != node) continue;
      if (edge.via_base == nullptr) {
        add(edge.to_node, v);
        continue;
      }
      for (const Tuple& t : hops.tuples()) {
        if (t.value(edge.from_field).AsInt() == v) {
          add(edge.to_node, t.value(edge.to_field).AsInt());
        }
      }
    }
  }
  return sets;
}

ValueSets Closure(const SpecializationPlan& plan,
                  const RelationResolver& resolver) {
  Result<MagicSets> magic = ComputeMagicSets(plan, resolver, Environment());
  EXPECT_TRUE(magic.ok()) << magic.status().ToString();
  ValueSets sets;
  if (!magic.ok()) return sets;
  for (const auto& [node, values] : magic.value().sets()) {
    std::set<int64_t>& out = sets[node];
    for (const Value& v : values) out.insert(v.AsInt());
  }
  return sets;
}

TEST(ComputeMagicSets, ProbedClosureMatchesScan) {
  // From-value 1 and 2 occur twice; 5 and the seed 9 match nothing.
  Relation h = Hops({{1, 2}, {1, 3}, {2, 4}, {2, 5}, {3, 4}, {4, 4},
                     {8, 1}, {6, 7}});
  PointerResolver resolver;
  resolver.Add("H", &h);
  SpecializationPlan plan = TwoNodePlan();

  ValueSets probed = Closure(plan, resolver);
  EXPECT_EQ(probed, ScanClosure(plan, h));
  EXPECT_EQ(probed, (ValueSets{{0, {1, 8, 9}}, {1, {1, 2, 3, 4, 5}}}));
  EXPECT_EQ(probed.count(2), 0u);
}

TEST(ComputeMagicSets, HopIndexPersistsUntilTheHopRelationChanges) {
  Relation h = Hops({{1, 2}, {2, 3}});
  PointerResolver resolver;
  resolver.Add("H", &h);
  SpecializationPlan plan = TwoNodePlan();

  ValueSets first = Closure(plan, resolver);
  const HashIndex* forward = &h.IndexOn({0});
  EXPECT_EQ(Closure(plan, resolver), first);
  EXPECT_EQ(&h.IndexOn({0}), forward);

  // 3 -> 6 extends node 1's closure; a stale index would miss it.
  ASSERT_TRUE(h.Insert(Tuple({Value::Int(3), Value::Int(6)})).ok());
  ValueSets grown = Closure(plan, resolver);
  EXPECT_EQ(grown, ScanClosure(plan, h));
  EXPECT_EQ(grown.at(1), (std::set<int64_t>{2, 3, 6}));

  // An erase frees the index; the rebuilt one must not see 2 -> 3.
  ASSERT_TRUE(h.Erase(Tuple({Value::Int(2), Value::Int(3)})));
  ValueSets shrunk = Closure(plan, resolver);
  EXPECT_EQ(shrunk, ScanClosure(plan, h));
  EXPECT_EQ(shrunk.at(1), (std::set<int64_t>{2}));
}

}  // namespace
}  // namespace datacon
