#include "core/specialize.h"

#include <utility>

#include "analysis/adorn.h"
#include "storage/index.h"

namespace datacon {

bool SpecializationPlan::any() const {
  for (const NodePlan& node : nodes) {
    if (node.active) return true;
  }
  return false;
}

size_t SpecializationPlan::specialized_branches() const {
  size_t count = 0;
  for (const NodePlan& node : nodes) {
    if (!node.active) continue;
    for (const std::vector<BindingFilter>& filters : node.branch_filters) {
      if (!filters.empty()) ++count;
    }
  }
  return count;
}

Result<std::optional<SpecializationPlan>> BuildSpecializationPlan(
    const AdornmentAnalysis& adornment, const ApplicationGraph& graph) {
  if (!adornment.any_specializable) {
    return std::optional<SpecializationPlan>();
  }
  if (adornment.nodes.size() != graph.nodes().size()) {
    return Status::Internal(
        "adornment analysis does not match the application graph");
  }
  SpecializationPlan plan;
  plan.nodes.resize(adornment.nodes.size());
  auto is_active = [&](int node) {
    return node >= 0 && static_cast<size_t>(node) < adornment.nodes.size() &&
           adornment.nodes[static_cast<size_t>(node)].specializable;
  };
  for (size_t t = 0; t < adornment.nodes.size(); ++t) {
    const AdornNode& adorned = adornment.nodes[t];
    SpecializationPlan::NodePlan& node_plan = plan.nodes[t];
    if (!adorned.specializable) continue;
    node_plan.active = true;
    node_plan.bound_attr = adorned.bound_attr;
    node_plan.branch_filters.resize(adorned.branches.size());
    for (size_t bi = 0; bi < adorned.branches.size(); ++bi) {
      const AdornBranch& branch = adorned.branches[bi];
      for (const AdornBranch::Filter& filter : branch.filters) {
        if (!is_active(filter.magic_node)) continue;
        node_plan.branch_filters[bi].push_back(
            {filter.binding, filter.field, filter.magic_node});
      }
      for (const AdornBranch::Transfer& step : branch.transfers) {
        if (!is_active(step.target_node)) continue;
        SpecializationPlan::Edge edge;
        edge.from_node = static_cast<int>(t);
        edge.to_node = step.target_node;
        edge.via_base = step.via_base;
        edge.from_field = step.from_field;
        edge.to_field = step.to_field;
        plan.edges.push_back(std::move(edge));
      }
    }
    for (const AdornSeed& seed : adorned.seeds) {
      SpecializationPlan::Seed s;
      s.node = static_cast<int>(t);
      s.literal = seed.literal;
      s.param = seed.param;
      plan.seeds.push_back(std::move(s));
    }
  }
  if (!plan.any()) return std::optional<SpecializationPlan>();
  return std::make_optional(std::move(plan));
}

size_t MagicSets::TotalValues() const {
  size_t total = 0;
  for (const auto& [node, values] : sets_) total += values.size();
  return total;
}

Result<MagicSets> ComputeMagicSets(const SpecializationPlan& plan,
                                   const RelationResolver& resolver,
                                   const Environment& params) {
  MagicSets magic;
  for (size_t t = 0; t < plan.nodes.size(); ++t) {
    if (plan.nodes[t].active) magic.sets()[static_cast<int>(t)];
  }

  std::vector<std::pair<int, Value>> worklist;
  auto add_value = [&](int node, const Value& value) {
    auto it = magic.sets().find(node);
    if (it == magic.sets().end()) return;
    if (it->second.insert(value).second) worklist.emplace_back(node, value);
  };

  for (const SpecializationPlan::Seed& seed : plan.seeds) {
    if (seed.literal.has_value()) {
      add_value(seed.node, *seed.literal);
    } else if (seed.param.has_value()) {
      const Value* value = params.LookupParam(*seed.param);
      if (value == nullptr) {
        return Status::InvalidArgument("specialization seed parameter '" +
                                       *seed.param + "' is not bound");
      }
      add_value(seed.node, *value);
    }
  }

  // Resolve every hop base once; the ranges are constructor-free, so they
  // resolve against stored relations before any fixpoint runs. Each hop
  // probes its base's own index on the from-field, which persists with the
  // relation, so a catalog hop relation is indexed once until it changes.
  std::vector<const HashIndex*> hops(plan.edges.size(), nullptr);
  for (size_t e = 0; e < plan.edges.size(); ++e) {
    if (plan.edges[e].via_base == nullptr) continue;
    DATACON_ASSIGN_OR_RETURN(const Relation* base,
                             resolver.Resolve(*plan.edges[e].via_base));
    hops[e] = &base->IndexOn({plan.edges[e].from_field});
  }

  while (!worklist.empty()) {
    auto [node, value] = worklist.back();
    worklist.pop_back();
    for (size_t e = 0; e < plan.edges.size(); ++e) {
      const SpecializationPlan::Edge& edge = plan.edges[e];
      if (edge.from_node != node) continue;
      if (hops[e] == nullptr) {
        add_value(edge.to_node, value);
        continue;
      }
      for (const Tuple* t : hops[e]->Probe(Tuple({value}))) {
        add_value(edge.to_node, t->value(edge.to_field));
      }
    }
  }
  return magic;
}

}  // namespace datacon
