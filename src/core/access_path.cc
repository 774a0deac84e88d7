#include "core/access_path.h"

#include "ast/builder.h"
#include "ast/printer.h"
#include "ra/analysis.h"
#include "storage/index.h"

namespace datacon {

namespace {

/// True when `term` mentions the parameter `param`.
bool TermMentionsParam(const Term& term, const std::string& param) {
  switch (term.kind()) {
    case Term::Kind::kFieldRef:
    case Term::Kind::kLiteral:
      return false;
    case Term::Kind::kParamRef:
      return static_cast<const ParamRefTerm&>(term).name() == param;
    case Term::Kind::kArith: {
      const auto& t = static_cast<const ArithTerm&>(term);
      return TermMentionsParam(*t.lhs(), param) ||
             TermMentionsParam(*t.rhs(), param);
    }
  }
  return false;
}

bool PredMentionsParam(const Pred& pred, const std::string& param) {
  switch (pred.kind()) {
    case Pred::Kind::kBool:
      return false;
    case Pred::Kind::kCompare: {
      const auto& p = static_cast<const ComparePred&>(pred);
      return TermMentionsParam(*p.lhs(), param) ||
             TermMentionsParam(*p.rhs(), param);
    }
    case Pred::Kind::kAnd:
      for (const PredPtr& op : static_cast<const AndPred&>(pred).operands()) {
        if (PredMentionsParam(*op, param)) return true;
      }
      return false;
    case Pred::Kind::kOr:
      for (const PredPtr& op : static_cast<const OrPred&>(pred).operands()) {
        if (PredMentionsParam(*op, param)) return true;
      }
      return false;
    case Pred::Kind::kNot:
      return PredMentionsParam(
          *static_cast<const NotPred&>(pred).operand(), param);
    case Pred::Kind::kQuant: {
      const auto& p = static_cast<const QuantPred&>(pred);
      for (const RangeApp& app : p.range()->apps()) {
        for (const TermPtr& t : app.term_args) {
          if (TermMentionsParam(*t, param)) return true;
        }
      }
      return PredMentionsParam(*p.body(), param);
    }
    case Pred::Kind::kIn: {
      const auto& p = static_cast<const InPred&>(pred);
      for (const TermPtr& t : p.tuple()) {
        if (TermMentionsParam(*t, param)) return true;
      }
      return false;
    }
  }
  return false;
}

}  // namespace

Result<PhysicalAccessPath> PhysicalAccessPath::Build(Database* db,
                                                     CalcExprPtr form,
                                                     const std::string& param) {
  if (form->branches().size() != 1) {
    return Status::Unsupported(
        "a physical access path requires a single-branch query form");
  }
  const Branch& branch = *form->branches()[0];

  // Locate the `<var>.<field> = <param>` conjunct.
  std::vector<PredPtr> conjuncts = FlattenConjuncts(branch.pred());
  std::optional<size_t> bound_index;
  const FieldRefTerm* bound_field = nullptr;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (conjuncts[i]->kind() != Pred::Kind::kCompare) continue;
    const auto& cmp = static_cast<const ComparePred&>(*conjuncts[i]);
    if (cmp.op() != CompareOp::kEq) continue;
    for (bool flip : {false, true}) {
      const TermPtr& lhs = flip ? cmp.rhs() : cmp.lhs();
      const TermPtr& rhs = flip ? cmp.lhs() : cmp.rhs();
      if (lhs->kind() != Term::Kind::kFieldRef ||
          rhs->kind() != Term::Kind::kParamRef ||
          static_cast<const ParamRefTerm&>(*rhs).name() != param) {
        continue;
      }
      bound_index = i;
      bound_field = &static_cast<const FieldRefTerm&>(*lhs);
      break;
    }
    if (bound_index.has_value()) break;
  }
  if (!bound_index.has_value()) {
    return Status::Unsupported("query form does not bind parameter '" + param +
                               "' to an attribute with an equality");
  }

  // Strip the conjunct; the rest of the form must no longer mention the
  // parameter (it becomes a free variable of the materialization).
  std::vector<PredPtr> rest;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (i != *bound_index) rest.push_back(conjuncts[i]);
  }
  PredPtr stripped_pred = ConjunctsToPred(std::move(rest));
  if (PredMentionsParam(*stripped_pred, param)) {
    return Status::Unsupported(
        "parameter '" + param +
        "' occurs outside its binding equality; cannot materialize");
  }

  // The probe column: identity branches expose the range's fields; target
  // branches expose the target positions.
  BranchPtr stripped = std::make_shared<Branch>(
      branch.bindings(), stripped_pred, branch.targets());
  CalcExprPtr unrestricted =
      std::make_shared<CalcExpr>(std::vector<BranchPtr>{stripped});

  DATACON_ASSIGN_OR_RETURN(Relation materialized,
                           db->EvalQuery(unrestricted));

  int probe_column = -1;
  if (branch.targets().has_value()) {
    for (size_t i = 0; i < branch.targets()->size(); ++i) {
      const TermPtr& t = (*branch.targets())[i];
      if (t->kind() != Term::Kind::kFieldRef) continue;
      const auto& f = static_cast<const FieldRefTerm&>(*t);
      if (f.var() == bound_field->var() && f.field() == bound_field->field()) {
        probe_column = static_cast<int>(i);
        break;
      }
    }
  } else {
    std::optional<int> idx =
        materialized.schema().FieldIndex(bound_field->field());
    if (idx.has_value()) probe_column = *idx;
  }
  if (probe_column < 0) {
    return Status::Unsupported(
        "the bound attribute '" + ToString(*bound_field) +
        "' does not appear in the query result; cannot partition on it");
  }

  PhysicalAccessPath path;
  path.schema_ = materialized.schema();
  path.materialized_ =
      std::make_shared<Relation>(std::move(materialized));
  path.probe_column_ = probe_column;
  path.materialized_->IndexOn({probe_column});
  return path;
}

Result<Relation> PhysicalAccessPath::Execute(const Value& value) const {
  Relation out(schema_);
  for (const Tuple* t :
       materialized_->IndexOn({probe_column_}).Probe(Tuple({value}))) {
    DATACON_ASSIGN_OR_RETURN(bool grew, out.Insert(*t));
    (void)grew;
  }
  return out;
}

}  // namespace datacon
