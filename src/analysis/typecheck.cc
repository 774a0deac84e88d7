#include "analysis/typecheck.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "ast/pred.h"
#include "ast/printer.h"
#include "ast/range.h"
#include "ast/term.h"
#include "core/capture.h"
#include "graph/digraph.h"
#include "graph/scc.h"
#include "types/schema.h"

namespace datacon {

namespace {

/// " (at L:C)" when the span is known, empty otherwise — used to name the
/// *secondary* span of a two-span finding inside the message (the primary
/// span is the diagnostic's own loc).
std::string At(const SourceLoc& loc) {
  return loc.valid() ? " (at " + loc.ToString() + ")" : "";
}

std::string Describe(const InferredType& cell) {
  std::string out(ValueTypeName(cell.type));
  if (!cell.origin.empty()) out += " from " + cell.origin;
  return out;
}

/// A relation-valued inference row: attribute names plus one cell each.
struct Row {
  std::vector<std::string> names;
  std::vector<InferredType> cells;

  std::optional<size_t> IndexOf(const std::string& name) const {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return i;
    }
    return std::nullopt;
  }
};

Row KnownRow(const Schema& schema, SourceLoc loc, const std::string& origin) {
  Row row;
  for (const Field& f : schema.fields()) {
    row.names.push_back(f.name);
    row.cells.push_back(InferredType::Known(f.type, loc, origin));
  }
  return row;
}

/// Scope of one declaration walk: formal relation parameters, scalar
/// parameters, and the rows of bound tuple variables.
struct Scope {
  std::map<std::string, std::string> relation_formals;
  std::map<std::string, ValueType> scalar_params;
  std::map<std::string, Row> vars;
};

/// Joins `contrib` into `cell` per the lattice (unknown ⊑ type ⊑ conflict).
/// Conflicted contributions join as unknown — the conflict is reported at
/// its own source, not cascaded. Returns true when `cell` changed.
bool JoinInto(InferredType* cell, const InferredType& contrib) {
  if (contrib.state != InferredType::State::kKnown) return false;
  switch (cell->state) {
    case InferredType::State::kUnknown:
      *cell = contrib;
      return true;
    case InferredType::State::kKnown:
      if (cell->type == contrib.type) return false;
      cell->state = InferredType::State::kConflict;
      cell->other_type = contrib.type;
      cell->other_loc = contrib.loc;
      cell->other_origin = contrib.origin;
      return true;
    case InferredType::State::kConflict:
      return false;
  }
  return false;
}

/// The inference engine: fixpoint over one constructor group's cells, then
/// a reporting walk over every construct.
class Inferencer {
 public:
  explicit Inferencer(const Catalog& catalog) : catalog_(catalog) {}

  void AddGroup(const std::vector<ConstructorDeclPtr>& group) {
    for (const ConstructorDeclPtr& decl : group) {
      if (decl == nullptr) continue;
      group_.push_back(decl.get());
      auto result = catalog_.LookupRelationType(decl->result_type_name());
      Row row;
      if (result.ok()) {
        // Arity and names come from the declared result type; the cell
        // types are inferred from scratch (never seeded from it).
        for (const Field& f : result.value()->fields()) {
          row.names.push_back(f.name);
          row.cells.push_back(InferredType::Unknown());
        }
      }
      cells_.emplace(decl->name(), std::move(row));
    }
  }

  /// Phase 1: propagate contributions to a fixpoint, one SCC of the
  /// constructor reference graph at a time, dependencies first.
  void Run() {
    Digraph graph(static_cast<int>(group_.size()));
    std::map<std::string, int> node_of;
    for (size_t i = 0; i < group_.size(); ++i) {
      node_of.emplace(group_[i]->name(), static_cast<int>(i));
    }
    for (size_t i = 0; i < group_.size(); ++i) {
      for (const BranchPtr& branch : group_[i]->body()->branches()) {
        for (const Binding& b : branch->bindings()) {
          AddRangeEdges(static_cast<int>(i), *b.range, node_of, &graph);
        }
      }
    }
    SccDecomposition scc = ComputeScc(graph);
    for (int comp : scc.topological_order) {
      bool changed = true;
      while (changed) {
        changed = false;
        for (int node : scc.components[static_cast<size_t>(comp)]) {
          changed |= SeedDecl(*group_[static_cast<size_t>(node)]);
        }
      }
    }
  }

  /// Phase 2: compare the fixpoint against the declarations and walk every
  /// predicate, emitting diagnostics.
  void Check() {
    for (const ConstructorDecl* decl : group_) CheckDecl(*decl);
  }

  void CheckSelector(const SelectorDecl& decl) {
    Scope scope;
    scope.relation_formals.emplace(decl.base().name, decl.base().type_name);
    for (const FormalScalar& p : decl.params()) {
      scope.scalar_params.emplace(p.name, p.type);
    }
    auto base = catalog_.LookupRelationType(decl.base().type_name);
    if (base.ok()) {
      scope.vars.emplace(decl.var(), KnownRow(*base.value(), decl.loc(),
                                              "base relation '" +
                                                  decl.base().name + "'"));
    }
    CheckPredDiags(*decl.pred(), &scope, decl.loc());
  }

  /// Infers the query's result cells (joined across branches, E130 on
  /// cross-branch conflicts), checks every predicate, and reports W242 when
  /// branches disagree on a result field name.
  void CheckQuery(const CalcExpr& expr,
                  const std::map<std::string, ValueType>& placeholders) {
    std::vector<InferredType> cells;
    std::vector<std::string> names;  // first branch's candidate names
    bool names_clash = false;
    for (size_t bi = 0; bi < expr.branches().size(); ++bi) {
      const Branch& branch = *expr.branches()[bi];
      Scope scope;
      scope.scalar_params = placeholders;
      if (!BindBranch(branch, &scope)) continue;
      CheckBranchDiags(branch, &scope);

      std::vector<InferredType> contribs;
      std::vector<std::string> branch_names;
      if (branch.targets().has_value()) {
        for (const TermPtr& t : *branch.targets()) {
          contribs.push_back(TermCell(*t, scope, branch.loc()));
          branch_names.push_back(
              t->kind() == Term::Kind::kFieldRef
                  ? static_cast<const FieldRefTerm&>(*t).field()
                  : std::string());
        }
      } else if (branch.bindings().size() == 1) {
        const Row& row = scope.vars[branch.bindings()[0].var];
        contribs = RetagIdentity(row, branch);
        branch_names = row.names;
      } else {
        continue;
      }
      if (cells.empty() && bi == 0) {
        cells.assign(contribs.size(), InferredType::Unknown());
        names = branch_names;
      }
      for (size_t i = 0; i < contribs.size() && i < cells.size(); ++i) {
        JoinInto(&cells[i], contribs[i]);
        if (i < names.size() && !branch_names[i].empty() &&
            !names[i].empty() && branch_names[i] != names[i] &&
            !names_clash) {
          names_clash = true;
          Report(kDiagUnionNameMismatch,
                 "union branches disagree on the result field name at "
                 "position " +
                     std::to_string(i) + " ('" + names[i] + "' vs '" +
                     branch_names[i] + "'); the positional name 'c" +
                     std::to_string(i) + "' is used",
                 branch.loc());
        }
      }
    }
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].state == InferredType::State::kConflict) {
        Report(kDiagTypeConflict,
               "result position " + std::to_string(i) + " of the query: " +
                   Describe(cells[i]) + At(cells[i].loc) +
                   " conflicts with " + std::string(
                       ValueTypeName(cells[i].other_type)) +
                   " from " + cells[i].other_origin + At(cells[i].other_loc),
               cells[i].other_loc.valid() ? cells[i].other_loc
                                          : cells[i].loc);
      }
    }
  }

  const std::map<std::string, Row>& cells() const { return cells_; }
  std::vector<Diagnostic> TakeDiagnostics() { return std::move(diags_); }

 private:
  void Report(std::string_view code, std::string message, SourceLoc loc) {
    diags_.push_back(MakeDiagnostic(code, std::move(message), loc));
  }

  /// Records dependency edges from `from` to every in-group constructor
  /// referenced anywhere in `range` (including nested range arguments).
  void AddRangeEdges(int from, const Range& range,
                     const std::map<std::string, int>& node_of,
                     Digraph* graph) {
    for (const RangeApp& app : range.apps()) {
      if (app.kind == RangeApp::Kind::kConstructor) {
        auto it = node_of.find(app.name);
        if (it != node_of.end()) graph->AddEdge(from, it->second);
      }
      for (const RangePtr& arg : app.range_args) {
        AddRangeEdges(from, *arg, node_of, graph);
      }
    }
  }

  Scope ScopeFor(const ConstructorDecl& decl) {
    Scope scope;
    scope.relation_formals.emplace(decl.base().name, decl.base().type_name);
    for (const FormalRelation& r : decl.rel_params()) {
      scope.relation_formals.emplace(r.name, r.type_name);
    }
    for (const FormalScalar& p : decl.scalar_params()) {
      scope.scalar_params.emplace(p.name, p.type);
    }
    return scope;
  }

  /// The row `range` denotes under `scope`, or nullopt when a name does not
  /// resolve (level-1's E101 territory — inference just abstains).
  std::optional<Row> RangeRowOf(const Range& range, const Scope& scope,
                                SourceLoc loc) {
    std::optional<Row> row;
    auto formal = scope.relation_formals.find(range.relation());
    const std::string* type_name = nullptr;
    if (formal != scope.relation_formals.end()) {
      type_name = &formal->second;
    } else {
      auto named = catalog_.LookupRelationTypeName(range.relation());
      if (named.ok()) type_name = named.value();
    }
    if (type_name != nullptr) {
      auto schema = catalog_.LookupRelationType(*type_name);
      if (!schema.ok()) return std::nullopt;
      row = KnownRow(*schema.value(), loc,
                     "relation '" + range.relation() + "'");
    } else {
      return std::nullopt;
    }
    for (const RangeApp& app : range.apps()) {
      if (app.kind == RangeApp::Kind::kSelector) continue;  // schema-preserving
      // In-group constructors resolve to their in-progress cells; everything
      // else to its declared result schema.
      auto group_it = cells_.find(app.name);
      if (group_it != cells_.end()) {
        row = group_it->second;
        continue;
      }
      auto ctor = catalog_.LookupConstructor(app.name);
      if (!ctor.ok()) return std::nullopt;
      auto result = catalog_.LookupRelationType(ctor.value()->result_type_name());
      if (!result.ok()) return std::nullopt;
      row = KnownRow(*result.value(), loc,
                     "constructor '" + app.name + "'");
    }
    return row;
  }

  /// The inference cell of a scalar term under `scope`.
  InferredType TermCell(const Term& term, const Scope& scope, SourceLoc loc) {
    switch (term.kind()) {
      case Term::Kind::kLiteral: {
        const auto& t = static_cast<const LiteralTerm&>(term);
        return InferredType::Known(t.value().type(), loc,
                                   "literal " + t.value().ToString());
      }
      case Term::Kind::kParamRef: {
        const auto& t = static_cast<const ParamRefTerm&>(term);
        auto it = scope.scalar_params.find(t.name());
        if (it == scope.scalar_params.end()) return InferredType::Unknown();
        return InferredType::Known(it->second, loc,
                                   "parameter '" + t.name() + "'");
      }
      case Term::Kind::kFieldRef: {
        const auto& t = static_cast<const FieldRefTerm&>(term);
        auto var = scope.vars.find(t.var());
        if (var == scope.vars.end()) return InferredType::Unknown();
        std::optional<size_t> idx = var->second.IndexOf(t.field());
        if (!idx.has_value()) return InferredType::Unknown();
        const InferredType& cell = var->second.cells[*idx];
        if (cell.state != InferredType::State::kKnown) {
          return InferredType::Unknown();
        }
        return InferredType::Known(cell.type, loc,
                                   "'" + t.var() + "." + t.field() + "'");
      }
      case Term::Kind::kArith:
        // Arithmetic always denotes an integer; its operands are checked by
        // the phase-2 walk (E131).
        return InferredType::Known(ValueType::kInt, loc,
                                   "'" + ToString(term) + "'");
    }
    return InferredType::Unknown();
  }

  /// Binds every branch variable's row into `scope`. False when any range
  /// fails to resolve — the branch is skipped by inference.
  bool BindBranch(const Branch& branch, Scope* scope) {
    for (const Binding& b : branch.bindings()) {
      SourceLoc loc = b.loc.valid() ? b.loc : branch.loc();
      std::optional<Row> row = RangeRowOf(*b.range, *scope, loc);
      if (!row.has_value()) return false;
      scope->vars[b.var] = std::move(*row);
    }
    return true;
  }

  /// Identity contributions: the bound row's cells, retagged so conflict
  /// messages point at the identity branch rather than the row's source.
  std::vector<InferredType> RetagIdentity(const Row& row,
                                          const Branch& branch) {
    std::vector<InferredType> out;
    const Binding& b = branch.bindings()[0];
    SourceLoc loc = b.loc.valid() ? b.loc : branch.loc();
    for (const InferredType& cell : row.cells) {
      if (cell.state == InferredType::State::kKnown) {
        out.push_back(InferredType::Known(
            cell.type, loc, "identity branch over '" + ToString(*b.range) +
                                "'"));
      } else {
        out.push_back(InferredType::Unknown());
      }
    }
    return out;
  }

  /// One propagation pass over `decl`'s branches. True when any cell of the
  /// constructor changed.
  bool SeedDecl(const ConstructorDecl& decl) {
    auto cells_it = cells_.find(decl.name());
    if (cells_it == cells_.end() || cells_it->second.cells.empty()) {
      return false;
    }
    Row& out = cells_it->second;
    bool changed = false;
    Scope base_scope = ScopeFor(decl);
    for (const BranchPtr& branch : decl.body()->branches()) {
      Scope scope = base_scope;
      if (!BindBranch(*branch, &scope)) continue;
      if (branch->targets().has_value()) {
        const auto& targets = *branch->targets();
        size_t n = std::min(targets.size(), out.cells.size());
        for (size_t i = 0; i < n; ++i) {
          changed |= JoinInto(&out.cells[i],
                              TermCell(*targets[i], scope, branch->loc()));
        }
      } else if (branch->bindings().size() == 1) {
        const Row& row = scope.vars[branch->bindings()[0].var];
        if (row.cells.size() != out.cells.size()) continue;
        std::vector<InferredType> contribs = RetagIdentity(row, *branch);
        for (size_t i = 0; i < contribs.size(); ++i) {
          changed |= JoinInto(&out.cells[i], contribs[i]);
        }
      }
    }
    return changed;
  }

  void CheckDecl(const ConstructorDecl& decl) {
    // Promoted capture.cc runtime error: the transitive-closure capture
    // shape only evaluates over binary relations.
    if (DetectTransitiveClosure(decl).has_value()) {
      auto base = catalog_.LookupRelationType(decl.base().type_name);
      auto result = catalog_.LookupRelationType(decl.result_type_name());
      if ((base.ok() && base.value()->arity() != 2) ||
          (result.ok() && result.value()->arity() != 2)) {
        Report(kDiagCaptureNonBinary,
               "constructor '" + decl.name() +
                   "' matches the transitive-closure capture shape but its "
                   "base/result relations are not binary; the capture rule "
                   "cannot evaluate it",
               decl.loc());
      }
    }

    // Inferred cells vs the declared result schema.
    auto cells_it = cells_.find(decl.name());
    auto result = catalog_.LookupRelationType(decl.result_type_name());
    if (cells_it != cells_.end() && result.ok()) {
      const Row& row = cells_it->second;
      const Schema& declared = *result.value();
      size_t n = std::min(row.cells.size(),
                          static_cast<size_t>(declared.arity()));
      for (size_t i = 0; i < n; ++i) {
        const InferredType& cell = row.cells[i];
        const Field& field = declared.field(static_cast<int>(i));
        switch (cell.state) {
          case InferredType::State::kConflict:
            Report(kDiagTypeConflict,
                   "attribute '" + field.name + "' of constructor '" +
                       decl.name() + "': " + Describe(cell) + At(cell.loc) +
                       " conflicts with " +
                       std::string(ValueTypeName(cell.other_type)) +
                       " from " + cell.other_origin + At(cell.other_loc),
                   cell.other_loc.valid() ? cell.other_loc : decl.loc());
            break;
          case InferredType::State::kKnown:
            if (cell.type != field.type) {
              Report(kDiagTypeConflict,
                     "attribute '" + field.name + "' of constructor '" +
                         decl.name() + "' is declared " +
                         std::string(ValueTypeName(field.type)) +
                         " but inferred " + Describe(cell) + At(cell.loc),
                     cell.loc.valid() ? cell.loc : decl.loc());
            }
            break;
          case InferredType::State::kUnknown:
            Report(kDiagUnconstrainedAttribute,
                   "attribute '" + field.name + "' of constructor '" +
                       decl.name() +
                       "' is not constrained by any branch; its inferred "
                       "type is unknown",
                   decl.loc());
            break;
        }
      }
    }

    // Predicate/term walk.
    Scope base_scope = ScopeFor(decl);
    for (const BranchPtr& branch : decl.body()->branches()) {
      Scope scope = base_scope;
      if (!BindBranch(*branch, &scope)) continue;
      CheckBranchDiags(*branch, &scope);
    }
  }

  void CheckBranchDiags(const Branch& branch, Scope* scope) {
    for (const Binding& b : branch.bindings()) {
      SourceLoc loc = b.loc.valid() ? b.loc : branch.loc();
      CheckRangeDiags(*b.range, *scope, loc);
    }
    CheckPredDiags(*branch.pred(), scope, branch.loc());
    if (branch.targets().has_value()) {
      for (const TermPtr& t : *branch.targets()) {
        CheckTermDiags(*t, *scope, branch.loc());
      }
    }
  }

  /// Selector/constructor scalar arguments against their declared formal
  /// parameter types (the "parameter substitution" edge of inference).
  void CheckRangeDiags(const Range& range, const Scope& scope,
                       SourceLoc loc) {
    for (const RangeApp& app : range.apps()) {
      const std::vector<FormalScalar>* formals = nullptr;
      std::string what;
      if (app.kind == RangeApp::Kind::kSelector) {
        auto sel = catalog_.LookupSelector(app.name);
        if (sel.ok()) {
          formals = &sel.value()->params();
          what = "selector '" + app.name + "'";
        }
      } else {
        const ConstructorDecl* ctor = nullptr;
        for (const ConstructorDecl* member : group_) {
          if (member->name() == app.name) ctor = member;
        }
        if (ctor == nullptr) {
          auto looked = catalog_.LookupConstructor(app.name);
          if (looked.ok()) ctor = looked.value();
        }
        if (ctor != nullptr) {
          formals = &ctor->scalar_params();
          what = "constructor '" + app.name + "'";
        }
        for (const RangePtr& arg : app.range_args) {
          CheckRangeDiags(*arg, scope, loc);
        }
      }
      if (formals == nullptr) continue;
      size_t n = std::min(app.term_args.size(), formals->size());
      for (size_t i = 0; i < n; ++i) {
        CheckTermDiags(*app.term_args[i], scope, loc);
        InferredType cell = TermCell(*app.term_args[i], scope, loc);
        if (cell.state == InferredType::State::kKnown &&
            cell.type != (*formals)[i].type) {
          Report(kDiagTypeConflict,
                 "argument '" + (*formals)[i].name + "' of " + what +
                     " is declared " +
                     std::string(ValueTypeName((*formals)[i].type)) +
                     " but receives " + Describe(cell),
                 loc);
        }
      }
    }
  }

  void CheckTermDiags(const Term& term, const Scope& scope, SourceLoc loc) {
    if (term.kind() != Term::Kind::kArith) return;
    const auto& t = static_cast<const ArithTerm&>(term);
    for (const TermPtr& operand : {t.lhs(), t.rhs()}) {
      CheckTermDiags(*operand, scope, loc);
      InferredType cell = TermCell(*operand, scope, loc);
      if (cell.state == InferredType::State::kKnown &&
          cell.type != ValueType::kInt) {
        Report(kDiagIllTypedOperation,
               "operand of '" + ArithOpName(t.op()) + "' has type " +
                   Describe(cell) + " in '" + ToString(term) + "'",
               loc);
      }
    }
  }

  void CheckPredDiags(const Pred& pred, Scope* scope, SourceLoc loc) {
    switch (pred.kind()) {
      case Pred::Kind::kBool:
        return;
      case Pred::Kind::kCompare: {
        const auto& p = static_cast<const ComparePred&>(pred);
        CheckTermDiags(*p.lhs(), *scope, loc);
        CheckTermDiags(*p.rhs(), *scope, loc);
        InferredType lhs = TermCell(*p.lhs(), *scope, loc);
        InferredType rhs = TermCell(*p.rhs(), *scope, loc);
        if (lhs.state != InferredType::State::kKnown ||
            rhs.state != InferredType::State::kKnown ||
            lhs.type == rhs.type) {
          return;
        }
        bool ordered = p.op() == CompareOp::kLt || p.op() == CompareOp::kLe ||
                       p.op() == CompareOp::kGt || p.op() == CompareOp::kGe;
        if (ordered) {
          Report(kDiagIllTypedOperation,
                 "ordered comparison mixes " + Describe(lhs) + " and " +
                     Describe(rhs) + " in '" + ToString(pred) + "'",
                 loc);
        } else {
          Report(kDiagDisjointComparison,
                 "'" + ToString(pred) + "' compares disjoint types " +
                     Describe(lhs) + " and " + Describe(rhs) +
                     "; it is statically always " +
                     (p.op() == CompareOp::kEq ? "FALSE" : "TRUE"),
                 loc);
        }
        return;
      }
      case Pred::Kind::kAnd:
        for (const PredPtr& op : static_cast<const AndPred&>(pred).operands()) {
          CheckPredDiags(*op, scope, loc);
        }
        return;
      case Pred::Kind::kOr:
        for (const PredPtr& op : static_cast<const OrPred&>(pred).operands()) {
          CheckPredDiags(*op, scope, loc);
        }
        return;
      case Pred::Kind::kNot:
        CheckPredDiags(*static_cast<const NotPred&>(pred).operand(), scope,
                       loc);
        return;
      case Pred::Kind::kQuant: {
        const auto& p = static_cast<const QuantPred&>(pred);
        SourceLoc qloc = p.loc().valid() ? p.loc() : loc;
        CheckRangeDiags(*p.range(), *scope, qloc);
        std::optional<Row> row = RangeRowOf(*p.range(), *scope, qloc);
        bool bound = false;
        Row saved;
        auto prev = scope->vars.find(p.var());
        if (prev != scope->vars.end()) {
          saved = prev->second;
          bound = true;
        }
        if (row.has_value()) scope->vars[p.var()] = std::move(*row);
        CheckPredDiags(*p.body(), scope, qloc);
        if (bound) {
          scope->vars[p.var()] = std::move(saved);
        } else {
          scope->vars.erase(p.var());
        }
        return;
      }
      case Pred::Kind::kIn: {
        const auto& p = static_cast<const InPred&>(pred);
        CheckRangeDiags(*p.range(), *scope, loc);
        std::optional<Row> row = RangeRowOf(*p.range(), *scope, loc);
        for (size_t i = 0; i < p.tuple().size(); ++i) {
          CheckTermDiags(*p.tuple()[i], *scope, loc);
          if (!row.has_value() || i >= row->cells.size()) continue;
          InferredType term_cell = TermCell(*p.tuple()[i], *scope, loc);
          const InferredType& attr = row->cells[i];
          if (term_cell.state == InferredType::State::kKnown &&
              attr.state == InferredType::State::kKnown &&
              term_cell.type != attr.type) {
            Report(kDiagDisjointComparison,
                   "membership position " + std::to_string(i) +
                       " compares " + Describe(term_cell) + " against " +
                       std::string(ValueTypeName(attr.type)) +
                       " attribute '" + row->names[i] + "' in '" +
                       ToString(pred) + "'; it can never match",
                   loc);
          }
        }
        return;
      }
    }
  }

  const Catalog& catalog_;
  std::vector<const ConstructorDecl*> group_;
  std::map<std::string, Row> cells_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

InferredType InferredType::Known(ValueType type, SourceLoc loc,
                                 std::string origin) {
  InferredType cell;
  cell.state = State::kKnown;
  cell.type = type;
  cell.loc = loc;
  cell.origin = std::move(origin);
  return cell;
}

std::string InferredType::ToString() const {
  switch (state) {
    case State::kKnown:
      return std::string(ValueTypeName(type));
    case State::kUnknown:
      return "?";
    case State::kConflict:
      return "<conflict>";
  }
  return "?";
}

std::string InferredSchema::ToString() const {
  std::string out = "RECORD ";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += "; ";
    out += i < names.size() ? names[i] : 'c' + std::to_string(i);
    out.append(": ").append(columns[i].ToString());
  }
  out += columns.empty() ? "END" : " END";
  return out;
}

bool TypeInference::HasErrors() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

TypeInference InferCatalogTypes(const Catalog& catalog) {
  std::vector<ConstructorDeclPtr> group;
  for (const auto& [name, decl] : catalog.constructors()) group.push_back(decl);
  Inferencer inf(catalog);
  inf.AddGroup(group);
  inf.Run();
  inf.Check();
  TypeInference result;
  for (const auto& [name, row] : inf.cells()) {
    InferredSchema schema;
    schema.names = row.names;
    schema.columns = row.cells;
    result.constructors.emplace(name, std::move(schema));
  }
  for (const auto& [name, decl] : catalog.selectors()) {
    Inferencer sel_inf(catalog);
    sel_inf.CheckSelector(*decl);
    for (Diagnostic& d : sel_inf.TakeDiagnostics()) {
      result.diagnostics.push_back(std::move(d));
    }
  }
  for (Diagnostic& d : inf.TakeDiagnostics()) {
    result.diagnostics.push_back(std::move(d));
  }
  return result;
}

std::vector<Diagnostic> TypecheckConstructorGroup(
    const std::vector<ConstructorDeclPtr>& group, const Catalog& catalog) {
  Inferencer inf(catalog);
  inf.AddGroup(group);
  inf.Run();
  inf.Check();
  return inf.TakeDiagnostics();
}

std::vector<Diagnostic> TypecheckSelector(const SelectorDecl& decl,
                                          const Catalog& catalog) {
  Inferencer inf(catalog);
  inf.CheckSelector(decl);
  return inf.TakeDiagnostics();
}

std::vector<Diagnostic> TypecheckQueryExpr(
    const CalcExpr& expr, const Catalog& catalog,
    const std::map<std::string, ValueType>& placeholders) {
  Inferencer inf(catalog);
  inf.CheckQuery(expr, placeholders);
  return inf.TakeDiagnostics();
}

}  // namespace datacon
