#include "core/semantics.h"

#include <set>

#include "ast/printer.h"
#include "common/check.h"

namespace datacon {

namespace {

/// Structural field equality (names and types, ignoring key declarations):
/// the compatibility needed when a relation flows into a position whose
/// declared type names the same fields.
bool SchemaFieldsEqual(const Schema& a, const Schema& b) {
  return a.fields() == b.fields();
}

Status CheckTermAgainst(const Term& term, ValueType expected,
                        const AnalysisScope& scope, const std::string& what) {
  DATACON_ASSIGN_OR_RETURN(ValueType actual, TermTypeOf(term, scope));
  if (actual != expected) {
    return Status::TypeError(what + ": expected " +
                             std::string(ValueTypeName(expected)) + ", got " +
                             std::string(ValueTypeName(actual)) + " in '" +
                             ToString(term) + "'");
  }
  return Status::OK();
}

/// Checks one branch against an expected result schema, under `scope`
/// (formals/params set by the caller; tuple variables managed here).
Status CheckBranchAgainst(const Branch& branch, AnalysisScope* scope,
                          const Schema& result_schema) {
  if (branch.bindings().empty()) {
    return Status::TypeError("branch binds no variables: " + ToString(branch));
  }
  std::set<std::string> branch_vars;
  const Schema* single_schema = nullptr;
  for (const Binding& b : branch.bindings()) {
    if (scope->vars.count(b.var) > 0) {
      return Status::TypeError("duplicate or shadowing variable '" + b.var +
                               "' in branch: " + ToString(branch));
    }
    DATACON_ASSIGN_OR_RETURN(const Schema* schema,
                             RangeSchemaOf(*b.range, *scope));
    scope->vars.emplace(b.var, schema);
    branch_vars.insert(b.var);
    single_schema = schema;
  }

  Status status = CheckPred(*branch.pred(), scope);

  if (status.ok()) {
    if (branch.targets().has_value()) {
      const auto& targets = *branch.targets();
      if (static_cast<int>(targets.size()) != result_schema.arity()) {
        status = Status::TypeError(
            "target list has " + std::to_string(targets.size()) +
            " terms, result type has arity " +
            std::to_string(result_schema.arity()) + ": " + ToString(branch));
      } else {
        for (int i = 0; status.ok() && i < result_schema.arity(); ++i) {
          status = CheckTermAgainst(
              *targets[static_cast<size_t>(i)], result_schema.field(i).type,
              *scope, "target position " + std::to_string(i));
        }
      }
    } else {
      if (branch.bindings().size() != 1) {
        status = Status::TypeError(
            "a branch without a target list must bind exactly one variable: " +
            ToString(branch));
      } else if (!single_schema->UnionCompatible(result_schema)) {
        status = Status::TypeError(
            "identity branch over " + single_schema->ToString() +
            " is not union-compatible with result " + result_schema.ToString());
      }
    }
  }

  for (const std::string& v : branch_vars) scope->vars.erase(v);
  return status;
}

}  // namespace

Result<const Schema*> RangeSchemaOf(const Range& range,
                                    const AnalysisScope& scope) {
  DATACON_CHECK(scope.catalog != nullptr, "scope without catalog");
  // Resolve the base: a formal relation parameter shadows a catalog
  // relation variable of the same name.
  const Schema* current = nullptr;
  auto formal = scope.relation_formals.find(range.relation());
  if (formal != scope.relation_formals.end()) {
    DATACON_ASSIGN_OR_RETURN(current,
                             scope.catalog->LookupRelationType(formal->second));
  } else {
    auto type_name = scope.catalog->LookupRelationTypeName(range.relation());
    if (!type_name.ok()) {
      return Status::NotFound("relation '" + range.relation() +
                              "' is neither a formal parameter nor a declared "
                              "relation variable");
    }
    DATACON_ASSIGN_OR_RETURN(
        current, scope.catalog->LookupRelationType(*type_name.value()));
  }

  for (const RangeApp& app : range.apps()) {
    if (app.kind == RangeApp::Kind::kSelector) {
      DATACON_ASSIGN_OR_RETURN(const SelectorDecl* sel,
                               scope.catalog->LookupSelector(app.name));
      DATACON_ASSIGN_OR_RETURN(
          const Schema* sel_base,
          scope.catalog->LookupRelationType(sel->base().type_name));
      if (!SchemaFieldsEqual(*current, *sel_base)) {
        return Status::TypeError("selector '" + app.name + "' expects " +
                                 sel_base->ToString() + ", applied to " +
                                 current->ToString());
      }
      if (app.term_args.size() != sel->params().size()) {
        return Status::TypeError(
            "selector '" + app.name + "' takes " +
            std::to_string(sel->params().size()) + " argument(s), got " +
            std::to_string(app.term_args.size()));
      }
      for (size_t i = 0; i < app.term_args.size(); ++i) {
        DATACON_RETURN_IF_ERROR(CheckTermAgainst(
            *app.term_args[i], sel->params()[i].type, scope,
            "argument '" + sel->params()[i].name + "' of selector '" +
                app.name + "'"));
      }
      // Selectors restrict but never change the element type.
      continue;
    }

    DATACON_ASSIGN_OR_RETURN(const ConstructorDecl* ctor,
                             scope.catalog->LookupConstructor(app.name));
    DATACON_ASSIGN_OR_RETURN(
        const Schema* ctor_base,
        scope.catalog->LookupRelationType(ctor->base().type_name));
    if (!SchemaFieldsEqual(*current, *ctor_base)) {
      return Status::TypeError("constructor '" + app.name + "' expects base " +
                               ctor_base->ToString() + ", applied to " +
                               current->ToString());
    }
    if (app.range_args.size() != ctor->rel_params().size()) {
      return Status::TypeError(
          "constructor '" + app.name + "' takes " +
          std::to_string(ctor->rel_params().size()) +
          " relation argument(s), got " + std::to_string(app.range_args.size()));
    }
    for (size_t i = 0; i < app.range_args.size(); ++i) {
      DATACON_ASSIGN_OR_RETURN(const Schema* arg_schema,
                               RangeSchemaOf(*app.range_args[i], scope));
      DATACON_ASSIGN_OR_RETURN(
          const Schema* formal_schema,
          scope.catalog->LookupRelationType(ctor->rel_params()[i].type_name));
      if (!SchemaFieldsEqual(*arg_schema, *formal_schema)) {
        return Status::TypeError(
            "relation argument '" + ctor->rel_params()[i].name +
            "' of constructor '" + app.name + "' expects " +
            formal_schema->ToString() + ", got " + arg_schema->ToString());
      }
    }
    if (app.term_args.size() != ctor->scalar_params().size()) {
      return Status::TypeError(
          "constructor '" + app.name + "' takes " +
          std::to_string(ctor->scalar_params().size()) +
          " scalar argument(s), got " + std::to_string(app.term_args.size()));
    }
    for (size_t i = 0; i < app.term_args.size(); ++i) {
      DATACON_RETURN_IF_ERROR(CheckTermAgainst(
          *app.term_args[i], ctor->scalar_params()[i].type, scope,
          "scalar argument '" + ctor->scalar_params()[i].name +
              "' of constructor '" + app.name + "'"));
    }
    DATACON_ASSIGN_OR_RETURN(
        current, scope.catalog->LookupRelationType(ctor->result_type_name()));
  }
  return current;
}

Result<ValueType> TermTypeOf(const Term& term, const AnalysisScope& scope) {
  switch (term.kind()) {
    case Term::Kind::kLiteral:
      return static_cast<const LiteralTerm&>(term).value().type();
    case Term::Kind::kParamRef: {
      const auto& t = static_cast<const ParamRefTerm&>(term);
      auto it = scope.scalar_params.find(t.name());
      if (it == scope.scalar_params.end()) {
        return Status::NotFound("unknown parameter '" + t.name() + "'");
      }
      return it->second;
    }
    case Term::Kind::kFieldRef: {
      const auto& t = static_cast<const FieldRefTerm&>(term);
      auto it = scope.vars.find(t.var());
      if (it == scope.vars.end()) {
        return Status::NotFound("unbound tuple variable '" + t.var() + "'");
      }
      std::optional<int> idx = it->second->FieldIndex(t.field());
      if (!idx.has_value()) {
        return Status::NotFound("no field '" + t.field() + "' in " +
                                it->second->ToString());
      }
      return it->second->field(*idx).type;
    }
    case Term::Kind::kArith: {
      const auto& t = static_cast<const ArithTerm&>(term);
      DATACON_RETURN_IF_ERROR(CheckTermAgainst(*t.lhs(), ValueType::kInt, scope,
                                               "arithmetic operand"));
      DATACON_RETURN_IF_ERROR(CheckTermAgainst(*t.rhs(), ValueType::kInt, scope,
                                               "arithmetic operand"));
      return ValueType::kInt;
    }
  }
  DATACON_UNREACHABLE("term kind");
}

Status CheckPred(const Pred& pred, AnalysisScope* scope) {
  switch (pred.kind()) {
    case Pred::Kind::kBool:
      return Status::OK();
    case Pred::Kind::kCompare: {
      const auto& p = static_cast<const ComparePred&>(pred);
      DATACON_ASSIGN_OR_RETURN(ValueType lhs, TermTypeOf(*p.lhs(), *scope));
      DATACON_ASSIGN_OR_RETURN(ValueType rhs, TermTypeOf(*p.rhs(), *scope));
      if (lhs != rhs) {
        return Status::TypeError("comparison across types in '" +
                                 ToString(pred) + "'");
      }
      return Status::OK();
    }
    case Pred::Kind::kAnd:
      for (const PredPtr& op : static_cast<const AndPred&>(pred).operands()) {
        DATACON_RETURN_IF_ERROR(CheckPred(*op, scope));
      }
      return Status::OK();
    case Pred::Kind::kOr:
      for (const PredPtr& op : static_cast<const OrPred&>(pred).operands()) {
        DATACON_RETURN_IF_ERROR(CheckPred(*op, scope));
      }
      return Status::OK();
    case Pred::Kind::kNot:
      return CheckPred(*static_cast<const NotPred&>(pred).operand(), scope);
    case Pred::Kind::kQuant: {
      const auto& p = static_cast<const QuantPred&>(pred);
      if (scope->vars.count(p.var()) > 0) {
        return Status::TypeError("quantifier shadows variable '" + p.var() +
                                 "' in '" + ToString(pred) + "'");
      }
      DATACON_ASSIGN_OR_RETURN(const Schema* schema,
                               RangeSchemaOf(*p.range(), *scope));
      scope->vars.emplace(p.var(), schema);
      Status status = CheckPred(*p.body(), scope);
      scope->vars.erase(p.var());
      return status;
    }
    case Pred::Kind::kIn: {
      const auto& p = static_cast<const InPred&>(pred);
      DATACON_ASSIGN_OR_RETURN(const Schema* schema,
                               RangeSchemaOf(*p.range(), *scope));
      if (static_cast<int>(p.tuple().size()) != schema->arity()) {
        return Status::TypeError("membership tuple arity " +
                                 std::to_string(p.tuple().size()) +
                                 " does not match " + schema->ToString());
      }
      for (int i = 0; i < schema->arity(); ++i) {
        DATACON_RETURN_IF_ERROR(CheckTermAgainst(
            *p.tuple()[static_cast<size_t>(i)], schema->field(i).type, *scope,
            "membership position " + std::to_string(i)));
      }
      return Status::OK();
    }
  }
  DATACON_UNREACHABLE("pred kind");
}

Status CheckSelectorDecl(const SelectorDecl& decl, const Catalog& catalog) {
  AnalysisScope scope;
  scope.catalog = &catalog;
  DATACON_ASSIGN_OR_RETURN(const Schema* base_schema,
                           catalog.LookupRelationType(decl.base().type_name));
  scope.relation_formals.emplace(decl.base().name, decl.base().type_name);
  for (const FormalScalar& p : decl.params()) {
    if (!scope.scalar_params.emplace(p.name, p.type).second) {
      return Status::TypeError("duplicate parameter '" + p.name +
                               "' in selector '" + decl.name() + "'");
    }
  }
  scope.vars.emplace(decl.var(), base_schema);
  DATACON_RETURN_IF_ERROR(CheckPred(*decl.pred(), &scope));
  return Status::OK();
}

Status CheckConstructorDecl(const ConstructorDecl& decl,
                            const Catalog& catalog) {
  AnalysisScope scope;
  scope.catalog = &catalog;
  DATACON_RETURN_IF_ERROR(
      catalog.LookupRelationType(decl.base().type_name).status());
  DATACON_ASSIGN_OR_RETURN(const Schema* result_schema,
                           catalog.LookupRelationType(decl.result_type_name()));
  scope.relation_formals.emplace(decl.base().name, decl.base().type_name);
  for (const FormalRelation& r : decl.rel_params()) {
    DATACON_RETURN_IF_ERROR(catalog.LookupRelationType(r.type_name).status());
    if (!scope.relation_formals.emplace(r.name, r.type_name).second) {
      return Status::TypeError("duplicate relation parameter '" + r.name +
                               "' in constructor '" + decl.name() + "'");
    }
  }
  for (const FormalScalar& p : decl.scalar_params()) {
    if (!scope.scalar_params.emplace(p.name, p.type).second) {
      return Status::TypeError("duplicate parameter '" + p.name +
                               "' in constructor '" + decl.name() + "'");
    }
  }
  if (decl.body()->branches().empty()) {
    return Status::TypeError("constructor '" + decl.name() +
                             "' has an empty body");
  }
  for (const BranchPtr& branch : decl.body()->branches()) {
    DATACON_RETURN_IF_ERROR(CheckBranchAgainst(*branch, &scope, *result_schema));
  }
  return Status::OK();
}

Status CheckQuery(const CalcExpr& expr, const Catalog& catalog,
                  const Schema& result_schema,
                  const std::map<std::string, ValueType>& placeholders) {
  AnalysisScope scope;
  scope.catalog = &catalog;
  scope.scalar_params = placeholders;
  for (const BranchPtr& branch : expr.branches()) {
    DATACON_RETURN_IF_ERROR(CheckBranchAgainst(*branch, &scope, result_schema));
  }
  return Status::OK();
}

Result<Schema> InferQuerySchema(
    const CalcExpr& expr, const Catalog& catalog,
    const std::map<std::string, ValueType>& placeholders) {
  if (expr.branches().empty()) {
    return Status::TypeError("cannot infer a schema for an empty expression");
  }
  AnalysisScope scope;
  scope.catalog = &catalog;
  scope.scalar_params = placeholders;

  const Branch& first = *expr.branches()[0];
  std::vector<Field> fields;
  if (!first.targets().has_value()) {
    if (first.bindings().size() != 1) {
      return Status::TypeError(
          "a branch without a target list must bind exactly one variable");
    }
    DATACON_ASSIGN_OR_RETURN(const Schema* schema,
                             RangeSchemaOf(*first.bindings()[0].range, scope));
    // Derived results use set semantics: drop any key declaration.
    fields = schema->fields();
  } else {
    for (const Binding& b : first.bindings()) {
      DATACON_ASSIGN_OR_RETURN(const Schema* schema,
                               RangeSchemaOf(*b.range, scope));
      scope.vars.emplace(b.var, schema);
    }
    int i = 0;
    for (const TermPtr& t : *first.targets()) {
      DATACON_ASSIGN_OR_RETURN(ValueType type, TermTypeOf(*t, scope));
      // Prefer the source field's own name when the target is a plain field
      // reference; fall back to positional names.
      std::string name = 'c' + std::to_string(i);
      if (t->kind() == Term::Kind::kFieldRef) {
        name = static_cast<const FieldRefTerm&>(*t).field();
      }
      fields.push_back(Field{std::move(name), type});
      ++i;
    }
    scope.vars.clear();
  }
  // Positions where later branches propose a different source field name
  // revert to positional names, so a union's schema never depends on which
  // branch happens to be written first. Branches the later CheckQuery will
  // reject (wrong arity, unresolved ranges) get no vote here. The lint
  // pipeline reports the disagreement itself as W242.
  for (size_t bi = 1; bi < expr.branches().size(); ++bi) {
    const Branch& br = *expr.branches()[bi];
    std::vector<std::string> names;  // "" = no opinion (computed target)
    if (!br.targets().has_value()) {
      if (br.bindings().size() != 1) continue;
      Result<const Schema*> schema =
          RangeSchemaOf(*br.bindings()[0].range, scope);
      if (!schema.ok()) continue;
      if (schema.value()->arity() != static_cast<int>(fields.size())) continue;
      for (const Field& f : schema.value()->fields()) names.push_back(f.name);
    } else {
      if (br.targets()->size() != fields.size()) continue;
      for (const TermPtr& t : *br.targets()) {
        names.push_back(t->kind() == Term::Kind::kFieldRef
                            ? static_cast<const FieldRefTerm&>(*t).field()
                            : "");
      }
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      if (!names[i].empty() && names[i] != fields[i].name) {
        fields[i].name = "c" + std::to_string(i);
      }
    }
  }
  // Disambiguate duplicate field names positionally.
  for (size_t a = 0; a < fields.size(); ++a) {
    for (size_t b = a + 1; b < fields.size(); ++b) {
      if (fields[a].name == fields[b].name) {
        fields[b].name += '_' + std::to_string(b);
      }
    }
  }
  Schema inferred(std::move(fields));
  DATACON_RETURN_IF_ERROR(CheckQuery(expr, catalog, inferred, placeholders));
  return inferred;
}

}  // namespace datacon
