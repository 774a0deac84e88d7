#include "analysis/fold.h"

namespace datacon {

namespace {

/// Syntactic equality of two terms — conservative: only literals, parameter
/// references, field references, and arithmetic over equal operands compare
/// equal.
bool SameTerm(const Term& a, const Term& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Term::Kind::kLiteral:
      return static_cast<const LiteralTerm&>(a).value() ==
             static_cast<const LiteralTerm&>(b).value();
    case Term::Kind::kParamRef:
      return static_cast<const ParamRefTerm&>(a).name() ==
             static_cast<const ParamRefTerm&>(b).name();
    case Term::Kind::kFieldRef: {
      const auto& fa = static_cast<const FieldRefTerm&>(a);
      const auto& fb = static_cast<const FieldRefTerm&>(b);
      return fa.var() == fb.var() && fa.field() == fb.field();
    }
    case Term::Kind::kArith: {
      const auto& aa = static_cast<const ArithTerm&>(a);
      const auto& ab = static_cast<const ArithTerm&>(b);
      return aa.op() == ab.op() && SameTerm(*aa.lhs(), *ab.lhs()) &&
             SameTerm(*aa.rhs(), *ab.rhs());
    }
  }
  return false;
}

FoldOutcome FromBool(bool b) {
  return b ? FoldOutcome::kTrue : FoldOutcome::kFalse;
}

FoldOutcome Negate(FoldOutcome o) {
  switch (o) {
    case FoldOutcome::kTrue:
      return FoldOutcome::kFalse;
    case FoldOutcome::kFalse:
      return FoldOutcome::kTrue;
    case FoldOutcome::kUnknown:
      return FoldOutcome::kUnknown;
  }
  return FoldOutcome::kUnknown;
}

}  // namespace

std::optional<Value> FoldTerm(const Term& term) {
  switch (term.kind()) {
    case Term::Kind::kLiteral:
      return static_cast<const LiteralTerm&>(term).value();
    case Term::Kind::kFieldRef:
    case Term::Kind::kParamRef:
      return std::nullopt;
    case Term::Kind::kArith: {
      const auto& arith = static_cast<const ArithTerm&>(term);
      std::optional<Value> lhs = FoldTerm(*arith.lhs());
      std::optional<Value> rhs = FoldTerm(*arith.rhs());
      if (!lhs || !rhs) return std::nullopt;
      // Arithmetic is defined on integers only; a non-integer operand is a
      // type error for the checker to report, not for the folder to crash on.
      if (lhs->type() != ValueType::kInt || rhs->type() != ValueType::kInt) {
        return std::nullopt;
      }
      // Division by zero and overflow are runtime errors: abstain.
      Result<int64_t> value =
          ApplyArith(arith.op(), lhs->AsInt(), rhs->AsInt());
      if (!value.ok()) return std::nullopt;
      return Value::Int(*value);
    }
  }
  return std::nullopt;
}

FoldOutcome FoldPred(const Pred& pred) {
  switch (pred.kind()) {
    case Pred::Kind::kBool:
      return FromBool(static_cast<const BoolPred&>(pred).value());
    case Pred::Kind::kCompare: {
      const auto& cmp = static_cast<const ComparePred&>(pred);
      std::optional<Value> lhs = FoldTerm(*cmp.lhs());
      std::optional<Value> rhs = FoldTerm(*cmp.rhs());
      if (lhs && rhs) {
        // Value::Compare requires matching types; a mismatch is the type
        // checker's problem (E102), never decided here.
        if (lhs->type() != rhs->type()) return FoldOutcome::kUnknown;
        int c = lhs->Compare(*rhs);
        switch (cmp.op()) {
          case CompareOp::kEq:
            return FromBool(c == 0);
          case CompareOp::kNe:
            return FromBool(c != 0);
          case CompareOp::kLt:
            return FromBool(c < 0);
          case CompareOp::kLe:
            return FromBool(c <= 0);
          case CompareOp::kGt:
            return FromBool(c > 0);
          case CompareOp::kGe:
            return FromBool(c >= 0);
        }
        return FoldOutcome::kUnknown;
      }
      // `t = t` holds and `t # t` fails for any deterministic term, even an
      // unfoldable one. Ordered comparisons need the type to decide <=/>=,
      // so only the reflexive =/# cases fold.
      if (SameTerm(*cmp.lhs(), *cmp.rhs())) {
        switch (cmp.op()) {
          case CompareOp::kEq:
          case CompareOp::kLe:
          case CompareOp::kGe:
            return FoldOutcome::kTrue;
          case CompareOp::kNe:
          case CompareOp::kLt:
          case CompareOp::kGt:
            return FoldOutcome::kFalse;
        }
      }
      return FoldOutcome::kUnknown;
    }
    case Pred::Kind::kAnd: {
      bool any_unknown = false;
      for (const PredPtr& op :
           static_cast<const AndPred&>(pred).operands()) {
        switch (FoldPred(*op)) {
          case FoldOutcome::kFalse:
            return FoldOutcome::kFalse;
          case FoldOutcome::kUnknown:
            any_unknown = true;
            break;
          case FoldOutcome::kTrue:
            break;
        }
      }
      return any_unknown ? FoldOutcome::kUnknown : FoldOutcome::kTrue;
    }
    case Pred::Kind::kOr: {
      bool any_unknown = false;
      for (const PredPtr& op : static_cast<const OrPred&>(pred).operands()) {
        switch (FoldPred(*op)) {
          case FoldOutcome::kTrue:
            return FoldOutcome::kTrue;
          case FoldOutcome::kUnknown:
            any_unknown = true;
            break;
          case FoldOutcome::kFalse:
            break;
        }
      }
      return any_unknown ? FoldOutcome::kUnknown : FoldOutcome::kFalse;
    }
    case Pred::Kind::kNot:
      return Negate(FoldPred(*static_cast<const NotPred&>(pred).operand()));
    case Pred::Kind::kQuant: {
      const auto& quant = static_cast<const QuantPred&>(pred);
      FoldOutcome body = FoldPred(*quant.body());
      // Over a possibly-empty range only one direction is safe per
      // quantifier: SOME with a FALSE body finds nothing; ALL with a TRUE
      // body is vacuously satisfied.
      if (quant.quantifier() == Quantifier::kSome &&
          body == FoldOutcome::kFalse) {
        return FoldOutcome::kFalse;
      }
      if (quant.quantifier() == Quantifier::kAll &&
          body == FoldOutcome::kTrue) {
        return FoldOutcome::kTrue;
      }
      return FoldOutcome::kUnknown;
    }
    case Pred::Kind::kIn:
      return FoldOutcome::kUnknown;
  }
  return FoldOutcome::kUnknown;
}

}  // namespace datacon
