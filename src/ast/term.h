#ifndef DATACON_AST_TERM_H_
#define DATACON_AST_TERM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/value.h"

namespace datacon {

class Term;
/// Terms are immutable trees shared freely across expressions.
using TermPtr = std::shared_ptr<const Term>;

/// Arithmetic operators of the DBPL expression fragment (needed e.g. for the
/// paper's `strange` constructor: `r.number = s.number + 1`).
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };

/// Canonical spelling of an arithmetic operator ("+", "MOD", ...).
std::string ArithOpName(ArithOp op);

/// The one checked integer-arithmetic kernel, shared by the evaluator
/// (ra/eval.cc, both typed variants) and the constant folder
/// (analysis/fold.cc). kInvalidArgument on division or MOD by zero and on
/// any result outside int64 (including INT64_MIN DIV -1); INT64_MIN MOD -1
/// is 0, the exact remainder, rather than the hardware trap.
Result<int64_t> ApplyArith(ArithOp op, int64_t a, int64_t b);

/// A scalar-valued expression: a field of a bound tuple variable, a literal,
/// a reference to a selector/constructor parameter, or an arithmetic
/// combination thereof.
class Term {
 public:
  enum class Kind { kFieldRef, kLiteral, kParamRef, kArith };

  virtual ~Term() = default;
  Term(const Term&) = delete;
  Term& operator=(const Term&) = delete;

  Kind kind() const { return kind_; }

 protected:
  explicit Term(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
};

/// `r.front` — the field `field` of the tuple bound to variable `var`.
class FieldRefTerm : public Term {
 public:
  FieldRefTerm(std::string var, std::string field)
      : Term(Kind::kFieldRef), var_(std::move(var)), field_(std::move(field)) {}

  const std::string& var() const { return var_; }
  const std::string& field() const { return field_; }

 private:
  std::string var_;
  std::string field_;
};

/// A scalar constant.
class LiteralTerm : public Term {
 public:
  explicit LiteralTerm(Value value)
      : Term(Kind::kLiteral), value_(std::move(value)) {}

  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// A reference to a scalar formal parameter of the enclosing selector or
/// constructor (e.g. `Obj` in the paper's `hidden_by(Obj: parttype)`).
class ParamRefTerm : public Term {
 public:
  explicit ParamRefTerm(std::string name)
      : Term(Kind::kParamRef), name_(std::move(name)) {}

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

/// `lhs op rhs` over integers.
class ArithTerm : public Term {
 public:
  ArithTerm(ArithOp op, TermPtr lhs, TermPtr rhs)
      : Term(Kind::kArith), op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  ArithOp op() const { return op_; }
  const TermPtr& lhs() const { return lhs_; }
  const TermPtr& rhs() const { return rhs_; }

 private:
  ArithOp op_;
  TermPtr lhs_;
  TermPtr rhs_;
};

}  // namespace datacon

#endif  // DATACON_AST_TERM_H_
