#ifndef DATACON_RA_EVAL_H_
#define DATACON_RA_EVAL_H_

#include "ast/pred.h"
#include "ast/term.h"
#include "common/result.h"
#include "ra/env.h"
#include "ra/resolver.h"

namespace datacon {

/// Tree-walking evaluator for terms and predicates over an Environment.
///
/// Quantifiers (`SOME`/`ALL`) iterate the relation their range resolves to;
/// membership tests build the probe tuple and use the relation's hash set.
/// All failures (unbound names, type mismatches, division by zero, int64
/// overflow) are reported as Status — for programs that passed semantic
/// analysis the only reachable runtime failures are arithmetic (ApplyArith).
///
/// Two walk variants share this interface (DESIGN §4.16). The *checked*
/// interpreter (default) tests Value::type() before every arithmetic and
/// comparison and constructs a kTypeError on mismatch — the fallback for
/// unproven programs and `PRAGMA TYPECHECK = OFF`. The *typed-proven*
/// variant replaces those per-tuple tests with debug-only assertions; it is
/// only sound when the whole-program type checker (analysis/typecheck.h)
/// proved every definition the program can reach, which Database certifies
/// via EvalOptions::typed_proven.
class Evaluator {
 public:
  /// `resolver` must outlive the evaluator; it may be null for predicates
  /// that contain no quantifier or membership ranges. `typed_proven`
  /// selects the fast walk — pass true only under a type-checker proof.
  explicit Evaluator(const RelationResolver* resolver,
                     bool typed_proven = false)
      : resolver_(resolver), typed_proven_(typed_proven) {}

  /// The scalar value of `term` under `env`.
  Result<Value> EvalTerm(const Term& term, const Environment& env) const;

  /// The truth value of `pred` under `env`.
  Result<bool> EvalPred(const Pred& pred, const Environment& env) const;

  /// The resolver quantifier/membership ranges resolve through (may be
  /// null). The branch executor snapshots it before a parallel fan-out.
  const RelationResolver* resolver() const { return resolver_; }

  /// True when this evaluator runs the typed-proven walk. Worker
  /// evaluators built over snapshots must inherit it.
  bool typed_proven() const { return typed_proven_; }

 private:
  template <bool Proven>
  Result<Value> EvalTermImpl(const Term& term, const Environment& env) const;
  template <bool Proven>
  Result<bool> EvalPredImpl(const Pred& pred, const Environment& env) const;

  const RelationResolver* resolver_;
  bool typed_proven_;
};

}  // namespace datacon

#endif  // DATACON_RA_EVAL_H_
