#include "analysis/fold.h"

#include <gtest/gtest.h>

#include <limits>

#include "ast/builder.h"

namespace datacon {
namespace {

using build::Add;
using build::All;
using build::And;
using build::Arith;
using build::BoolLit;
using build::Cmp;
using build::Eq;
using build::False;
using build::FieldRef;
using build::In;
using build::Int;
using build::Le;
using build::Lt;
using build::Ne;
using build::Not;
using build::Or;
using build::Param;
using build::Rel;
using build::Some;
using build::Str;
using build::Sub;
using build::True;

// --- FoldTerm ---

TEST(FoldTerm, LiteralsFoldToThemselves) {
  auto v = FoldTerm(*Int(42));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->AsInt(), 42);

  auto s = FoldTerm(*Str("hi"));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->AsString(), "hi");
}

TEST(FoldTerm, ReferencesDoNotFold) {
  EXPECT_FALSE(FoldTerm(*FieldRef("r", "a")).has_value());
  EXPECT_FALSE(FoldTerm(*Param("P")).has_value());
}

TEST(FoldTerm, IntegerArithmeticFolds) {
  auto sum = FoldTerm(*Add(Int(2), Int(3)));
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(sum->AsInt(), 5);

  auto nested = FoldTerm(*Sub(Add(Int(10), Int(5)), Int(7)));
  ASSERT_TRUE(nested.has_value());
  EXPECT_EQ(nested->AsInt(), 8);

  auto product = FoldTerm(*Arith(ArithOp::kMul, Int(6), Int(7)));
  ASSERT_TRUE(product.has_value());
  EXPECT_EQ(product->AsInt(), 42);

  auto quotient = FoldTerm(*Arith(ArithOp::kDiv, Int(7), Int(2)));
  ASSERT_TRUE(quotient.has_value());
  EXPECT_EQ(quotient->AsInt(), 3);

  auto remainder = FoldTerm(*Arith(ArithOp::kMod, Int(7), Int(2)));
  ASSERT_TRUE(remainder.has_value());
  EXPECT_EQ(remainder->AsInt(), 1);
}

TEST(FoldTerm, DivisionByZeroStaysUnfoldable) {
  EXPECT_FALSE(FoldTerm(*Arith(ArithOp::kDiv, Int(1), Int(0))).has_value());
  EXPECT_FALSE(FoldTerm(*Arith(ArithOp::kMod, Int(1), Int(0))).has_value());
}

TEST(FoldTerm, OverflowStaysUnfoldable) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_FALSE(FoldTerm(*Add(Int(kMax), Int(1))).has_value());
  EXPECT_FALSE(FoldTerm(*Sub(Int(kMin), Int(1))).has_value());
  EXPECT_FALSE(FoldTerm(*Arith(ArithOp::kMul, Int(kMax), Int(2))).has_value());
  EXPECT_FALSE(
      FoldTerm(*Arith(ArithOp::kDiv, Int(kMin), Int(-1))).has_value());
  auto mod = FoldTerm(*Arith(ArithOp::kMod, Int(kMin), Int(-1)));
  ASSERT_TRUE(mod.has_value());
  EXPECT_EQ(mod->AsInt(), 0);
}

TEST(FoldTerm, ArithmeticOnNonIntegersStaysUnfoldable) {
  EXPECT_FALSE(FoldTerm(*Add(Str("a"), Str("b"))).has_value());
  EXPECT_FALSE(FoldTerm(*Add(Int(1), Str("b"))).has_value());
  EXPECT_FALSE(FoldTerm(*Add(Int(1), FieldRef("r", "a"))).has_value());
}

// --- FoldPred ---

TEST(FoldPred, BooleanLiterals) {
  EXPECT_EQ(FoldPred(*True()), FoldOutcome::kTrue);
  EXPECT_EQ(FoldPred(*False()), FoldOutcome::kFalse);
}

TEST(FoldPred, ConstantComparisons) {
  EXPECT_EQ(FoldPred(*Eq(Int(1), Int(1))), FoldOutcome::kTrue);
  EXPECT_EQ(FoldPred(*Eq(Int(1), Int(2))), FoldOutcome::kFalse);
  EXPECT_EQ(FoldPred(*Ne(Int(1), Int(2))), FoldOutcome::kTrue);
  EXPECT_EQ(FoldPred(*Lt(Int(1), Int(2))), FoldOutcome::kTrue);
  EXPECT_EQ(FoldPred(*Le(Int(2), Int(1))), FoldOutcome::kFalse);
  EXPECT_EQ(FoldPred(*Cmp(CompareOp::kGt, Str("b"), Str("a"))),
            FoldOutcome::kTrue);
  // Folded arithmetic feeds into the comparison.
  EXPECT_EQ(FoldPred(*Eq(Add(Int(2), Int(2)), Int(4))), FoldOutcome::kTrue);
}

TEST(FoldPred, MixedTypeComparisonStaysUnknown) {
  // Value::Compare aborts on cross-type operands; the folder must guard.
  EXPECT_EQ(FoldPred(*Eq(Int(1), Str("1"))), FoldOutcome::kUnknown);
  EXPECT_EQ(FoldPred(*Lt(BoolLit(true), Int(1))), FoldOutcome::kUnknown);
}

TEST(FoldPred, NonConstantComparisonStaysUnknown) {
  EXPECT_EQ(FoldPred(*Eq(FieldRef("r", "a"), Int(1))), FoldOutcome::kUnknown);
  EXPECT_EQ(FoldPred(*Eq(Param("P"), Param("Q"))), FoldOutcome::kUnknown);
}

TEST(FoldPred, ReflexiveComparisonsFoldSyntactically) {
  EXPECT_EQ(FoldPred(*Eq(FieldRef("r", "a"), FieldRef("r", "a"))),
            FoldOutcome::kTrue);
  EXPECT_EQ(FoldPred(*Le(FieldRef("r", "a"), FieldRef("r", "a"))),
            FoldOutcome::kTrue);
  EXPECT_EQ(FoldPred(*Cmp(CompareOp::kGe, Param("P"), Param("P"))),
            FoldOutcome::kTrue);
  EXPECT_EQ(FoldPred(*Ne(FieldRef("r", "a"), FieldRef("r", "a"))),
            FoldOutcome::kFalse);
  EXPECT_EQ(FoldPred(*Lt(FieldRef("r", "a"), FieldRef("r", "a"))),
            FoldOutcome::kFalse);
  // Different field of the same variable: genuinely unknown.
  EXPECT_EQ(FoldPred(*Eq(FieldRef("r", "a"), FieldRef("r", "b"))),
            FoldOutcome::kUnknown);
}

TEST(FoldPred, ThreeValuedAnd) {
  PredPtr unknown = Eq(FieldRef("r", "a"), Int(1));
  EXPECT_EQ(FoldPred(*And({True(), True()})), FoldOutcome::kTrue);
  EXPECT_EQ(FoldPred(*And({True(), False()})), FoldOutcome::kFalse);
  // One FALSE conjunct decides the AND even next to unknowns.
  EXPECT_EQ(FoldPred(*And({unknown, False()})), FoldOutcome::kFalse);
  EXPECT_EQ(FoldPred(*And({unknown, True()})), FoldOutcome::kUnknown);
}

TEST(FoldPred, ThreeValuedOr) {
  PredPtr unknown = Eq(FieldRef("r", "a"), Int(1));
  EXPECT_EQ(FoldPred(*Or({False(), False()})), FoldOutcome::kFalse);
  EXPECT_EQ(FoldPred(*Or({unknown, True()})), FoldOutcome::kTrue);
  EXPECT_EQ(FoldPred(*Or({unknown, False()})), FoldOutcome::kUnknown);
}

TEST(FoldPred, MixedUnknownAndErrorOperands) {
  // Two flavours of undecidable operand: a data-dependent comparison and a
  // comparison whose term *errors* at fold time (division by zero). The
  // three-valued connectives must treat both as unknown — an absorbing
  // operand still decides the result, everything else stays kUnknown.
  PredPtr unknown = Eq(FieldRef("r", "a"), Int(1));
  PredPtr error = Eq(Arith(ArithOp::kDiv, Int(1), Int(0)), Int(1));
  PredPtr mod_error = Ne(Arith(ArithOp::kMod, Int(7), Int(0)), Int(0));
  EXPECT_EQ(FoldPred(*error), FoldOutcome::kUnknown);
  EXPECT_EQ(FoldPred(*mod_error), FoldOutcome::kUnknown);

  EXPECT_EQ(FoldPred(*And({error, False()})), FoldOutcome::kFalse);
  EXPECT_EQ(FoldPred(*And({error, unknown})), FoldOutcome::kUnknown);
  EXPECT_EQ(FoldPred(*And({error, True()})), FoldOutcome::kUnknown);
  EXPECT_EQ(FoldPred(*And({error, mod_error})), FoldOutcome::kUnknown);

  EXPECT_EQ(FoldPred(*Or({error, True()})), FoldOutcome::kTrue);
  EXPECT_EQ(FoldPred(*Or({error, unknown})), FoldOutcome::kUnknown);
  EXPECT_EQ(FoldPred(*Or({error, False()})), FoldOutcome::kUnknown);

  EXPECT_EQ(FoldPred(*Not(error)), FoldOutcome::kUnknown);
  EXPECT_EQ(FoldPred(*Not(Not(error))), FoldOutcome::kUnknown);
}

TEST(FoldPred, MixedOperandsNestDecidably) {
  PredPtr unknown = Eq(FieldRef("r", "a"), Int(1));
  PredPtr error = Eq(Arith(ArithOp::kDiv, Int(1), Int(0)), Int(1));
  // Absorption cuts through nested mixtures of unknown and error operands.
  EXPECT_EQ(FoldPred(*And({Or({error, unknown}), False()})),
            FoldOutcome::kFalse);
  EXPECT_EQ(FoldPred(*Or({And({error, unknown}), True()})),
            FoldOutcome::kTrue);
  EXPECT_EQ(FoldPred(*Not(And({error, False()}))), FoldOutcome::kTrue);
  EXPECT_EQ(FoldPred(*Not(Or({unknown, True()}))), FoldOutcome::kFalse);
  // ...but without an absorbing operand the mixture stays undecided.
  EXPECT_EQ(FoldPred(*And({Or({error, False()}), True()})),
            FoldOutcome::kUnknown);
}

TEST(FoldPred, NotInverts) {
  EXPECT_EQ(FoldPred(*Not(True())), FoldOutcome::kFalse);
  EXPECT_EQ(FoldPred(*Not(False())), FoldOutcome::kTrue);
  EXPECT_EQ(FoldPred(*Not(Eq(FieldRef("r", "a"), Int(1)))),
            FoldOutcome::kUnknown);
}

TEST(FoldPred, QuantifierRules) {
  // SOME over a FALSE body is vacuously FALSE; ALL over a TRUE body is
  // vacuously TRUE — both independent of the range's contents.
  EXPECT_EQ(FoldPred(*Some("t", Rel("R"), False())), FoldOutcome::kFalse);
  EXPECT_EQ(FoldPred(*All("t", Rel("R"), True())), FoldOutcome::kTrue);
  // The converse directions depend on whether the range is empty.
  EXPECT_EQ(FoldPred(*Some("t", Rel("R"), True())), FoldOutcome::kUnknown);
  EXPECT_EQ(FoldPred(*All("t", Rel("R"), False())), FoldOutcome::kUnknown);
}

TEST(FoldPred, MembershipStaysUnknown) {
  std::vector<TermPtr> tuple;
  tuple.push_back(Int(1));
  EXPECT_EQ(FoldPred(*In(std::move(tuple), Rel("R"))), FoldOutcome::kUnknown);
}

}  // namespace
}  // namespace datacon
