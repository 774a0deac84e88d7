#include "ra/eval.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "ast/builder.h"
#include "ast/printer.h"

namespace datacon {
namespace {

using namespace build;  // NOLINT: terse AST construction in tests

/// Resolver over a fixed set of named relations (plain bases only).
class MapResolver : public RelationResolver {
 public:
  void Add(std::string name, Relation rel) {
    relations_.emplace(std::move(name), std::move(rel));
  }
  Result<const Relation*> Resolve(const Range& range) const override {
    auto it = relations_.find(range.relation());
    if (it == relations_.end()) {
      return Status::NotFound("relation '" + range.relation() + "'");
    }
    return &it->second;
  }

 private:
  std::map<std::string, Relation> relations_;
};

class EvalTest : public ::testing::Test {
 protected:
  EvalTest() : schema_({{"front", ValueType::kString},
                        {"back", ValueType::kString}}) {
    tuple_ = Tuple({Value::String("vase"), Value::String("table")});
    env_.Bind("r", &tuple_, &schema_);
    env_.BindParam("Obj", Value::String("vase"));
  }

  Value Eval(const TermPtr& term) {
    Evaluator eval(&resolver_);
    Result<Value> v = eval.EvalTerm(*term, env_);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return v.ok() ? v.value() : Value();
  }

  bool Holds(const PredPtr& pred) {
    Evaluator eval(&resolver_);
    Result<bool> v = eval.EvalPred(*pred, env_);
    EXPECT_TRUE(v.ok()) << v.status().ToString() << " in " << ToString(*pred);
    return v.ok() && v.value();
  }

  Schema schema_;
  Tuple tuple_;
  Environment env_;
  MapResolver resolver_;
};

TEST_F(EvalTest, Literals) {
  EXPECT_EQ(Eval(Int(3)), Value::Int(3));
  EXPECT_EQ(Eval(Str("x")), Value::String("x"));
  EXPECT_EQ(Eval(BoolLit(false)), Value::Bool(false));
}

TEST_F(EvalTest, FieldRef) {
  EXPECT_EQ(Eval(FieldRef("r", "front")), Value::String("vase"));
  EXPECT_EQ(Eval(FieldRef("r", "back")), Value::String("table"));
}

TEST_F(EvalTest, ParamRef) {
  EXPECT_EQ(Eval(Param("Obj")), Value::String("vase"));
}

TEST_F(EvalTest, UnboundVariableFails) {
  Evaluator eval(&resolver_);
  EXPECT_EQ(eval.EvalTerm(*FieldRef("zz", "a"), env_).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(eval.EvalTerm(*Param("zz"), env_).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(eval.EvalTerm(*FieldRef("r", "no_field"), env_).status().code(),
            StatusCode::kNotFound);
}

TEST_F(EvalTest, Arithmetic) {
  EXPECT_EQ(Eval(Add(Int(2), Int(3))), Value::Int(5));
  EXPECT_EQ(Eval(Sub(Int(2), Int(3))), Value::Int(-1));
  EXPECT_EQ(Eval(Arith(ArithOp::kMul, Int(4), Int(5))), Value::Int(20));
  EXPECT_EQ(Eval(Arith(ArithOp::kDiv, Int(17), Int(5))), Value::Int(3));
  EXPECT_EQ(Eval(Arith(ArithOp::kMod, Int(17), Int(5))), Value::Int(2));
}

TEST_F(EvalTest, DivisionByZeroFails) {
  Evaluator eval(&resolver_);
  EXPECT_FALSE(
      eval.EvalTerm(*Arith(ArithOp::kDiv, Int(1), Int(0)), env_).ok());
  EXPECT_FALSE(
      eval.EvalTerm(*Arith(ArithOp::kMod, Int(1), Int(0)), env_).ok());
}

TEST_F(EvalTest, IntegerOverflowFailsInBothVariants) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  for (bool proven : {false, true}) {
    Evaluator eval(&resolver_, proven);
    for (const TermPtr& t :
         {Add(Int(kMax), Int(1)), Sub(Int(kMin), Int(1)),
          Arith(ArithOp::kMul, Int(kMax), Int(2)),
          Arith(ArithOp::kDiv, Int(kMin), Int(-1))}) {
      EXPECT_EQ(eval.EvalTerm(*t, env_).status().code(),
                StatusCode::kInvalidArgument)
          << ToString(*t) << " proven=" << proven;
    }
    // The exact remainder, not the hardware trap.
    Result<Value> mod =
        eval.EvalTerm(*Arith(ArithOp::kMod, Int(kMin), Int(-1)), env_);
    ASSERT_TRUE(mod.ok()) << mod.status().ToString();
    EXPECT_EQ(*mod, Value::Int(0));
  }
}

TEST_F(EvalTest, ArithmeticOverStringsFails) {
  Evaluator eval(&resolver_);
  EXPECT_EQ(eval.EvalTerm(*Add(Str("a"), Int(1)), env_).status().code(),
            StatusCode::kTypeError);
}

TEST_F(EvalTest, Comparisons) {
  EXPECT_TRUE(Holds(Eq(FieldRef("r", "front"), Str("vase"))));
  EXPECT_FALSE(Holds(Eq(FieldRef("r", "front"), Str("table"))));
  EXPECT_TRUE(Holds(Ne(FieldRef("r", "front"), FieldRef("r", "back"))));
  EXPECT_TRUE(Holds(Lt(Int(1), Int(2))));
  EXPECT_TRUE(Holds(Le(Int(2), Int(2))));
  EXPECT_TRUE(Holds(Cmp(CompareOp::kGt, Int(3), Int(2))));
  EXPECT_TRUE(Holds(Cmp(CompareOp::kGe, Str("b"), Str("a"))));
}

TEST_F(EvalTest, ComparisonAcrossTypesFails) {
  Evaluator eval(&resolver_);
  EXPECT_EQ(eval.EvalPred(*Eq(Int(1), Str("1")), env_).status().code(),
            StatusCode::kTypeError);
}

TEST_F(EvalTest, BooleanConnectives) {
  EXPECT_TRUE(Holds(True()));
  EXPECT_FALSE(Holds(False()));
  EXPECT_TRUE(Holds(And({True(), True()})));
  EXPECT_FALSE(Holds(And({True(), False()})));
  EXPECT_TRUE(Holds(And({})));  // empty conjunction
  EXPECT_TRUE(Holds(Or({False(), True()})));
  EXPECT_FALSE(Holds(Or({})));  // empty disjunction
  EXPECT_TRUE(Holds(Not(False())));
  EXPECT_FALSE(Holds(Not(True())));
}

TEST_F(EvalTest, ShortCircuitSkipsErrors) {
  // AND stops at the first false operand; the ill-typed second operand is
  // never evaluated.
  EXPECT_FALSE(Holds(And({False(), Eq(Int(1), Str("1"))})));
  EXPECT_TRUE(Holds(Or({True(), Eq(Int(1), Str("1"))})));
}

class QuantifierTest : public EvalTest {
 protected:
  QuantifierTest() {
    Relation numbers(Schema({{"v", ValueType::kInt}}));
    for (int i : {1, 2, 3}) {
      EXPECT_TRUE(numbers.Insert(Tuple({Value::Int(i)})).ok());
    }
    resolver_.Add("Numbers", std::move(numbers));
    resolver_.Add("Empty", Relation(Schema({{"v", ValueType::kInt}})));
  }
};

TEST_F(QuantifierTest, Some) {
  EXPECT_TRUE(Holds(Some("n", Rel("Numbers"), Eq(FieldRef("n", "v"), Int(2)))));
  EXPECT_FALSE(Holds(Some("n", Rel("Numbers"), Eq(FieldRef("n", "v"), Int(9)))));
  EXPECT_FALSE(Holds(Some("n", Rel("Empty"), True())));
}

TEST_F(QuantifierTest, All) {
  EXPECT_TRUE(Holds(All("n", Rel("Numbers"), Lt(FieldRef("n", "v"), Int(10)))));
  EXPECT_FALSE(Holds(All("n", Rel("Numbers"), Lt(FieldRef("n", "v"), Int(3)))));
  // Vacuously true on the empty range.
  EXPECT_TRUE(Holds(All("n", Rel("Empty"), False())));
}

TEST_F(QuantifierTest, NestedQuantifiers) {
  // SOME n (ALL m (n.v >= m.v)) — there is a maximum.
  EXPECT_TRUE(Holds(Some(
      "n", Rel("Numbers"),
      All("m", Rel("Numbers"),
          Cmp(CompareOp::kGe, FieldRef("n", "v"), FieldRef("m", "v"))))));
  // ALL n (SOME m (m.v > n.v)) — false: 3 has no strict successor.
  EXPECT_FALSE(Holds(All(
      "n", Rel("Numbers"),
      Some("m", Rel("Numbers"),
           Cmp(CompareOp::kGt, FieldRef("m", "v"), FieldRef("n", "v"))))));
}

TEST_F(QuantifierTest, QuantifierSeesOuterBindings) {
  // r.front = "vase" is in scope inside the quantifier body.
  EXPECT_TRUE(Holds(Some("n", Rel("Numbers"),
                         Eq(FieldRef("r", "front"), Str("vase")))));
}

TEST_F(QuantifierTest, Membership) {
  EXPECT_TRUE(Holds(In({Int(2)}, Rel("Numbers"))));
  EXPECT_FALSE(Holds(In({Int(9)}, Rel("Numbers"))));
  EXPECT_FALSE(Holds(In({Int(1)}, Rel("Empty"))));
}

TEST_F(QuantifierTest, MissingResolverIsInternalError) {
  Evaluator eval(nullptr);
  EXPECT_EQ(eval.EvalPred(*Some("n", Rel("Numbers"), True()), env_)
                .status()
                .code(),
            StatusCode::kInternal);
}

}  // namespace
}  // namespace datacon
