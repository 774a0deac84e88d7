#include <limits>
#include <memory>

#include "ast/builder.h"
#include "ast/pred.h"
#include "ast/range.h"
#include "ast/term.h"

namespace datacon {

std::string ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "DIV";
    case ArithOp::kMod:
      return "MOD";
  }
  return "?";
}

Result<int64_t> ApplyArith(ArithOp op, int64_t a, int64_t b) {
  int64_t out = 0;
  bool overflow = false;
  switch (op) {
    case ArithOp::kAdd:
      overflow = __builtin_add_overflow(a, b, &out);
      break;
    case ArithOp::kSub:
      overflow = __builtin_sub_overflow(a, b, &out);
      break;
    case ArithOp::kMul:
      overflow = __builtin_mul_overflow(a, b, &out);
      break;
    case ArithOp::kDiv:
      if (b == 0) return Status::InvalidArgument("division by zero");
      overflow = a == std::numeric_limits<int64_t>::min() && b == -1;
      if (!overflow) out = a / b;
      break;
    case ArithOp::kMod:
      if (b == 0) return Status::InvalidArgument("MOD by zero");
      out = b == -1 ? 0 : a % b;
      break;
  }
  if (overflow) {
    return Status::InvalidArgument(
        "integer overflow in " + std::to_string(a) + " " + ArithOpName(op) +
        " " + std::to_string(b));
  }
  return out;
}

std::string CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "#";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

bool Range::ContainsConstructor() const {
  for (const RangeApp& app : apps_) {
    if (app.kind == RangeApp::Kind::kConstructor) return true;
    for (const RangePtr& arg : app.range_args) {
      if (arg->ContainsConstructor()) return true;
    }
  }
  return false;
}

namespace build {

RangePtr Selected(const RangePtr& base, std::string name,
                  std::vector<TermPtr> args) {
  std::vector<RangeApp> apps = base->apps();
  RangeApp app;
  app.kind = RangeApp::Kind::kSelector;
  app.name = std::move(name);
  app.term_args = std::move(args);
  apps.push_back(std::move(app));
  return std::make_shared<Range>(base->relation(), std::move(apps));
}

RangePtr Constructed(const RangePtr& base, std::string name,
                     std::vector<RangePtr> args,
                     std::vector<TermPtr> scalar_args) {
  std::vector<RangeApp> apps = base->apps();
  RangeApp app;
  app.kind = RangeApp::Kind::kConstructor;
  app.name = std::move(name);
  app.range_args = std::move(args);
  app.term_args = std::move(scalar_args);
  apps.push_back(std::move(app));
  return std::make_shared<Range>(base->relation(), std::move(apps));
}

}  // namespace build
}  // namespace datacon
