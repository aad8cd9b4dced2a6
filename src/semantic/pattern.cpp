#include "semantic/pattern.hpp"

#include <cstdio>

#include "semantic/matcher.hpp"

namespace senids::semantic {

using ir::ExprPtr;

PatPtr p_any(std::string var) {
  auto p = std::make_shared<Pattern>();
  p->kind = PatKind::kAny;
  p->var = std::move(var);
  return p;
}

PatPtr p_const(std::string var, bool nonzero) {
  auto p = std::make_shared<Pattern>();
  p->kind = PatKind::kConst;
  p->var = std::move(var);
  p->require_nonzero = nonzero;
  return p;
}

PatPtr p_fixed(std::uint32_t value) {
  auto p = std::make_shared<Pattern>();
  p->kind = PatKind::kFixedConst;
  p->fixed = value;
  return p;
}

PatPtr p_load(PatPtr addr) {
  auto p = std::make_shared<Pattern>();
  p->kind = PatKind::kLoad;
  p->a = std::move(addr);
  return p;
}

PatPtr p_bin(ir::BinOp op, PatPtr a, PatPtr b) {
  auto p = std::make_shared<Pattern>();
  p->kind = PatKind::kBin;
  p->bop = op;
  p->a = std::move(a);
  p->b = std::move(b);
  return p;
}

PatPtr p_un(ir::UnOp op, PatPtr x) {
  auto p = std::make_shared<Pattern>();
  p->kind = PatKind::kUn;
  p->uop = op;
  p->a = std::move(x);
  return p;
}

PatPtr p_transform(PatPtr base, std::vector<ir::BinOp> allowed, bool allow_not,
                   bool require_const_leaf) {
  auto p = std::make_shared<Pattern>();
  p->kind = PatKind::kTransform;
  p->base = std::move(base);
  p->allowed = std::move(allowed);
  p->allow_not = allow_not;
  p->require_const_leaf = require_const_leaf;
  return p;
}

bool match_expr(const PatPtr& p, ExprPtr e, Env& env) {
  PatternProgram program;
  const std::int32_t root = program.add(p);
  TraceMatcher matcher;
  return matcher.match_pattern(program, root, e, env);
}

std::string to_string(const PatPtr& p) {
  if (!p) return "null";
  auto with_var = [&p](std::string s) {
    if (!p->var.empty()) s += ":" + p->var;
    return s;
  };
  switch (p->kind) {
    case PatKind::kAny: return with_var("*");
    case PatKind::kConst: return with_var(p->require_nonzero ? "const!0" : "const");
    case PatKind::kFixedConst: {
      char buf[16];
      std::snprintf(buf, sizeof buf, "0x%x", p->fixed);
      return buf;
    }
    case PatKind::kLoad: return "load(" + to_string(p->a) + ")";
    case PatKind::kBin:
      return std::string(ir::binop_name(p->bop)) + "(" + to_string(p->a) + ", " +
             to_string(p->b) + ")";
    case PatKind::kUn:
      return std::string(p->uop == ir::UnOp::kNot ? "not" : "neg") + "(" + to_string(p->a) +
             ")";
    case PatKind::kTransform: {
      std::string ops;
      for (auto op : p->allowed) {
        if (!ops.empty()) ops += "|";
        ops += ir::binop_name(op);
      }
      if (p->allow_not) ops += "|not";
      return "transform<" + ops + ">(" + to_string(p->base) + ")";
    }
  }
  return "?";
}

}  // namespace senids::semantic
