#include "cache/fingerprint.hpp"

#include "semantic/pattern.hpp"

namespace senids::cache {

namespace {

void hash_str(Sha256& ctx, std::string_view s) {
  // Length-prefixed so "ab"+"c" and "a"+"bc" hash differently.
  const std::uint64_t n = s.size();
  ctx.update(&n, sizeof n);
  ctx.update(s.data(), s.size());
}

void hash_pattern(Sha256& ctx, const semantic::PatPtr& p) {
  // to_string() is the canonical structural rendering (kind, operator,
  // variables, children); two patterns that render identically match
  // identically.
  hash_str(ctx, semantic::to_string(p));
}

}  // namespace

void hash_option(Sha256& ctx, std::string_view label, std::uint64_t value) {
  hash_str(ctx, label);
  ctx.update(&value, sizeof value);
}

Digest unit_key(const Digest& config_fingerprint, util::ByteView unit,
                bool allow_simd) noexcept {
  Sha256 ctx(allow_simd);
  ctx.update(config_fingerprint.data(), config_fingerprint.size());
  ctx.update(unit);
  return ctx.finish();
}

void hash_templates(Sha256& ctx, const std::vector<semantic::Template>& templates) {
  hash_option(ctx, "template_count", templates.size());
  for (const semantic::Template& t : templates) {
    hash_str(ctx, t.name);
    hash_option(ctx, "threat", static_cast<std::uint64_t>(t.threat));
    hash_option(ctx, "stmts", t.stmts.size());
    for (const semantic::Stmt& s : t.stmts) {
      hash_option(ctx, "kind", static_cast<std::uint64_t>(s.kind));
      hash_pattern(ctx, s.addr);
      hash_pattern(ctx, s.value);
      hash_option(ctx, "width", s.width);
      hash_option(ctx, "invertible", s.require_invertible ? 1 : 0);
      hash_str(ctx, s.ref_var);
      hash_option(ctx, "vector", s.vector);
      hash_option(ctx, "sysno", s.sysno ? 0x100u + *s.sysno : 0);
      hash_option(ctx, "ebx_low", s.ebx_low ? 0x100u + *s.ebx_low : 0);
      hash_str(ctx, s.ebx_points_to);
    }
  }
}

}  // namespace senids::cache
