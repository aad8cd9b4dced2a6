// Configuration fingerprinting for the verdict cache. A cached verdict
// is only as trustworthy as the configuration that produced it: the same
// unit bytes analyzed under a different template set (or different
// analyzer/extractor/emulator knobs) may legitimately yield different
// alerts. Every cache key is therefore derived from
// SHA-256(config fingerprint || unit bytes), so changing any
// verdict-affecting option changes every key and a stale entry can never
// be served — invalidation by construction, no epochs or flush calls.
#pragma once

#include <vector>

#include "cache/sha256.hpp"
#include "semantic/template.hpp"

namespace senids::cache {

/// Absorb a stable serialization of the template set into `ctx`. Covers
/// everything the matcher consults: statement kinds, pattern structure
/// (via the canonical pattern rendering), widths, invertibility
/// requirements, syscall constraints, and template names/threat classes.
/// Free-text notes are excluded — they never influence matching.
void hash_templates(Sha256& ctx, const std::vector<semantic::Template>& templates);

/// Absorb one scalar option value. Tagging with a label keeps adjacent
/// fields from aliasing (two size_t options swapping values must change
/// the fingerprint).
void hash_option(Sha256& ctx, std::string_view label, std::uint64_t value);

/// The verdict-cache key of one unit: SHA-256(config_fingerprint || unit).
[[nodiscard]] Digest unit_key(const Digest& config_fingerprint, util::ByteView unit,
                              bool allow_simd = true) noexcept;

}  // namespace senids::cache
