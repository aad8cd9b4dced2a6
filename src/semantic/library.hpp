// Built-in template library reproducing the paper's template set:
//  - xor decryption loop        (Figures 1/2, Table 2 "xor template")
//  - additive decryption loop   (equivalent-instruction variant)
//  - ADMmutate alternate decoder: mov/or/and/not over one memory
//    location and register pair (Figure 7, the template that lifts
//    ADMmutate detection from 68% to 100%)
//  - Linux shell spawning, immediate and port-bound (Figure 6, Table 1)
//  - Code Red II exploitation vector (Table 3)
//  - rotate decryption loop     (opt-in extension beyond the paper's set)
//
// The templates are defined once, in the DSL files templates/standard.tmpl
// and templates/extended.tmpl. The build embeds both files; each set is
// parsed on first use and every call below returns a copy of that parse.
#pragma once

#include <string_view>
#include <vector>

#include "semantic/template.hpp"

namespace senids::semantic {

/// The xor template alone — the configuration that yielded the paper's
/// initial 68% ADMmutate detection rate (Section 5.2).
std::vector<Template> make_xor_only_library();

/// Decryption-loop templates only (xor + additive + alternate).
std::vector<Template> make_decoder_library();

/// The full standard library used by the NIDS in every experiment
/// (templates/standard.tmpl).
std::vector<Template> make_standard_library();

/// Standard library plus the opt-in extension templates of
/// templates/extended.tmpl (currently the rotate decoder). The rotate
/// template is deliberately NOT in the standard set: rotation is the one
/// invertible byte transform that coincidental code-shaped data produces
/// at measurable rates, and the paper's zero-false-positive result
/// depends on "high quality templates" — template selection is a
/// precision decision.
std::vector<Template> make_extended_library();

/// One built-in template (standard or extended) by name, for tests and
/// ablations. Throws std::out_of_range for a name neither file defines.
Template library_template(std::string_view name);

/// The embedded DSL text of templates/standard.tmpl and
/// templates/extended.tmpl, as compiled into this binary.
std::string_view standard_library_source() noexcept;
std::string_view extended_library_source() noexcept;

}  // namespace senids::semantic
