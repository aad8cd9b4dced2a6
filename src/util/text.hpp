// String building shared by every text renderer: the Prometheus and JSON
// exporters, /statusz and /tracez, the flight recorder dump, Report::str()
// and senids_scan --json.
#pragma once

#include <string>
#include <string_view>

namespace senids::util {

/// printf into a growing string: measures first, then formats into the
/// exact space. No fixed buffer, so long names never truncate.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void append_format(std::string& out, const char* fmt, ...);

/// Escape `s` for use inside a JSON string literal: quote and backslash
/// are backslash-escaped, control bytes become \u00XX, everything else
/// (including UTF-8 sequences) passes through unchanged.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace senids::util
