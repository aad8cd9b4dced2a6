// The traced run: drives every hot-path layer through its public
// functions, one call at a time, with a span around each call, and
// derives the per-layer metrics from the spans and the layers' own
// counters. It must do the same work as process_capture: its unit count,
// frame count and alert set are checked against an untraced Report.
#pragma once

#include <string>
#include <vector>

#include "checks.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Run the traced pass over `w`, spending about `seconds` on the
/// interleaved metrics-on/off pairs. Writes the spans as Chrome
/// trace-event JSON to `trace_out` when it is not empty.
RunResult run_traced(const Workload& w, double seconds, const std::string& trace_out,
                     CheckLog& log);

}  // namespace perfbench
