// Layer probes of the traced run: wall time of direct calls into one
// layer's public functions, each repeated and reported as a median, plus
// Table 4's per-verb virtualization overhead (guest library vs raw verbs).
#pragma once

#include <map>
#include <string>

#include "spans.hpp"

namespace migrbench {

/// Run every probe and add its metrics to `out`:
///   sim.dispatch_ns, rnic.parse_ns, proc.write_ns.byte, proc.write_ns.page,
///   criu.dump_ns_per_page, migr.virt_overhead.<op>{,.q1,.q3}.
void run_probes(std::map<std::string, double>& out, SpanLog& spans);

}  // namespace migrbench
