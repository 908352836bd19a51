/**
 * @file
 * --trace-mask spec parsing for the tools' shared option table
 * (tools/cli.cc). Lives apart from sim/trace.hh so the
 * hot-path tracing header does not pull in parsing/stream machinery.
 */

#ifndef CWSP_SIM_TRACE_MASK_HH
#define CWSP_SIM_TRACE_MASK_HH

#include <cstdint>
#include <string>

namespace cwsp::sim {

/**
 * Parse a trace-mask spec into a category bitmask. Accepts a
 * comma-separated list of symbolic category names ("region,pb,rbt"),
 * the aliases "all"/"none", and hex literals ("0x1f"); list entries
 * may mix forms ("region,0x40"). Unknown names or malformed hex
 * raise cwsp_fatal listing the valid choices.
 */
std::uint32_t parseTraceMask(const std::string &spec);

/** One-line help text for --trace-mask usage strings. */
const char *traceMaskHelp();

} // namespace cwsp::sim

#endif // CWSP_SIM_TRACE_MASK_HH
