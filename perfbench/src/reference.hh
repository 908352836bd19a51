/**
 * @file
 * Per-op reference results. Every simulated op of the sweep workloads
 * is checked against a stored entry (cycles, instructions, return
 * values, and the RunResult's modeled counts), keyed by the op's
 * label. Any difference, or a missing entry, fails the op.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <map>
#include <ostream>
#include <string>

#include "core/whole_system_sim.hh"

namespace perfbench {

/** Op label -> encoded result. */
using Reference = std::map<std::string, std::string>;

/** Exact, single-line encoding of every field of @p r. */
std::string encodeResult(const cwsp::core::RunResult &r);

/**
 * Read "<label> <encoded result>" lines from @p path into @p out.
 * Returns false (with @p err set) when the file is missing or a line
 * is malformed.
 */
bool loadReference(const std::string &path, Reference &out,
                   std::string &err);

/** Write @p ref in the format loadReference() reads. */
void writeReference(std::ostream &os, const Reference &ref);

/** True when @p ref holds @p label with exactly @p r's encoding. */
bool matchesReference(const Reference &ref, const std::string &label,
                      const cwsp::core::RunResult &r);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
