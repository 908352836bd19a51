/**
 * @file
 * Top-level system configuration: bundles the compiler options, the
 * memory hierarchy, and the persistence scheme into one consistent
 * design point, with presets for every configuration the paper
 * evaluates.
 */

#ifndef CWSP_CORE_CONFIG_HH
#define CWSP_CORE_CONFIG_HH

#include <string>
#include <vector>

#include "arch/scheme.hh"
#include "compiler/baseline_lowering.hh"
#include "compiler/compiler.hh"
#include "mem/hierarchy.hh"

namespace cwsp::core {

/** A complete design point. */
struct SystemConfig
{
    compiler::CompilerOptions compiler;
    mem::HierarchyConfig hierarchy;
    arch::SchemeConfig scheme;
    std::uint32_t numCores = 1;
};

/**
 * Preset for @p scheme_name ∈ {baseline, cwsp, capri, ido,
 * replaycache, psp}, with all cross-cutting flags (LLC eviction
 * dropping, WB/WPQ delays, DRAM-cache presence, compiler profile) set
 * consistently. Callers tweak fields afterwards for sweeps.
 */
SystemConfig makeSystemConfig(const std::string &scheme_name);

/** Every preset makeSystemConfig() knows, in the paper's figure order. */
const std::vector<std::string> &schemeNames();

/** Apply the cWSP WB/WPQ feature flags onto the hierarchy config. */
void syncFeatureFlags(SystemConfig &config);

} // namespace cwsp::core

#endif // CWSP_CORE_CONFIG_HH
