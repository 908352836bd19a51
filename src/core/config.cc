#include "core/config.hh"

#include "sim/logging.hh"

namespace cwsp::core {

void
syncFeatureFlags(SystemConfig &config)
{
    config.hierarchy.wbPersistDelay = config.scheme.features.wbDelay;
    config.hierarchy.wpqLoadDelay = config.scheme.features.wpqDelay;
}

SystemConfig
makeSystemConfig(const std::string &scheme_name)
{
    SystemConfig cfg;
    cfg.hierarchy = mem::defaultHierarchy();
    cfg.scheme.name = scheme_name;

    if (scheme_name == "baseline") {
        cfg.compiler = compiler::baselineOptions();
        cfg.scheme.features = arch::CwspFeatures{};
        cfg.scheme.features.persistPath = false;
        cfg.scheme.features.wbDelay = false;
        cfg.scheme.features.wpqDelay = false;
    } else if (scheme_name == "cwsp") {
        cfg.compiler = compiler::cwspOptions();
        cfg.hierarchy.dropLlcDirtyEvictions = true;
    } else if (scheme_name == "capri") {
        cfg.compiler = compiler::capriOptions();
        cfg.hierarchy.dropLlcDirtyEvictions = true;
        // Capri scans its proxy buffer before releasing DRAM-cache
        // evictions and must wait the worst-case delivery latency
        // (Section II-D).
        cfg.hierarchy.dramEvictionDelay = 40;
        cfg.scheme.batteryBacked = true;
        cfg.scheme.features.wbDelay = false;
        cfg.scheme.features.wpqDelay = false;
    } else if (scheme_name == "ido") {
        cfg.compiler = compiler::idoOptions();
        cfg.hierarchy.dropLlcDirtyEvictions = true;
        cfg.scheme.features.wbDelay = false;
        cfg.scheme.features.wpqDelay = false;
        cfg.scheme.features.stallAtBoundaries = true;
    } else if (scheme_name == "replaycache") {
        cfg.compiler = compiler::replayCacheOptions();
        cfg.scheme.features.persistPath = false;
        cfg.scheme.features.wbDelay = false;
        cfg.scheme.features.wpqDelay = false;
    } else if (scheme_name == "psp") {
        cfg.compiler = compiler::baselineOptions();
        cfg.hierarchy.hasDramCache = false;
        cfg.scheme.features.persistPath = false;
        cfg.scheme.features.wbDelay = false;
        cfg.scheme.features.wpqDelay = false;
    } else {
        cwsp_fatal("unknown scheme preset: ", scheme_name);
    }
    syncFeatureFlags(cfg);
    return cfg;
}

const std::vector<std::string> &
schemeNames()
{
    static const std::vector<std::string> names = {
        "baseline", "cwsp", "capri", "ido", "replaycache", "psp"};
    return names;
}

} // namespace cwsp::core
