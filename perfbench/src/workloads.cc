#include "workloads.hh"

#include <sstream>

#include "core/config.hh"
#include "mem/nvm_device.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace cw = cwsp;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

namespace {

/** Points drawn per app from its 216-point grid by designSweepOps(). */
constexpr std::size_t kDesignDrawPerApp = 64;

/** Seeded Fisher-Yates (portable, unlike std::shuffle). */
template <typename T>
void
shuffle(std::vector<T> &v, std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (std::size_t i = v.size(); i > 1; --i) {
        s = mix64(s);
        std::swap(v[i - 1], v[s % i]);
    }
}

Op
makeOp(const std::string &label, const std::string &app,
       const std::string &scheme, const cw::core::SystemConfig &config)
{
    Op op;
    op.label = label;
    op.app = app;
    op.scheme = scheme;
    op.point.app = cw::workloads::appByName(app);
    op.point.config = config;
    return op;
}

} // namespace

void
shuffleOps(std::vector<Op> &ops, std::uint64_t seed)
{
    shuffle(ops, seed);
}

std::vector<Op>
paperSweepOps(std::uint64_t seed)
{
    std::vector<Op> ops;
    for (const auto &app : cw::workloads::appTable()) {
        for (const auto &scheme : cw::fault::allSchemeNames()) {
            ops.push_back(makeOp("paper/" + app.name + "/" + scheme,
                                 app.name, scheme,
                                 cw::core::makeSystemConfig(scheme)));
        }
    }
    shuffle(ops, mix64(seed ^ 0x5eedull));
    return ops;
}

const std::vector<std::string> &
designApps()
{
    // Memory-intensive (lbm, xsbench, tpcc) and compute-bound (fft).
    static const std::vector<std::string> apps = {"fft", "lbm", "tpcc",
                                                  "xsbench"};
    return apps;
}

std::vector<Op>
designGrid()
{
    std::vector<Op> ops;
    for (const auto &app : designApps()) {
        for (unsigned pb : {8u, 16u, 50u})
            for (unsigned rbt : {4u, 16u})
                for (unsigned wpq : {16u, 24u, 64u})
                    for (double bw : {2.0, 4.0, 10.0})
                        for (unsigned lat : {10u, 30u})
                            for (const char *tech : {"pmem", "reram"}) {
                                auto cfg =
                                    cw::core::makeSystemConfig("cwsp");
                                cfg.scheme.pbCapacity = pb;
                                cfg.scheme.rbtCapacity = rbt;
                                cfg.hierarchy.wpqCapacity = wpq;
                                cfg.scheme.path.bandwidthGBs = bw;
                                cfg.scheme.path.oneWayLatency = lat;
                                cfg.hierarchy.tech =
                                    cw::mem::nvmTechByName(tech);
                                std::ostringstream l;
                                l << "design/" << app << "/pb" << pb
                                  << "-rbt" << rbt << "-wpq" << wpq
                                  << "-bw" << bw << "-lat" << lat << "-"
                                  << tech;
                                ops.push_back(
                                    makeOp(l.str(), app, "cwsp", cfg));
                            }
    }
    return ops;
}

std::vector<Op>
designSweepOps(std::uint64_t seed)
{
    const std::vector<Op> grid = designGrid();
    const std::size_t perApp = grid.size() / designApps().size();
    std::vector<Op> ops;
    for (std::size_t a = 0; a < designApps().size(); ++a) {
        std::vector<std::size_t> idx(perApp);
        for (std::size_t i = 0; i < perApp; ++i)
            idx[i] = a * perApp + i;
        shuffle(idx, mix64(seed * 131 + a));
        for (std::size_t i = 0; i < kDesignDrawPerApp && i < perApp; ++i)
            ops.push_back(grid[idx[i]]);
    }
    shuffle(ops, mix64(seed ^ 0xd5e1ull));
    return ops;
}

cw::fault::CampaignOptions
crashCampaignOptions(std::uint64_t seed, unsigned jobs)
{
    cw::fault::CampaignOptions o;
    o.apps = {"fft", "bzip2", "radix", "p", "tpcc",
              "cstack", "cqueue", "chash"};
    o.jobs = jobs;
    o.interleaveSeed = seed;
    return o;
}

} // namespace perfbench
