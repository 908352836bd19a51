#include "core/consistency_checker.hh"

#include <cstring>

#include "sim/logging.hh"

namespace cwsp::core {

CheckResult
checkGlobals(const ir::Module &module,
             const interp::SparseMemory &expected,
             const interp::SparseMemory &actual)
{
    CheckResult result;
    for (const auto &g : module.globals()) {
        cwsp_assert((g.base & 7) == 0, "misaligned global ", g.name);
        const Addr end =
            g.base + (g.sizeBytes + kWordBytes - 1) / kWordBytes *
                         kWordBytes;
        // Both images page the same address space, so each chunk of
        // one lines up with exactly one chunk of the other.
        expected.forEachChunk(g.base, end, [&](Addr at, const Word *e,
                                               std::size_t n) {
            actual.forEachChunk(
                at, at + n * kWordBytes,
                [&](Addr, const Word *v, std::size_t) {
                    if (e == nullptr && v == nullptr)
                        return;
                    if (e && v &&
                        std::memcmp(e, v, n * sizeof(Word)) == 0)
                        return;
                    for (std::size_t w = 0; w < n; ++w) {
                        const Word ew = e ? e[w] : 0;
                        const Word vw = v ? v[w] : 0;
                        if (ew == vw)
                            continue;
                        result.consistent = false;
                        ++result.totalDivergences;
                        if (result.divergences.size() < 16) {
                            result.divergences.push_back(Divergence{
                                at + w * kWordBytes, ew, vw, g.name});
                        }
                    }
                });
        });
    }
    return result;
}

} // namespace cwsp::core
