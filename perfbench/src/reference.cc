#include "reference.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::string
encodeResult(const cwsp::core::RunResult &r)
{
    std::ostringstream os;
    os << r.cycles << ' ' << r.instructions << ' ' << r.returnValues.size();
    for (auto v : r.returnValues)
        os << ' ' << v;
    os << ' ' << r.wpqHits << ' ' << r.nvmReads << ' ' << r.l1Accesses
       << ' ' << r.l1Misses << ' ' << r.dramCacheHits << ' '
       << r.dramCacheMisses << ' ' << r.pbFullStalls << ' '
       << r.rbtFullStalls << ' ' << r.wbPersistDelays;
    // Hex floats round-trip exactly.
    char buf[64];
    std::snprintf(buf, sizeof buf, " %a %a", r.meanRegionInstrs,
                  r.meanWbOccupancy);
    os << buf;
    return os.str();
}

bool
loadReference(const std::string &path, Reference &out, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open reference " + path;
        return false;
    }
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        const auto sp = line.find(' ');
        if (sp == std::string::npos || sp == 0 || sp + 1 == line.size()) {
            err = path + ":" + std::to_string(lineNo) + ": malformed entry";
            return false;
        }
        out[line.substr(0, sp)] = line.substr(sp + 1);
    }
    if (out.empty()) {
        err = "empty reference " + path;
        return false;
    }
    return true;
}

void
writeReference(std::ostream &os, const Reference &ref)
{
    for (const auto &[label, enc] : ref)
        os << label << ' ' << enc << '\n';
}

bool
matchesReference(const Reference &ref, const std::string &label,
                 const cwsp::core::RunResult &r)
{
    auto it = ref.find(label);
    return it != ref.end() && it->second == encodeResult(r);
}

} // namespace perfbench
