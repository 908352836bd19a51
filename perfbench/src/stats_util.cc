#include "stats_util.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

#include <sys/resource.h>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail
tailPercentile(std::vector<double> v, std::size_t basis)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (basis == 0 || basis > n)
        basis = n;
    // Nearest rank: the smallest rank covering p percent of @p size.
    auto rankOf = [](double p, std::size_t size) {
        auto r = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(size)));
        return std::clamp<std::size_t>(r, 1, size);
    };
    t.percentile = 100.0;
    for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
        if (basis - rankOf(p, basis) < 10)
            break;
        t.percentile = p;
    }
    const std::size_t rank = rankOf(t.percentile, n);
    t.value = v[rank - 1];
    t.beyond = n - rank;
    return t;
}

double
cpuSeconds()
{
    auto secs = [](const rusage &ru) {
        return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
               1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                          ru.ru_stime.tv_usec);
    };
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return secs(self) + secs(kids);
}

void
resetPeakRss()
{
    // Where unsupported, peaks stay process-lifetime maxima.
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
