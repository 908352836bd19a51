/**
 * @file
 * The option table every command-line front-end parses argv with
 * (tools/cwsp_*.cc and bench::benchMain). A tool lists its flags as
 * typed entries and hands the table to run(). This module alone
 * decides how a flag takes its value (`--flag V` or `--flag=V`), how
 * a value is checked, and how errors end: a usage error prints the
 * message and the usage text generated from the table, exit 2; an
 * exception from the tool's body prints one diagnostic, exit 1.
 */

#ifndef CWSP_TOOLS_CLI_HH
#define CWSP_TOOLS_CLI_HH

#include <charconv>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "driver/batch_runner.hh"
#include "workloads/workload.hh"

namespace cwsp::cli {

/** A rejected command line: run() prints it with the usage, exit 2. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** One table entry. An empty name makes a heading of the usage. */
struct Option
{
    std::string name; ///< "--jobs"
    /** Value placeholder: "" = a switch, "OLD NEW" = two values. */
    std::string meta;
    std::string help;
    /** Applies the flag's values; throws UsageError on a bad one. */
    std::function<void(const std::vector<std::string> &)> set;
};

using Table = std::vector<Option>;

/** A switch that stores @p value into @p target. */
Option flag(std::string name, std::string help, bool &target,
            bool value = true);

/** A free-form value: a path, a label. */
Option text(std::string name, std::string meta, std::string help,
            std::string &target);

/**
 * @p value as a T in [lo, hi]: all of it a decimal number (no sign
 * for unsigned T, finite for floating T); UsageError if not.
 */
template <typename T>
T
parseNumber(const std::string &name, const std::string &value,
            std::type_identity_t<T> lo, std::type_identity_t<T> hi)
{
    T out{};
    const char *end = value.data() + value.size();
    auto [ptr, ec] = std::from_chars(value.data(), end, out);
    if (value.empty() || ec != std::errc() || ptr != end ||
        !(out >= lo && out <= hi)) {
        std::ostringstream os;
        os << name << " expects a number in [" << lo << ", " << hi
           << "], got '" << value << "'";
        throw UsageError(os.str());
    }
    return out;
}

/** A number in [lo, hi] (see parseNumber). */
template <typename T>
Option
number(std::string name, std::string meta, std::string help, T &target,
       std::type_identity_t<T> lo,
       std::type_identity_t<T> hi = std::numeric_limits<T>::max())
{
    auto set = [name, &target, lo, hi](const auto &v) {
        target = parseNumber<T>(name, v[0], lo, hi);
    };
    return {std::move(name), std::move(meta), std::move(help), set};
}

/** The selection flags every tool shares; see selection(). */
struct Selection
{
    std::vector<std::string> apps; ///< `all` and --suite expand
    std::vector<std::string> schemes;
    unsigned jobs = 0; ///< 0 = all cores
    std::string cacheDir;
    bool resultCache = true;
    std::string statsJson;
    std::string traceOut;
    std::uint32_t traceMask = ~0u; ///< every category

    /** --app also takes the concurrent roster (the campaign). */
    bool concurrentApps = false;
    /** --scheme takes exactly one name. */
    bool oneScheme = false;

    std::vector<workloads::AppProfile> profiles() const;
    /** --jobs, --cache-dir and --no-result-cache for the engine. */
    driver::BatchConfig batchConfig() const;
};

/**
 * The shared flag @p name — --app, --suite, --scheme, --jobs,
 * --cache-dir, --no-result-cache, --stats-json, --trace-out or
 * --trace-mask — bound to @p sel. Set @p sel's defaults and knobs
 * first: the usage text reads them.
 */
Option selection(Selection &sel, const std::string &name);

/**
 * Parse argv against @p table, then run @p body. @p about follows
 * "usage: TOOL " in the usage text. With @p passUnknown, arguments
 * no entry claims are compacted into argv[1..argc) for the body to
 * hand on (to google-benchmark); otherwise they are usage errors.
 */
int run(int &argc, char **argv, const char *about, const Table &table,
        const std::function<int()> &body, bool passUnknown = false);

} // namespace cwsp::cli

#endif // CWSP_TOOLS_CLI_HH
