#include "cli.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/config.hh"
#include "sim/logging.hh"
#include "sim/trace_mask.hh"
#include "workloads/concurrent.hh"

namespace cwsp::cli {

namespace {

std::string
join(const std::vector<std::string> &names, const char *sep)
{
    std::string out;
    for (const auto &n : names)
        out += (out.empty() ? "" : sep) + n;
    return out;
}

/** @p value as a comma list of @p valid names, or `all` (unless @p one). */
std::vector<std::string>
parseNames(const std::string &flag, const std::string &value,
           const std::string &noun, const std::vector<std::string> &valid,
           bool one)
{
    if (value == "all" && !one)
        return valid;
    std::vector<std::string> out;
    std::istringstream items(value);
    for (std::string item; std::getline(items, item, ',');) {
        if (std::find(valid.begin(), valid.end(), item) == valid.end())
            throw UsageError(flag + ": unknown " + noun + " '" + item +
                             "'; valid: " + join(valid, ", "));
        out.push_back(item);
    }
    if (out.empty() || (one && out.size() != 1))
        throw UsageError(flag + " expects " +
                         (one ? "one " + noun : noun + " names") +
                         ", got '" + value + "'");
    return out;
}

void
printUsage(const char *tool, const char *about, const Table &table)
{
    std::fprintf(stderr, "usage: %s %s\n", tool, about);
    const std::string pad(25, ' ');
    for (const auto &o : table) {
        std::string head; // a heading has none
        if (!o.name.empty()) {
            head = "  " + o.name + (o.meta.empty() ? "" : " " + o.meta);
            if (head.size() < pad.size())
                head.resize(pad.size(), ' ');
            else
                head += "\n" + pad;
        }
        std::string help = o.help;
        for (auto p = help.find('\n'); p != std::string::npos;
             p = help.find('\n', p + 1))
            help.insert(p + 1, pad);
        std::fprintf(stderr, "%s%s\n", head.c_str(), help.c_str());
    }
}

void
parse(int &argc, char **argv, const Table &table, bool passUnknown)
{
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        auto it = std::find_if(table.begin(), table.end(),
                               [&name](const Option &o) {
                                   return o.set && o.name == name;
                               });
        if (it == table.end()) {
            if (!passUnknown)
                throw UsageError("unknown option '" + arg + "'");
            argv[kept++] = argv[i];
            continue;
        }
        // One value per word of the placeholder.
        const std::size_t n =
            it->meta.empty()
                ? 0
                : 1 + std::count(it->meta.begin(), it->meta.end(), ' ');
        std::vector<std::string> values;
        if (eq != std::string::npos) {
            if (n != 1)
                throw UsageError(name + " takes " +
                                 (n ? it->meta : "no value"));
            values.push_back(arg.substr(eq + 1));
        }
        // A following flag is a missing value, not the value.
        while (values.size() < n) {
            if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0)
                throw UsageError(name + " needs a value: " + it->meta);
            values.push_back(argv[++i]);
        }
        it->set(values);
    }
    argc = kept;
}

/**
 * Print @p e for @p tool — unless cwsp_fatal or cwsp_panic threw it:
 * they print their own diagnostic first (sim/logging.cc).
 */
void
report(const char *tool, const std::exception &e)
{
    if (std::strncmp(e.what(), "fatal: ", 7) != 0 &&
        std::strncmp(e.what(), "panic: ", 7) != 0)
        std::fprintf(stderr, "%s: %s\n", tool, e.what());
}

} // namespace

Option
flag(std::string name, std::string help, bool &target, bool value)
{
    return {std::move(name), "", std::move(help),
            [&target, value](const auto &) { target = value; }};
}

Option
text(std::string name, std::string meta, std::string help,
     std::string &target)
{
    return {std::move(name), std::move(meta), std::move(help),
            [&target](const auto &v) { target = v[0]; }};
}

std::vector<workloads::AppProfile>
Selection::profiles() const
{
    std::vector<workloads::AppProfile> out;
    for (const auto &name : apps)
        out.push_back(workloads::appByName(name));
    return out;
}

driver::BatchConfig
Selection::batchConfig() const
{
    driver::BatchConfig bc;
    bc.jobs = jobs;
    bc.useDiskCache = resultCache;
    bc.cacheDir = cacheDir;
    return bc;
}

Option
selection(Selection &s, const std::string &name)
{
    if (name == "--app") {
        std::vector<std::string> names;
        for (const auto &app : workloads::appTable())
            names.push_back(app.name);
        if (s.concurrentApps)
            for (const auto &app : workloads::concurrentAppTable())
                names.push_back(app.name);
        return {name, "A[,B]|all",
                std::string("comma list of roster apps") +
                    (s.concurrentApps ? " (cstack, cqueue, chash too)"
                                      : "") +
                    ", or all" +
                    (s.apps.empty() ? ""
                                    : " (default " + join(s.apps, ",") +
                                          ")"),
                [&s, names](const auto &v) {
                    s.apps = parseNames("--app", v[0], "app", names,
                                        false);
                }};
    }
    if (name == "--suite")
        return {name, "NAME",
                "every app of one suite: " +
                    join(workloads::suiteNames(), ", "),
                [&s](const auto &v) {
                    parseNames("--suite", v[0], "suite",
                               workloads::suiteNames(), true);
                    s.apps.clear();
                    for (const auto &app : workloads::appsBySuite(v[0]))
                        s.apps.push_back(app.name);
                }};
    if (name == "--scheme")
        return {name, s.oneScheme ? "NAME" : "X[,Y]|all",
                join(core::schemeNames(), "|") + " (default " +
                    (s.schemes.empty() ? "all" : join(s.schemes, ",")) +
                    ")",
                [&s](const auto &v) {
                    s.schemes = parseNames("--scheme", v[0], "scheme",
                                           core::schemeNames(),
                                           s.oneScheme);
                }};
    if (name == "--jobs")
        return number(name, "N", "worker threads (default: all cores)",
                      s.jobs, 0, 1024);
    if (name == "--cache-dir")
        return text(name, "DIR", "persistent result cache location",
                    s.cacheDir);
    if (name == "--no-result-cache")
        return flag(name, "bypass the persistent result cache",
                    s.resultCache, false);
    if (name == "--stats-json")
        return text(name, "FILE",
                    "write hierarchical statistics JSON (`-` = stdout)",
                    s.statsJson);
    if (name == "--trace-out")
        return text(name, "FILE",
                    "write a Chrome trace-event JSON of the run",
                    s.traceOut);
    cwsp_assert(name == "--trace-mask", "no shared option ", name);
    return {name, "SPEC",
            std::string("trace categories (default all):\n") +
                sim::traceMaskHelp(),
            [&s](const auto &v) {
                s.traceMask = sim::parseTraceMask(v[0]);
            }};
}

int
run(int &argc, char **argv, const char *about, const Table &table,
    const std::function<int()> &body, bool passUnknown)
{
    const char *slash = std::strrchr(argv[0], '/');
    const char *tool = slash ? slash + 1 : argv[0];
    auto usageError = [&](const std::exception &e) {
        report(tool, e);
        printUsage(tool, about, table);
        return 2;
    };
    // A setter that calls into the library (--trace-mask) may throw
    // a cwsp_fatal: that is a bad value too.
    try {
        parse(argc, argv, table, passUnknown);
    } catch (const std::exception &e) {
        return usageError(e);
    }
    try {
        return body();
    } catch (const UsageError &e) {
        return usageError(e);
    } catch (const std::exception &e) {
        report(tool, e);
        return 1;
    }
}

} // namespace cwsp::cli
