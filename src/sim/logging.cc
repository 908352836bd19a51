#include "sim/logging.hh"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>

namespace cwsp {

namespace {

std::atomic<LogLevel> g_level{LogLevel::Warn};

/**
 * Serializes warn/inform emission: BatchRunner workers log
 * concurrently, and while POSIX makes a single fprintf atomic, glibc
 * only guarantees that per call — interleaved messages from separate
 * calls would shred the output. One mutexed fprintf per message.
 */
std::mutex g_logMutex;

} // namespace

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    // Throw instead of abort() so that tests can assert on panics; the
    // exception type is deliberately distinct from fatal errors.
    throw std::logic_error("panic: " + msg);
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    throw std::runtime_error("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Warn) {
        std::lock_guard<std::mutex> lock(g_logMutex);
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
    }
}

void
informImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Inform) {
        std::lock_guard<std::mutex> lock(g_logMutex);
        std::fprintf(stderr, "info: %s\n", msg.c_str());
    }
}

} // namespace detail

std::size_t
envCacheMb(const char *var)
{
    constexpr std::size_t kDefaultMb = 256;
    // Largest budget whose byte count still fits a size_t.
    constexpr std::size_t kMaxMb = SIZE_MAX >> 20;
    const char *env = std::getenv(var);
    if (!env || !*env)
        return kDefaultMb;
    std::size_t mb = 0;
    const char *p = env;
    for (; *p >= '0' && *p <= '9'; ++p) {
        mb = mb * 10 + static_cast<std::size_t>(*p - '0');
        if (mb > kMaxMb)
            break;
    }
    if (*p == '\0' && mb > 0)
        return mb;
    static std::mutex mu;
    static std::set<std::string> warned;
    std::lock_guard<std::mutex> lock(mu);
    if (warned.insert(var).second)
        cwsp_warn(var, "='", env, "' is not a positive integer number "
                  "of MiB; using ", kDefaultMb);
    return kDefaultMb;
}

} // namespace cwsp
