#include "thread_pool.hh"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "common/logging.hh"

namespace latte
{

namespace
{

unsigned
parsePositive(std::string_view text)
{
    if (text.empty() || text.size() > 9)
        return 0;
    unsigned value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return 0;
        value = value * 10 + static_cast<unsigned>(c - '0');
    }
    return value;
}

} // namespace

unsigned
resolveSimThreads(std::string_view text, std::string *error)
{
    if (text.empty()) {
        const char *env = std::getenv("LATTE_SIM_THREADS");
        if (!env || !*env)
            return 1;
        std::string ignored;
        const unsigned n = resolveSimThreads(env, &ignored);
        if (n == 0) {
            latte_warn("ignoring invalid LATTE_SIM_THREADS='{}' "
                       "(want a positive integer or 'auto')",
                       env);
            return 1;
        }
        return n;
    }
    if (text == "auto")
        return std::max(1u, std::thread::hardware_concurrency());
    const unsigned n = parsePositive(text);
    if (n == 0 && error) {
        *error = strfmt("invalid sim-threads value '{}' "
                        "(want a positive integer or 'auto')",
                        text);
    }
    return n;
}

} // namespace latte
