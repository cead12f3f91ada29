#include "util/config.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/logging.hpp"

namespace qplacer {

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

std::string
Config::getString(const std::string &key, const std::string &fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

long long
Config::getInt(const std::string &key, long long fallback) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    char *end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0' ||
        v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max())
        fatal("Config: key '" + key + "' is not an int: " + it->second);
    return v;
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0' || !std::isfinite(v))
        fatal("Config: key '" + key + "' is not a number: " + it->second);
    return v;
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes")
        return true;
    if (v == "0" || v == "false" || v == "no")
        return false;
    fatal("Config: key '" + key + "' is not a boolean: " + v);
}

long long
Config::envInt(const std::string &name, long long fallback)
{
    const char *env = std::getenv(name.c_str());
    if (!env)
        return fallback;
    char *end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0')
        return fallback;
    return v;
}

} // namespace qplacer
