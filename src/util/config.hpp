/**
 * @file
 * Lightweight key=value configuration with environment-variable override.
 *
 * Bench harnesses read QP_* environment variables (e.g. QP_SUBSETS=10) so
 * expensive sweeps can be shortened without recompiling.
 */

#ifndef QPLACER_UTIL_CONFIG_HPP
#define QPLACER_UTIL_CONFIG_HPP

#include <map>
#include <string>

namespace qplacer {

/** String-keyed configuration map with typed accessors. */
class Config
{
  public:
    Config() = default;

    /** Set a raw value. */
    void set(const std::string &key, const std::string &value);

    /** True if the key is present. */
    bool has(const std::string &key) const;

    /** Raw value or @p fallback. */
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;

    /** Integer value or @p fallback; fatal() on unparsable or not an int. */
    long long getInt(const std::string &key, long long fallback) const;

    /** Double value or @p fallback; fatal() on unparsable, nan or inf. */
    double getDouble(const std::string &key, double fallback) const;

    /** Boolean: accepts 0/1/true/false/yes/no. */
    bool getBool(const std::string &key, bool fallback) const;

    /**
     * Read an environment variable, falling back to @p fallback.
     * Used for QP_SUBSETS / QP_MAX_ITERS style overrides.
     */
    static long long envInt(const std::string &name, long long fallback);

  private:
    std::map<std::string, std::string> values_;
};

} // namespace qplacer

#endif // QPLACER_UTIL_CONFIG_HPP
