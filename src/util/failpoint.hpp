/**
 * @file
 * Fault-injection registry: named failpoint sites planted at the
 * critical seams of the serving path (queue admission, worker job
 * pickup, prior-store capture/load, snapshot write, socket emit).
 *
 * A site is a plain string the code passes to QPLACER_FAILPOINT();
 * nothing happens unless the site has been armed with an action:
 *
 *   off          - no-op (default for every site).
 *   error        - the macro returns true; the caller fails the
 *                  operation with an injected, clearly-labelled error.
 *   delay(N)     - sleep N milliseconds at the site, then continue.
 *   crash        - flush stdio and terminate the process immediately
 *                  (std::_Exit, no atexit handlers -- the closest
 *                  in-process stand-in for `kill -9`). Buffered
 *                  output is flushed first so every response the
 *                  daemon already emitted stays observable.
 *
 * Arming happens either programmatically (tests) or from the
 * QPLACER_FAILPOINTS environment variable ("site=error;other=delay(50)",
 * read by qplacer_server under --enable-failpoints).
 *
 * Cost when disarmed: QPLACER_FAILPOINT() is a single relaxed atomic
 * load of a process-wide counter -- no lock, no map lookup, no string
 * work -- so planted sites are effectively free in production.
 */

#ifndef QPLACER_UTIL_FAILPOINT_HPP
#define QPLACER_UTIL_FAILPOINT_HPP

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace qplacer {

/** What an armed failpoint does when its site is hit. */
enum class FailAction
{
    Off,   ///< Site disarmed; the macro is a no-op.
    Error, ///< Caller fails the operation with an injected error.
    Delay, ///< Sleep for delayMs, then continue normally.
    Crash, ///< Flush stdio and _Exit the process (kill -9 stand-in).
};

/** One armed site (Failpoints::armed() snapshot entry). */
struct FailpointSpec
{
    std::string site;
    FailAction action = FailAction::Off;
    int delayMs = 0;
};

/** The process-wide failpoint registry. */
class Failpoints
{
  public:
    static Failpoints &instance();

    /** True when any site is armed (the macro's fast-path gate). */
    static bool anyArmed()
    {
        return armedCount_.load(std::memory_order_relaxed) > 0;
    }

    /**
     * Arm @p site with @p spec: "off", "error", "crash", or
     * "delay(N)" with N in milliseconds. "off" disarms. Returns false
     * with a message in @p error on a malformed spec.
     */
    bool arm(const std::string &site, const std::string &spec,
             std::string *error = nullptr);

    /**
     * Arm sites from an environment-style list:
     * "site=spec;site2=spec2" (';' or ',' separated, empty entries
     * ignored). All-or-nothing: on a malformed entry nothing changes
     * and @p error describes the problem.
     */
    bool armFromList(const std::string &list, std::string *error = nullptr);

    /** Disarm one site (idempotent). */
    void disarm(const std::string &site);

    /** Disarm everything (test teardown). */
    void disarmAll();

    /** Snapshot of the armed sites, sorted by site name. */
    std::vector<FailpointSpec> armed() const;

    /**
     * Evaluate @p site: Delay sleeps here, Crash flushes stdio and
     * terminates the process here; returns true only for Error, in
     * which case the caller must fail the surrounding operation.
     * Callers use QPLACER_FAILPOINT() instead of calling this
     * directly so the disarmed path stays one atomic load.
     */
    bool shouldFail(const char *site);

  private:
    Failpoints() = default;

    static std::atomic<int> armedCount_;

    mutable std::mutex mu_;
    std::map<std::string, FailpointSpec> sites_;
};

/**
 * Hit a failpoint site. Evaluates to true when the caller must fail
 * the operation with an injected error; delay/crash actions happen
 * inside. One relaxed atomic load when nothing is armed.
 */
#define QPLACER_FAILPOINT(site)                                             \
    (::qplacer::Failpoints::anyArmed() &&                                   \
     ::qplacer::Failpoints::instance().shouldFail(site))

} // namespace qplacer

#endif // QPLACER_UTIL_FAILPOINT_HPP
