/**
 * @file
 * Global placement driver (Fig. 7c): runs the frequency-aware
 * electrostatic engine over a netlist until the density overflow target
 * is met, writing optimized positions back into the netlist.
 */

#ifndef QPLACER_CORE_PLACER_HPP
#define QPLACER_CORE_PLACER_HPP

#include <functional>

#include "core/params.hpp"
#include "netlist/netlist.hpp"
#include "util/cancel.hpp"

namespace qplacer {

/** Outcome of a global placement run. */
struct PlaceResult
{
    int iterations = 0; ///< Objective evaluations (= onIteration events).
    double finalOverflow = 1.0;
    double finalHpwl = 0.0;
    bool converged = false;
    bool cancelled = false; ///< Stopped early by a CancelToken.
};

/** Per-iteration progress snapshot delivered to a PlaceMonitor. */
struct PlaceProgress
{
    int iteration = 0;     ///< 0-based Nesterov iteration index.
    double overflow = 1.0; ///< Density overflow after evaluate().
    /**
     * Exact HPWL of the iterate the objective just evaluated (an extra
     * O(nets) reduction per iteration, paid only when an onIteration
     * hook is attached). The daemon streams it in its iteration
     * events.
     */
    double hpwl = 0.0;
};

/**
 * Optional hooks into the optimization loop: an iteration callback
 * (invoked once per iteration, after the objective evaluation) and a
 * cooperative cancellation token polled at the top of each iteration.
 * Both are borrowed pointers/functions and must outlive place().
 */
struct PlaceMonitor
{
    std::function<void(const PlaceProgress &)> onIteration;
    const CancelToken *cancel = nullptr;
};

/** The frequency-aware electrostatic global placer. */
class GlobalPlacer
{
  public:
    /** The frequency force reads Delta_c from @p rule. */
    explicit GlobalPlacer(PlacerParams params = {}, CrosstalkRule rule = {});

    /**
     * Place @p netlist in-place: instance positions are updated to the
     * optimized (pre-legalization) solution. The run builds its own
     * worker pool from params().threads for the length of the call;
     * results are bitwise-identical at any thread count. Iterations
     * stream to @p monitor's hooks. On cancellation the current
     * (last-iterate) solution is written back and the result carries
     * cancelled = true.
     */
    PlaceResult place(Netlist &netlist,
                      const PlaceMonitor &monitor = {}) const;

    const PlacerParams &params() const { return params_; }

  private:
    PlacerParams params_;
    CrosstalkRule rule_;
};

} // namespace qplacer

#endif // QPLACER_CORE_PLACER_HPP
