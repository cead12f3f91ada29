/**
 * @file
 * FlowObserver: the progress callbacks of a flow run (stage begin/end
 * and global-placement iterations), attached with
 * PlacementSession::setObserver.
 */

#ifndef QPLACER_PIPELINE_OBSERVER_HPP
#define QPLACER_PIPELINE_OBSERVER_HPP

#include <string>

namespace qplacer {

struct FlowContext;
struct PlaceProgress;

/**
 * Callback surface over a flow run. Default implementations do
 * nothing; override what you need. In a concurrent batch
 * (PlacementSession::runBatch with workers > 1) callbacks fire on pool
 * worker threads, possibly concurrently for different jobs -- an
 * observer shared across jobs must be thread-safe. Use
 * FlowContext::jobIndex to tell jobs apart.
 */
class FlowObserver
{
  public:
    virtual ~FlowObserver() = default;

    /** A stage is about to run. */
    virtual void onStageBegin(const FlowContext &ctx,
                              const std::string &stage)
    {
        (void)ctx;
        (void)stage;
    }

    /** A stage finished after @p seconds (also fires if it errored). */
    virtual void onStageEnd(const FlowContext &ctx,
                            const std::string &stage, double seconds)
    {
        (void)ctx;
        (void)stage;
        (void)seconds;
    }

    /**
     * Global-placement iteration progress (fires once per Nesterov
     * iteration, after the objective evaluation). Cancel mid-placement
     * by flipping the run's CancelToken from here.
     */
    virtual void onIteration(const FlowContext &ctx,
                             const PlaceProgress &progress)
    {
        (void)ctx;
        (void)progress;
    }
};

} // namespace qplacer

#endif // QPLACER_PIPELINE_OBSERVER_HPP
