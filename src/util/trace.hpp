/**
 * @file
 * One job's wall clocks as a small tree of named spans, after VPR's
 * scoped timers: each node is {name, parent, seconds}, and a
 * Trace::Span opened while another is open becomes its child. The flow
 * opens a root span and one span per stage; assign, build and legalize
 * open their sub-stage spans beneath; a portfolio job's root spans its
 * whole run, with the winning candidate's stages grafted beneath. A
 * Trace is used from one thread
 * at a time and is copied or moved only while no span is open on it.
 */

#ifndef QPLACER_UTIL_TRACE_HPP
#define QPLACER_UTIL_TRACE_HPP

#include <chrono>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace qplacer {

/** A tree of named, summed wall-clock spans. */
class Trace
{
  public:
    /** Parent index of a top-level node. */
    static constexpr int kRoot = -1;

    struct Node
    {
        std::string name;
        int parent = kRoot;   ///< Index into nodes(), or kRoot.
        double seconds = 0.0; ///< Summed over every span of this node.
    };

    /**
     * RAII wall clock of one named node: opens the child @p name of
     * the innermost open span (a top-level node when none is open) and
     * adds its elapsed time on close. A name repeated under the same
     * parent sums into the existing node, so retries add up. A null
     * trace makes the span a no-op that reads no clock and allocates
     * nothing.
     */
    class Span
    {
      public:
        Span(Trace *trace, const char *name);
        ~Span() { stop(); }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        /**
         * Close the span early; returns the seconds it measured (0 for
         * a null trace or when already closed).
         */
        double stop();

      private:
        Trace *trace_;
        int node_ = kRoot;
        int outer_ = kRoot;
        std::chrono::steady_clock::time_point start_;
    };

    /** Every node, in first-open order (a parent precedes its children). */
    const std::vector<Node> &nodes() const { return nodes_; }

    /** Index of the child @p name of node @p parent, or -1 if absent. */
    int find(int parent, std::string_view name) const;

    /**
     * Seconds of the node reached by following @p path from the top
     * level (0 when any step is absent).
     */
    double seconds(std::initializer_list<std::string_view> path) const;

    /**
     * Add the nodes below @p from's node @p node (not that node itself)
     * below this trace's node @p parent (kRoot for the top level),
     * keeping their shape; a name already under the same parent sums
     * into the existing node. No span may be open on either trace.
     */
    void graft(const Trace &from, int node, int parent);

  private:
    std::vector<Node> nodes_;
    int open_ = kRoot; ///< Innermost open span's node.
};

} // namespace qplacer

#endif // QPLACER_UTIL_TRACE_HPP
