#include "util/trace.hpp"

namespace qplacer {

Trace::Span::Span(Trace *trace, const char *name)
    : trace_(trace)
{
    if (!trace_)
        return;
    outer_ = trace_->open_;
    node_ = trace_->find(outer_, name);
    if (node_ < 0) {
        node_ = static_cast<int>(trace_->nodes_.size());
        trace_->nodes_.push_back(Node{name, outer_, 0.0});
    }
    trace_->open_ = node_;
    start_ = std::chrono::steady_clock::now();
}

double
Trace::Span::stop()
{
    if (!trace_)
        return 0.0;
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    trace_->nodes_[static_cast<std::size_t>(node_)].seconds += elapsed;
    trace_->open_ = outer_;
    trace_ = nullptr;
    return elapsed;
}

int
Trace::find(int parent, std::string_view name) const
{
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i].parent == parent && nodes_[i].name == name)
            return static_cast<int>(i);
    return -1;
}

double
Trace::seconds(std::initializer_list<std::string_view> path) const
{
    int node = kRoot;
    for (const std::string_view name : path) {
        node = find(node, name);
        if (node < 0)
            return 0.0;
    }
    return node == kRoot ? 0.0
                         : nodes_[static_cast<std::size_t>(node)].seconds;
}

void
Trace::graft(const Trace &from, int node, int parent)
{
    // Where each of from's nodes lands here; a parent precedes its
    // children, so one pass in order maps every descendant of node.
    if (node < 0)
        return;
    constexpr int kOutside = kRoot - 1;
    std::vector<int> to(from.nodes_.size(), kOutside);
    to[static_cast<std::size_t>(node)] = parent;
    for (std::size_t i = static_cast<std::size_t>(node) + 1;
         i < from.nodes_.size(); ++i) {
        const Node &src = from.nodes_[i];
        if (src.parent == kRoot ||
            to[static_cast<std::size_t>(src.parent)] == kOutside)
            continue; // not below node
        const int above = to[static_cast<std::size_t>(src.parent)];
        int mine = find(above, src.name);
        if (mine < 0) {
            mine = static_cast<int>(nodes_.size());
            nodes_.push_back(Node{src.name, above, 0.0});
        }
        nodes_[static_cast<std::size_t>(mine)].seconds += src.seconds;
        to[i] = mine;
    }
}

} // namespace qplacer
