#include "topology/factory.hpp"

#include <cctype>

#include "topology/generators.hpp"
#include "util/logging.hpp"

namespace qplacer {

namespace {

std::string
toLowerCopy(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

/**
 * Parse "3x9" from a spec tail; false on malformed input or a
 * dimension outside 1..kMaxSpecDim.
 */
bool
parseSpecDims(const std::string &tail, int &a, int &b)
{
    const auto x = tail.find('x');
    std::size_t consumed_a = 0;
    std::size_t consumed_b = 0;
    if (x == std::string::npos || x == 0 || x + 1 >= tail.size())
        return false;
    try {
        a = std::stoi(tail.substr(0, x), &consumed_a);
        b = std::stoi(tail.substr(x + 1), &consumed_b);
    } catch (const std::exception &) {
        return false;
    }
    return consumed_a == x && consumed_b == tail.size() - x - 1 && a > 0 &&
           b > 0 && a <= kMaxSpecDim && b <= kMaxSpecDim;
}

bool
failWith(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

/**
 * Resolve @p base (a die-suffix-free spec); error messages quote the
 * original @p spec the caller received.
 */
bool
resolveBaseSpec(const std::string &base, const std::string &spec,
                Topology &out, std::string *error)
{
    const std::string lower = toLowerCopy(base);
    for (const std::string &name : paperTopologyNames()) {
        if (lower == toLowerCopy(name)) {
            out = makeTopology(name);
            return true;
        }
    }
    if (lower == "grid25") {
        out = makeTopology("Grid25");
        return true;
    }

    int a = 0;
    int b = 0;
    const auto dims_of = [&](std::size_t prefix_len) {
        if (parseSpecDims(lower.substr(prefix_len), a, b))
            return true;
        return failWith(error, str("bad topology spec '", spec,
                                   "': expected <rows>x<cols>, each 1..",
                                   kMaxSpecDim));
    };
    if (lower.rfind("grid", 0) == 0) {
        if (!dims_of(4))
            return false;
        out = makeGrid(a, b);
        return true;
    }
    if (lower.rfind("heavyhex", 0) == 0) {
        if (!dims_of(8))
            return false;
        out = makeHeavyHex(a, b);
        return true;
    }
    if (lower.rfind("octagon", 0) == 0) {
        if (!dims_of(7))
            return false;
        out = makeOctagon(a, b);
        return true;
    }
    return failWith(error, "unknown topology '" + spec +
                               "' (try a paper device name, gridRxC, "
                               "heavyhexRxW, or octagonRxC)");
}

} // namespace

Topology
makeTopology(const std::string &name)
{
    if (name == "Grid" || name == "Grid25")
        return makeGrid(5, 5);
    if (name == "Xtree")
        return makeXtree();
    if (name == "Falcon")
        return makeFalcon();
    if (name == "Eagle")
        return makeEagle();
    if (name == "Aspen-11")
        return makeAspen11();
    if (name == "Aspen-M")
        return makeAspenM();
    fatal("makeTopology: unknown topology '" + name + "'");
}

std::vector<std::string>
paperTopologyNames()
{
    return {"Grid", "Xtree", "Falcon", "Eagle", "Aspen-11", "Aspen-M"};
}

bool
resolveTopologySpec(const std::string &spec, Topology &out,
                    std::string *error)
{
    // "@dies=RxC[:cutGapUm=N]" composes a multi-die partition with any
    // base spec (paper name or parametric generator): strip the suffix,
    // resolve the base exactly as before, then attach the die spec.
    std::string base = spec;
    DieSpec dies;
    const std::size_t at = spec.find("@dies=");
    if (at != std::string::npos) {
        std::string die_error;
        if (!parseDieSpec(spec.substr(at + 6), dies, &die_error))
            return failWith(error, die_error);
        base = spec.substr(0, at);
        if (base.empty())
            return failWith(error, "bad topology spec '" + spec +
                                       "': missing base topology before "
                                       "'@dies='");
    }

    if (!resolveBaseSpec(base, spec, out, error))
        return false;
    out.dies = dies;
    if (dies.active()) {
        out.description += str(" [", dies.rows, "x", dies.cols, " dies, ",
                               dies.cutGapUm, " um cut gap]");
    }
    return true;
}

} // namespace qplacer
