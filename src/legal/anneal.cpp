/** @file Annealing detailed placement; contract in anneal.hpp. */

#include "legal/anneal.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "legal/occupancy.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

/** Relocation reach per axis, in occupancy cells. */
constexpr int kRelocateReachCells = 4;

/** Temperature decay per sweep: T_k = tempStart * kTempDecay^k. */
constexpr double kTempDecay = 0.92;

/** Collision count + fidelity hinge of a set of hotspot pairs. */
struct PairStats
{
    int count = 0;
    double hinge = 0.0;

    PairStats &
    operator+=(const PairStats &o)
    {
        count += o.count;
        hinge += o.hinge;
        return *this;
    }

    /** Count the pair if @p rule flags it, hinge depth tol - gap. */
    void
    add(const CrosstalkRule &rule, const Instance &a, const Instance &b)
    {
        double gap = 0.0;
        if (rule.hotspotPair(a, b, gap)) {
            ++count;
            hinge += rule.adjacencyTolUm - gap;
        }
    }
};

/** One proposed move: a relocation of i, or a swap when j >= 0. */
struct Proposal
{
    int i = -1;
    int j = -1;
    Vec2 newI;
    Vec2 newJ;
};

/** The annealing walk over one layout. */
class Walk
{
  public:
    Walk(Netlist &netlist, const DetailedPlaceParams &params,
         const CrosstalkRule &rule, double cell_um)
        : netlist_(netlist), params_(params), rule_(rule),
          grid_(netlist.region(), cell_um),
          multi_(netlist.dieSpec().active())
    {
        if (multi_)
            plan_ = DiePlan::resolve(netlist.dieSpec(), netlist.region());
    }

    /** Occupy every padded footprint; false if the input is not legal. */
    bool
    build()
    {
        // Cut gaps first: an input straddling a gap fails the canPlace
        // below exactly like any other illegality and we hand off.
        if (multi_)
            for (const Rect &band : plan_.gapBands())
                grid_.block(band);
        const auto &instances = netlist_.instances();
        for (const Instance &inst : instances) {
            if (!grid_.canPlace(inst.paddedRect()))
                return false;
            grid_.occupy(inst.paddedRect(), inst.id);
        }

        incident_.resize(instances.size());
        const auto &nets = netlist_.nets();
        for (std::size_t k = 0; k < nets.size(); ++k) {
            incident_[static_cast<std::size_t>(nets[k].a)].push_back(
                static_cast<int>(k));
            incident_[static_cast<std::size_t>(nets[k].b)].push_back(
                static_cast<int>(k));
        }

        // Swap partners must have identical padded footprints (that is
        // what makes a swap legal with no probing at all); group the
        // instances by footprint once.
        group_.resize(instances.size());
        std::vector<std::pair<double, double>> footprints;
        for (const Instance &inst : instances) {
            const std::pair<double, double> fp{inst.paddedWidth(),
                                               inst.paddedHeight()};
            std::size_t g = 0;
            while (g < footprints.size() && footprints[g] != fp)
                ++g;
            if (g == footprints.size()) {
                footprints.push_back(fp);
                groups_.emplace_back();
            }
            group_[static_cast<std::size_t>(inst.id)] = static_cast<int>(g);
            groups_[g].push_back(inst.id);
        }
        return true;
    }

    /** Total violation-pair stats of the current layout (each pair once). */
    PairStats
    totalPairs()
    {
        PairStats total;
        for (const Instance &inst : netlist_.instances()) {
            queryNeighbors(inst);
            for (const std::int32_t o : ownerScratch_) {
                if (o <= inst.id)
                    continue; // Count each unordered pair once.
                total.add(rule_, inst, netlist_.instance(o));
            }
        }
        return total;
    }

    /**
     * Violation-pair stats of every pair involving @p m in the current
     * layout. @p exclude skips one partner id (the other endpoint of a
     * swap, whose scan already counted the shared pair).
     */
    PairStats
    around(int m, int exclude)
    {
        PairStats stats;
        const Instance &mine = netlist_.instance(m);
        queryNeighbors(mine);
        for (const std::int32_t o : ownerScratch_) {
            if (o == m || o == exclude)
                continue;
            stats.add(rule_, mine, netlist_.instance(o));
        }
        return stats;
    }

    /** HPWL over the nets incident to the moved instances, each once. */
    double
    localHpwl(const Proposal &prop)
    {
        netScratch_.clear();
        const auto &inc_i = incident_[static_cast<std::size_t>(prop.i)];
        netScratch_.insert(netScratch_.end(), inc_i.begin(), inc_i.end());
        if (prop.j >= 0) {
            const auto &inc_j =
                incident_[static_cast<std::size_t>(prop.j)];
            netScratch_.insert(netScratch_.end(), inc_j.begin(),
                               inc_j.end());
            std::sort(netScratch_.begin(), netScratch_.end());
            netScratch_.erase(
                std::unique(netScratch_.begin(), netScratch_.end()),
                netScratch_.end());
        }
        const auto &nets = netlist_.nets();
        double sum = 0.0;
        for (const int k : netScratch_) {
            const Net &net = nets[static_cast<std::size_t>(k)];
            const Vec2 &pa = netlist_.instance(net.a).pos;
            const Vec2 &pb = netlist_.instance(net.b).pos;
            sum += net.weight *
                   (std::abs(pa.x - pb.x) + std::abs(pa.y - pb.y));
        }
        return sum;
    }

    /** Move the proposal's instances to their new positions. */
    void
    apply(const Proposal &prop)
    {
        Instance &a = netlist_.instance(prop.i);
        grid_.release(a.paddedRect(), prop.i);
        if (prop.j >= 0) {
            Instance &b = netlist_.instance(prop.j);
            grid_.release(b.paddedRect(), prop.j);
            a.pos = prop.newI;
            b.pos = prop.newJ;
            grid_.occupy(a.paddedRect(), prop.i);
            grid_.occupy(b.paddedRect(), prop.j);
        } else {
            a.pos = prop.newI;
            grid_.occupy(a.paddedRect(), prop.i);
        }
    }

    PairStats
    pairsOf(const Proposal &prop)
    {
        PairStats stats = around(prop.i, /*exclude=*/-1);
        if (prop.j >= 0)
            stats += around(prop.j, /*exclude=*/prop.i);
        return stats;
    }

    Netlist &netlist_;
    const DetailedPlaceParams &params_;
    const CrosstalkRule &rule_;
    OccupancyGrid grid_;
    bool multi_;   ///< Active multi-die partition?
    DiePlan plan_; ///< Resolved when multi_.
    std::vector<std::vector<int>> incident_; ///< Net ids per instance.
    std::vector<int> group_;                 ///< Footprint group id.
    std::vector<std::vector<int>> groups_;   ///< Members per group.

  private:
    void
    queryNeighbors(const Instance &inst)
    {
        // Padded rects live on the cell grid, so inflating the query by
        // tolerance + one cell over-covers every candidate with
        // gap <= tolerance; the exact gap predicate filters the rest.
        const Rect query = inst.paddedRect().inflated(
            rule_.adjacencyTolUm + grid_.cellUm());
        grid_.ownersIn(query, ownerScratch_);
    }

    std::vector<int> netScratch_;
    std::vector<std::int32_t> ownerScratch_;
};

} // namespace

DetailedPlacer::DetailedPlacer(DetailedPlaceParams params, CrosstalkRule rule)
    : params_(params), rule_(rule)
{
}

DetailedStats
DetailedPlacer::refine(Netlist &netlist, std::uint64_t seed,
                       const CancelToken *cancel,
                       const AcceptHook &on_accept) const
{
    DetailedStats stats;
    const std::size_t n = netlist.instances().size();
    if (params_.iters <= 0 || n < 2 || netlist.nets().empty())
        return stats; // ran = false: nothing to refine, layout untouched.

    Walk walk(netlist, params_, rule_, Legalizer::kCellUm);
    if (!walk.build())
        return stats; // Input not legal on this cell grid; hands off.
    stats.ran = true;

    double cur_hpwl = netlist.hpwl();
    int cur_collisions = walk.totalPairs().count;
    stats.hpwlBefore = cur_hpwl;
    stats.collisionsBefore = cur_collisions;

    // The input layout seeds the best snapshot, so the restore at the
    // bottom can only improve on it (or return it unchanged).
    std::vector<Vec2> best_positions(n);
    for (std::size_t i = 0; i < n; ++i)
        best_positions[i] = netlist.instances()[i].pos;
    double best_hpwl = cur_hpwl;
    int best_collisions = cur_collisions;

    Rng rng(seed);
    for (int sweep = 0; sweep < params_.iters; ++sweep) {
        if (cancel && cancel->cancelled()) {
            stats.cancelled = true;
            break;
        }
        const double temp = params_.tempStart * std::pow(kTempDecay, sweep);

        for (std::size_t p = 0; p < n; ++p) {
            ++stats.proposed;
            const int i = static_cast<int>(rng.below(n));
            const Instance &inst = netlist.instance(i);

            Proposal prop;
            prop.i = i;
            if (rng.uniform() < 0.5) {
                // Swap with a random same-footprint partner.
                const auto &members =
                    walk.groups_[static_cast<std::size_t>(
                        walk.group_[static_cast<std::size_t>(i)])];
                if (members.size() < 2)
                    continue;
                int j = members[rng.below(members.size() - 1)];
                if (j == i)
                    j = members.back();
                prop.j = j;
                prop.newI = netlist.instance(j).pos;
                prop.newJ = inst.pos;
            } else {
                // Relocate to a free cell-aligned site nearby.
                const double cell = walk.grid_.cellUm();
                const double dx = static_cast<double>(rng.range(
                                      -kRelocateReachCells,
                                      kRelocateReachCells)) *
                                  cell;
                const double dy = static_cast<double>(rng.range(
                                      -kRelocateReachCells,
                                      kRelocateReachCells)) *
                                  cell;
                if (dx == 0.0 && dy == 0.0)
                    continue;
                const double pw = inst.paddedWidth();
                const double ph = inst.paddedHeight();
                const Vec2 target = walk.grid_.snapCenter(
                    Vec2(inst.pos.x + dx, inst.pos.y + dy), pw, ph);
                if (target.x == inst.pos.x && target.y == inst.pos.y)
                    continue;
                // A relocation never changes a die assignment: reject
                // cross-die drifts (an explicit swap is the only move
                // that exchanges die membership).
                if (walk.multi_ && walk.plan_.dieAt(target) !=
                                       walk.plan_.dieAt(inst.pos))
                    continue;
                if (!walk.grid_.canPlaceIgnoring(
                        Rect::fromCenter(target, pw, ph), i))
                    continue;
                prop.newI = target;
            }

            // Incremental deltas: only the nets and violation pairs
            // touching the moved instances change.
            const double hpwl_before = walk.localHpwl(prop);
            const PairStats pairs_before = walk.pairsOf(prop);
            const Proposal undo{prop.i, prop.j, inst.pos,
                                prop.j >= 0 ? netlist.instance(prop.j).pos
                                            : Vec2()};
            walk.apply(prop);
            const double hpwl_after = walk.localHpwl(prop);
            const PairStats pairs_after = walk.pairsOf(prop);

            const int d_collisions = pairs_after.count - pairs_before.count;
            const double d_cost =
                (hpwl_after - hpwl_before) +
                kFidelityWeight * (pairs_after.hinge - pairs_before.hinge);

            // Collision increases are rejected outright (never priced);
            // otherwise Metropolis on the HPWL + fidelity cost.
            bool accept = d_collisions <= 0 && d_cost <= 0.0;
            if (!accept && d_collisions <= 0 && temp > 0.0)
                accept = rng.uniform() < std::exp(-d_cost / temp);
            if (!accept) {
                walk.apply(undo);
                continue;
            }

            ++stats.accepted;
            if (prop.j >= 0)
                ++stats.swaps;
            else
                ++stats.relocates;
            cur_hpwl += hpwl_after - hpwl_before;
            cur_collisions += d_collisions;
            if (cur_hpwl < best_hpwl ||
                (cur_hpwl == best_hpwl &&
                 cur_collisions < best_collisions)) {
                best_hpwl = cur_hpwl;
                best_collisions = cur_collisions;
                for (std::size_t k = 0; k < n; ++k)
                    best_positions[k] = netlist.instances()[k].pos;
            }
            if (on_accept)
                on_accept(netlist);
        }
        ++stats.sweeps;
    }

    // Restore the best visited state (possibly the input itself).
    for (std::size_t i = 0; i < n; ++i)
        netlist.instance(static_cast<int>(i)).pos = best_positions[i];
    stats.hpwlAfter = netlist.hpwl();
    stats.collisionsAfter = best_collisions;
    return stats;
}

} // namespace qplacer
