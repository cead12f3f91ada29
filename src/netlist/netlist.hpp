/**
 * @file
 * Placement netlist: movable instances (qubits and resonator segments),
 * connectivity nets, and the placement region.
 *
 * This is the data structure the global placer, legalizers, and
 * evaluators all operate on. Positions are instance centers in um.
 */

#ifndef QPLACER_NETLIST_NETLIST_HPP
#define QPLACER_NETLIST_NETLIST_HPP

#include <string>
#include <vector>

#include "freq/spectrum.hpp"
#include "geometry/rect.hpp"
#include "multidie/die_plan.hpp"

namespace qplacer {

/** What a movable instance physically is. */
enum class InstanceKind { Qubit, ResonatorSegment };

/** One movable instance. */
struct Instance
{
    InstanceKind kind = InstanceKind::Qubit;
    int id = -1;        ///< Index in the netlist.
    int qubit = -1;     ///< Topology qubit id (kind == Qubit).
    int resonator = -1; ///< Resonator id (kind == ResonatorSegment).
    int segment = -1;   ///< Segment ordinal within its resonator.
    double freqHz = 0.0;
    double width = 0.0;  ///< Unpadded width (um).
    double height = 0.0; ///< Unpadded height (um).
    /**
     * Padding (um): the minimum spacing this instance demands from a
     * neighbour of the same kind (d_q or d_r). Each padded footprint
     * extends pad/2 per side, so two touching padded footprints leave
     * a (pad_i + pad_j)/2 gap between the bare shapes -- the shared-
     * padding reading of Section IV-B1 that reproduces the paper's
     * Fig. 13 area ratios (asserted by the paper-claim suite; see
     * docs/ARCHITECTURE.md).
     */
    double pad = 0.0;
    Vec2 pos; ///< Center position (um).

    /** Width including half the padding on each side. */
    double paddedWidth() const { return width + pad; }

    /** Height including half the padding on each side. */
    double paddedHeight() const { return height + pad; }

    /** Padded footprint area (the instance's electrostatic charge). */
    double paddedArea() const { return paddedWidth() * paddedHeight(); }

    /** Unpadded shape at the current position. */
    Rect rect() const { return Rect::fromCenter(pos, width, height); }

    /** Padded footprint at the current position. */
    Rect
    paddedRect() const
    {
        return Rect::fromCenter(pos, paddedWidth(), paddedHeight());
    }
};

/**
 * The crosstalk rule: two instances on different resonators interact
 * when their frequencies are within Delta_c (tau, Eq. 9) and their
 * padded footprints are adjacent. FlowParams owns the one copy; every
 * stage that judges crosstalk reads it (docs/ARCHITECTURE.md).
 */
struct CrosstalkRule
{
    double detuningThresholdHz = kDetuningThresholdHz; ///< Delta_c.
    double adjacencyTolUm = 50.0; ///< Max padded-footprint gap (um).

    /** tau: distinct resonators (or qubits) within Delta_c. */
    bool resonantPair(const Instance &a, const Instance &b) const
    {
        return (a.resonator < 0 || a.resonator != b.resonator) &&
               isResonant(a.freqHz, b.freqHz, detuningThresholdHz);
    }

    /** resonantPair() and adjacent; @p gap_um gets the padded gap. */
    bool hotspotPair(const Instance &a, const Instance &b,
                     double &gap_um) const
    {
        if (!resonantPair(a, b))
            return false;
        gap_um = a.paddedRect().gap(b.paddedRect());
        return gap_um <= adjacencyTolUm;
    }
};

/** A connection to be kept short (2-pin; stars are decomposed). */
struct Net
{
    int a = -1;
    int b = -1;
    double weight = 1.0;
};

/** A coupling resonator and its segments. */
struct Resonator
{
    int id = -1;
    int edge = -1;   ///< Topology coupler/edge id.
    int qubitA = -1; ///< Endpoint qubit (topology id).
    int qubitB = -1;
    double freqHz = 0.0;
    double lengthUm = 0.0; ///< Physical wire length.
    std::vector<int> segments; ///< Instance ids, in chain order.
};

/** The full placement problem instance. */
class Netlist
{
  public:
    Netlist() = default;

    /** Append an instance; returns its id. */
    int addInstance(Instance inst);

    /** Append a 2-pin net. */
    void addNet(int a, int b, double weight = 1.0);

    /** Append a resonator record; returns its id. */
    int addResonator(Resonator res);

    /**
     * Replace the netlist's contents wholesale with pre-assembled
     * vectors (the builder's prefix-summed fill). The same
     * invariants addInstance/addNet enforce incrementally are checked
     * here: instance ids equal their indices, the @p num_qubits qubit
     * instances come first, resonator ids equal their indices, and net
     * pins are in-range and non-degenerate.
     */
    void adopt(std::vector<Instance> instances, std::vector<Net> nets,
               std::vector<Resonator> resonators, int num_qubits);

    const std::vector<Instance> &instances() const { return instances_; }
    std::vector<Instance> &instances() { return instances_; }
    const std::vector<Net> &nets() const { return nets_; }
    const std::vector<Resonator> &resonators() const { return resonators_; }

    const Instance &instance(int id) const;
    Instance &instance(int id);
    const Resonator &resonator(int id) const;

    /** Number of qubit instances (they are always ids 0..n-1). */
    int numQubits() const { return numQubits_; }

    /** Total number of movable instances (#cells of Table II). */
    int numInstances() const { return static_cast<int>(instances_.size()); }

    /** Sum of padded instance areas (A_poly of Eq. 17). */
    double totalPaddedArea() const;

    /** Placement region. */
    const Rect &region() const { return region_; }

    /**
     * Size the (square) placement region so that padded area fills
     * @p target_util of it, anchored at the origin.
     */
    void sizeRegion(double target_util);

    /** Set an explicit region. */
    void setRegion(const Rect &region) { region_ = region; }

    /**
     * Device partition this netlist is placed under (BuildStage copies
     * it from the topology). Symbolic on purpose: consumers resolve a
     * DiePlan against the *current* region so the geometry follows
     * legalizer region growth. The default 1x1 spec is inactive and
     * every multi-die code path is skipped outright.
     */
    const DieSpec &dieSpec() const { return dieSpec_; }
    void setDieSpec(const DieSpec &spec) { dieSpec_ = spec; }

    /** Instance id of topology qubit @p qubit_id. */
    int qubitInstance(int qubit_id) const;

    /** Frequencies of all instances, indexed by instance id. */
    std::vector<double> frequencies() const;

    /** Resonator id per instance (-1 for qubits). */
    std::vector<int> resonatorGroups() const;

    /**
     * Exact weighted half-perimeter wirelength: the serial, net-order
     * sum of weight * (|dx| + |dy|), with instance i at
     * @p positions[i]. The placer's reported HPWL, the annealer's
     * objective and the portfolio's ranking key.
     */
    double hpwl(const std::vector<Vec2> &positions) const;

    /** hpwl() at the instances' own positions. */
    double hpwl() const;

    /** Clamp every instance center so its padded rect stays in-region. */
    void clampIntoRegion();

    /** Consistency checks (ids, segment chains); panics on violation. */
    void validate() const;

  private:
    std::vector<Instance> instances_;
    std::vector<Net> nets_;
    std::vector<Resonator> resonators_;
    Rect region_;
    DieSpec dieSpec_;
    int numQubits_ = 0;
};

/**
 * Bitwise instance-position equality (memcmp, not FP tolerance) --
 * the determinism contract the engine guarantees for a fixed seed at
 * any thread count, and PlacementSession's batch-vs-serial gate.
 */
bool bitwiseSameLayout(const Netlist &a, const Netlist &b);

/**
 * Bitwise equality of the whole problem instance -- every instance
 * field (memcmp on the doubles), nets, resonator records, and the
 * region. The builder's equivalence contract against the
 * sequential-append oracle in tests/oracles.
 */
bool bitwiseSameNetlist(const Netlist &a, const Netlist &b);

} // namespace qplacer

#endif // QPLACER_NETLIST_NETLIST_HPP
