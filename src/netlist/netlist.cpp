#include "netlist/netlist.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.hpp"

namespace qplacer {

int
Netlist::addInstance(Instance inst)
{
    inst.id = numInstances();
    if (inst.kind == InstanceKind::Qubit) {
        if (inst.id != numQubits_)
            panic("Netlist: qubit instances must be added first");
        ++numQubits_;
    }
    instances_.push_back(inst);
    return inst.id;
}

void
Netlist::addNet(int a, int b, double weight)
{
    if (a < 0 || a >= numInstances() || b < 0 || b >= numInstances())
        panic(str("Netlist::addNet: pin out of range (", a, ", ", b, ")"));
    if (a == b)
        panic("Netlist::addNet: degenerate net");
    nets_.push_back(Net{a, b, weight});
}

int
Netlist::addResonator(Resonator res)
{
    res.id = static_cast<int>(resonators_.size());
    resonators_.push_back(std::move(res));
    return resonators_.back().id;
}

void
Netlist::adopt(std::vector<Instance> instances, std::vector<Net> nets,
               std::vector<Resonator> resonators, int num_qubits)
{
    if (num_qubits < 0 || num_qubits > static_cast<int>(instances.size()))
        panic(str("Netlist::adopt: bad qubit count ", num_qubits));
    const int n = static_cast<int>(instances.size());
    for (int i = 0; i < n; ++i) {
        const Instance &inst = instances[i];
        if (inst.id != i)
            panic(str("Netlist::adopt: instance ", i, " has id ",
                      inst.id));
        if ((inst.kind == InstanceKind::Qubit) != (i < num_qubits))
            panic("Netlist::adopt: qubit instances must come first");
    }
    for (std::size_t r = 0; r < resonators.size(); ++r) {
        if (resonators[r].id != static_cast<int>(r))
            panic(str("Netlist::adopt: resonator ", r, " has id ",
                      resonators[r].id));
    }
    for (const Net &net : nets) {
        if (net.a < 0 || net.a >= n || net.b < 0 || net.b >= n)
            panic(str("Netlist::adopt: pin out of range (", net.a, ", ",
                      net.b, ")"));
        if (net.a == net.b)
            panic("Netlist::adopt: degenerate net");
    }
    instances_ = std::move(instances);
    nets_ = std::move(nets);
    resonators_ = std::move(resonators);
    numQubits_ = num_qubits;
}

const Instance &
Netlist::instance(int id) const
{
    if (id < 0 || id >= numInstances())
        panic(str("Netlist::instance: id ", id, " out of range"));
    return instances_[id];
}

Instance &
Netlist::instance(int id)
{
    if (id < 0 || id >= numInstances())
        panic(str("Netlist::instance: id ", id, " out of range"));
    return instances_[id];
}

const Resonator &
Netlist::resonator(int id) const
{
    if (id < 0 || id >= static_cast<int>(resonators_.size()))
        panic(str("Netlist::resonator: id ", id, " out of range"));
    return resonators_[id];
}

double
Netlist::totalPaddedArea() const
{
    double acc = 0.0;
    for (const Instance &inst : instances_)
        acc += inst.paddedArea();
    return acc;
}

namespace {

/** The one HPWL sum; @p pos(i) is instance i's center. */
template <typename PosOf>
double
sumHpwl(const std::vector<Net> &nets, PosOf pos)
{
    double total = 0.0;
    for (const Net &net : nets) {
        const Vec2 &pa = pos(net.a);
        const Vec2 &pb = pos(net.b);
        total += net.weight * (std::abs(pa.x - pb.x) + std::abs(pa.y - pb.y));
    }
    return total;
}

} // namespace

double
Netlist::hpwl(const std::vector<Vec2> &positions) const
{
    return sumHpwl(nets_, [&](int i) -> const Vec2 & {
        return positions[static_cast<std::size_t>(i)];
    });
}

double
Netlist::hpwl() const
{
    return sumHpwl(nets_, [this](int i) -> const Vec2 & {
        return instances_[static_cast<std::size_t>(i)].pos;
    });
}

void
Netlist::sizeRegion(double target_util)
{
    if (target_util <= 0.0 || target_util > 1.0)
        fatal("Netlist::sizeRegion: utilization must be in (0, 1]");
    const double side = std::sqrt(totalPaddedArea() / target_util);
    region_ = Rect(0.0, 0.0, side, side);
}

int
Netlist::qubitInstance(int qubit_id) const
{
    for (int i = 0; i < numQubits_; ++i) {
        if (instances_[i].qubit == qubit_id)
            return i;
    }
    panic(str("Netlist::qubitInstance: qubit ", qubit_id, " not found"));
}

std::vector<double>
Netlist::frequencies() const
{
    std::vector<double> out(instances_.size());
    for (std::size_t i = 0; i < instances_.size(); ++i)
        out[i] = instances_[i].freqHz;
    return out;
}

std::vector<int>
Netlist::resonatorGroups() const
{
    std::vector<int> out(instances_.size());
    for (std::size_t i = 0; i < instances_.size(); ++i)
        out[i] = instances_[i].resonator;
    return out;
}

void
Netlist::clampIntoRegion()
{
    for (Instance &inst : instances_) {
        const double hw = inst.paddedWidth() / 2.0;
        const double hh = inst.paddedHeight() / 2.0;
        inst.pos.x =
            std::clamp(inst.pos.x, region_.lo.x + hw, region_.hi.x - hw);
        inst.pos.y =
            std::clamp(inst.pos.y, region_.lo.y + hh, region_.hi.y - hh);
    }
}

void
Netlist::validate() const
{
    for (int i = 0; i < numInstances(); ++i) {
        const Instance &inst = instances_[i];
        if (inst.id != i)
            panic(str("Netlist: instance ", i, " has id ", inst.id));
        if (inst.width <= 0.0 || inst.height <= 0.0)
            panic(str("Netlist: instance ", i, " has empty shape"));
        if (inst.pad < 0.0)
            panic(str("Netlist: instance ", i, " has negative padding"));
        if (inst.kind == InstanceKind::Qubit && i >= numQubits_)
            panic("Netlist: qubit instance after segment instances");
    }
    for (const Resonator &res : resonators_) {
        if (res.segments.empty())
            panic(str("Netlist: resonator ", res.id, " has no segments"));
        for (std::size_t s = 0; s < res.segments.size(); ++s) {
            const Instance &seg = instance(res.segments[s]);
            if (seg.kind != InstanceKind::ResonatorSegment ||
                seg.resonator != res.id ||
                seg.segment != static_cast<int>(s)) {
                panic(str("Netlist: resonator ", res.id,
                          " has an inconsistent segment chain"));
            }
        }
    }
}

namespace {

/** memcmp equality on a double (distinguishes -0.0, exact NaN bits). */
bool
sameBits(double x, double y)
{
    return std::memcmp(&x, &y, sizeof(double)) == 0;
}

} // namespace

bool
bitwiseSameNetlist(const Netlist &a, const Netlist &b)
{
    if (a.numInstances() != b.numInstances() ||
        a.numQubits() != b.numQubits() ||
        a.nets().size() != b.nets().size() ||
        a.resonators().size() != b.resonators().size())
        return false;
    if (a.dieSpec().rows != b.dieSpec().rows ||
        a.dieSpec().cols != b.dieSpec().cols ||
        !sameBits(a.dieSpec().cutGapUm, b.dieSpec().cutGapUm))
        return false;
    if (!sameBits(a.region().lo.x, b.region().lo.x) ||
        !sameBits(a.region().lo.y, b.region().lo.y) ||
        !sameBits(a.region().hi.x, b.region().hi.x) ||
        !sameBits(a.region().hi.y, b.region().hi.y))
        return false;
    for (int i = 0; i < a.numInstances(); ++i) {
        const Instance &ia = a.instances()[i];
        const Instance &ib = b.instances()[i];
        if (ia.kind != ib.kind || ia.id != ib.id ||
            ia.qubit != ib.qubit || ia.resonator != ib.resonator ||
            ia.segment != ib.segment ||
            !sameBits(ia.freqHz, ib.freqHz) ||
            !sameBits(ia.width, ib.width) ||
            !sameBits(ia.height, ib.height) ||
            !sameBits(ia.pad, ib.pad) || !sameBits(ia.pos.x, ib.pos.x) ||
            !sameBits(ia.pos.y, ib.pos.y))
            return false;
    }
    for (std::size_t i = 0; i < a.nets().size(); ++i) {
        const Net &na = a.nets()[i];
        const Net &nb = b.nets()[i];
        if (na.a != nb.a || na.b != nb.b ||
            !sameBits(na.weight, nb.weight))
            return false;
    }
    for (std::size_t i = 0; i < a.resonators().size(); ++i) {
        const Resonator &ra = a.resonators()[i];
        const Resonator &rb = b.resonators()[i];
        if (ra.id != rb.id || ra.edge != rb.edge ||
            ra.qubitA != rb.qubitA || ra.qubitB != rb.qubitB ||
            !sameBits(ra.freqHz, rb.freqHz) ||
            !sameBits(ra.lengthUm, rb.lengthUm) ||
            ra.segments != rb.segments)
            return false;
    }
    return true;
}

bool
bitwiseSameLayout(const Netlist &a, const Netlist &b)
{
    if (a.numInstances() != b.numInstances())
        return false;
    for (int i = 0; i < a.numInstances(); ++i) {
        const Vec2 pa = a.instances()[i].pos;
        const Vec2 pb = b.instances()[i].pos;
        if (std::memcmp(&pa.x, &pb.x, sizeof(double)) != 0 ||
            std::memcmp(&pa.y, &pb.y, sizeof(double)) != 0)
            return false;
    }
    return true;
}

} // namespace qplacer
