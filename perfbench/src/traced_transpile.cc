#include "traced_transpile.hh"

#include <complex>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <utility>

#include "ashn/scheme.hh"
#include "synth/two_qubit.hh"
#include "weyl/weyl.hh"

namespace perfbench {

using namespace crisc;
using circuit::Circuit;
using circuit::Gate;
using linalg::Matrix;

namespace {

double
foldZero(double v)
{
    return v == 0.0 ? 0.0 : v;
}

bool
sameBits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.rows() * a.cols() * sizeof(linalg::Complex)) == 0;
}

bool
sameParams(const ashn::GateParams &a, const ashn::GateParams &b)
{
    return a.scheme == b.scheme && a.tau == b.tau && a.omega1 == b.omega1 &&
           a.omega2 == b.omega2 && a.delta == b.delta && a.h == b.h;
}

} // namespace

std::size_t
TracedTranspiler::KeyHash::operator()(const Key &k) const
{
    std::size_t seed = std::hash<double>{}(k.x);
    for (const double v : {k.y, k.z})
        seed ^= std::hash<double>{}(v) + 0x9e3779b97f4a7c15ULL +
                (seed << 6) + (seed >> 2);
    return seed;
}

TracedTranspiler::TracedTranspiler(const device::Device &dev,
                                   Tracer &tracer)
    : dev_(dev), tracer_(tracer)
{
    const auto *ashnSet =
        dynamic_cast<const device::AshNGateSet *>(&dev.gateSet());
    if (ashnSet == nullptr)
        throw std::invalid_argument(
            "TracedTranspiler: device must have an AshN gate set");
    h_ = ashnSet->h();
    r_ = ashnSet->r();
}

device::Lowered2q
TracedTranspiler::lower(const Matrix &u)
{
    // AshNGateSet::lower: coordinates, cached synthesis, local compile.
    weyl::WeylPoint p;
    {
        Span span(tracer_, Layer::WeylCoordinates);
        p = weyl::weylCoordinates(u);
    }
    const Key key{foldZero(p.x), foldZero(p.y), foldZero(p.z)};
    const device::WeylCache::Entry *entry = nullptr;
    {
        Span span(tracer_, Layer::WeylCacheLookup);
        const auto it = memo_.find(key);
        if (it != memo_.end())
            entry = &it->second;
    }
    if (entry != nullptr) {
        ++hits_;
    } else {
        device::WeylCache::Entry e;
        {
            Span span(tracer_, Layer::AshnSynthesize);
            e.params = ashn::synthesize(p, h_, r_);
        }
        {
            Span span(tracer_, Layer::AshnRealize);
            e.pulse = ashn::realize(e.params);
        }
        Span span(tracer_, Layer::WeylCacheLookup);
        ++misses_;  // counted on insertion, as WeylCache does
        entry = &memo_.emplace(key, std::move(e)).first->second;
    }
    synth::AshnCompiled ac;
    {
        Span span(tracer_, Layer::CompileToAshn);
        ac = synth::compileToAshn(u, entry->params, entry->pulse);
    }
    device::Lowered2q out;
    out.ops.add(ac.r1, {0}, "pre");
    out.ops.add(ac.r2, {1}, "pre");
    out.ops.add(std::polar(1.0, ac.phase) * entry->pulse, {0, 1}, "pulse");
    out.ops.add(ac.l1, {0}, "post");
    out.ops.add(ac.l2, {1}, "post");
    out.pulse = entry->params;
    out.cost = {1, entry->params.tau};
    return out;
}

Circuit
TracedTranspiler::lowerCircuit(const Circuit &in,
                               transpile::PassContext &ctx)
{
    // transpile::NativeLower::run, with lower() above as the gate set.
    Circuit out(in.numQubits());
    for (const Gate &g : in.gates()) {
        if (g.qubits.size() > 2)
            throw std::invalid_argument(
                "TracedTranspiler: gate wider than two qubits");
        if (g.qubits.size() != 2) {
            out.add(g.op, g.qubits, g.label);
            if (g.qubits.size() == 1)
                ++ctx.singleQubitGates;
            continue;
        }
        const device::Lowered2q low = lower(g.op);
        const std::size_t a = g.qubits[0], b = g.qubits[1];
        for (const Gate &lg : low.ops.gates()) {
            std::vector<std::size_t> mapped;
            for (std::size_t q : lg.qubits)
                mapped.push_back(q == 0 ? a : b);
            if (lg.qubits.size() == 1)
                ++ctx.singleQubitGates;
            out.add(lg.op, std::move(mapped), lg.label);
        }
        if (low.pulse)
            ctx.pulses.push_back({a, b, *low.pulse});
        ctx.nativeGates += static_cast<std::size_t>(low.cost.nativeGates);
        ctx.totalPulseTime += low.cost.totalTime;
    }
    return out;
}

transpile::TranspileResult
TracedTranspiler::run(const Circuit &logical)
{
    // transpile::makePipeline for a device: decompose, fuse, peephole,
    // route, lower.
    transpile::TranspileResult res;
    transpile::PassContext &ctx = res.context;
    ctx.coupling = &dev_.coupling();
    Circuit c = logical;
    {
        Span span(tracer_, Layer::Decompose);
        c = transpile::WideGateDecompose().run(c, ctx);
    }
    {
        Span span(tracer_, Layer::Fuse);
        c = transpile::SingleQubitFuse().run(c, ctx);
    }
    {
        Span span(tracer_, Layer::Peephole);
        c = transpile::PeepholeCancel().run(c, ctx);
    }
    {
        Span span(tracer_, Layer::Route);
        c = transpile::Route().run(c, ctx);
    }
    for (const Gate &g : c.gates())
        swaps_ += g.label == "swap" ? 1 : 0;
    {
        Span span(tracer_, Layer::Lower);
        res.circuit = lowerCircuit(c, ctx);
    }
    return res;
}

bool
sameResult(const transpile::TranspileResult &a,
           const transpile::TranspileResult &b)
{
    const auto &ga = a.circuit.gates();
    const auto &gb = b.circuit.gates();
    if (a.circuit.numQubits() != b.circuit.numQubits() ||
        ga.size() != gb.size())
        return false;
    for (std::size_t i = 0; i < ga.size(); ++i)
        if (ga[i].qubits != gb[i].qubits || ga[i].label != gb[i].label ||
            !sameBits(ga[i].op, gb[i].op))
            return false;
    const transpile::PassContext &ca = a.context;
    const transpile::PassContext &cb = b.context;
    if (ca.pulses.size() != cb.pulses.size() ||
        ca.totalPulseTime != cb.totalPulseTime ||
        ca.nativeGates != cb.nativeGates ||
        ca.singleQubitGates != cb.singleQubitGates ||
        ca.layout.has_value() != cb.layout.has_value())
        return false;
    for (std::size_t i = 0; i < ca.pulses.size(); ++i)
        if (ca.pulses[i].a != cb.pulses[i].a ||
            ca.pulses[i].b != cb.pulses[i].b ||
            !sameParams(ca.pulses[i].params, cb.pulses[i].params))
            return false;
    if (ca.layout)
        for (std::size_t q = 0; q < a.circuit.numQubits(); ++q)
            if (ca.layout->physicalOf(q) != cb.layout->physicalOf(q))
                return false;
    return true;
}

} // namespace perfbench
