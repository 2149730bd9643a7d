/**
 * @file
 * qv_fig7: the paper's Figure-7 heavy-output experiment at its largest
 * width, d = 8, on an AshN (r = 0) grid device with 2q error 0.012 and
 * 1q error 0.001. One job scores one fresh model circuit end to end:
 * qv::heavyOutputExperiment with circuits = 1, trajectories = 20,
 * threads = 1 and a per-job seed. The job mixes layers (Haar
 * generation, routing, Weyl coordinates and the cost model, in-cache
 * SoA kernel sweeps, noise sampling, heavy-set scoring); 2^8
 * amplitudes fit in cache, so cache blocking never fires here.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <vector>

#include "ashn/special.hh"
#include "bench.hh"
#include "circuit/noise.hh"
#include "qv/qv.hh"
#include "sim/batch.hh"
#include "sim/batch_state.hh"
#include "sim/engine.hh"
#include "transpile/passes.hh"

namespace perfbench {

using namespace crisc;
using linalg::Complex;
using linalg::Matrix;

namespace {

constexpr std::size_t kWidth = 8;
constexpr int kTrajectories = 20;
constexpr int kSetupRepeats = 15;
/**
 * Jobs every run completes. Their mean heavy-output proportion is the
 * run's, and the gate-time figures average over them.
 */
constexpr std::size_t kPrefixJobs = 256;
/** The run's heavy-output proportion at kDefaultSeed, recorded once
 *  and compared bit for bit (as the Figure-7 EXPECT_EQ pins are). */
constexpr double kPinnedHop = 0x1.60c25e42d1189p-1;
/** Seed stream of the set-up warm-up job, disjoint from job indices. */
constexpr std::size_t kWarmUpStream = ~std::size_t{0};

qv::QvConfig
baseConfig()
{
    qv::QvConfig cfg;
    cfg.width = kWidth;
    cfg.native = qv::NativeSet::AshN;
    cfg.ashnCutoff = 0.0;
    cfg.czError = 0.012;
    cfg.singleQubitError = 0.001;
    cfg.circuits = 1;
    cfg.trajectories = kTrajectories;
    cfg.threads = 1;
    return cfg;
}

/** The configuration of job @p index: its own seed stream. */
qv::QvConfig
jobConfig(const qv::QvConfig &base, const device::Device &dev,
          std::uint64_t seed, std::size_t index)
{
    qv::QvConfig cfg = base;
    cfg.seed = sim::streamSeed(seed, index);
    cfg.device = &dev;
    return cfg;
}

bool
plausible(const qv::QvResult &r)
{
    return std::isfinite(r.heavyOutputProportion) &&
           r.heavyOutputProportion >= 0.0 &&
           r.heavyOutputProportion <= 1.0 &&
           r.avgNativeGatesPerCircuit > 0.0 &&
           r.avgTwoQubitTimePerCircuit > 0.0;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameResult(const qv::QvResult &a, const qv::QvResult &b)
{
    return sameBits(a.heavyOutputProportion, b.heavyOutputProportion) &&
           sameBits(a.avgNativeGatesPerCircuit, b.avgNativeGatesPerCircuit) &&
           sameBits(a.avgTwoQubitTimePerCircuit,
                    b.avgTwoQubitTimePerCircuit) &&
           sameBits(a.avgSwapsPerCircuit, b.avgSwapsPerCircuit);
}

/** One routed block with its noise budget (qv.cc's PhysicalOp). */
struct PhysicalOp
{
    sim::KernelOp kernel;
    int natives;
    double p2;
};

sim::KernelOp
quadOp(std::size_t a, std::size_t b, const Matrix &u)
{
    sim::KernelOp op;
    op.kind = sim::KernelKind::TwoQ;
    op.q0 = a;
    op.q1 = b;
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            op.m[r * 4 + c] = u(r, c);
    return op;
}

/**
 * qv::heavyOutputExperiment for one circuit at threads = 1, replayed
 * step for step through the library's public calls with a span around
 * each layer. Adds the SWAPs routing inserted to @p swaps.
 */
qv::QvResult
tracedExperiment(const qv::QvConfig &cfg, Tracer &tracer, std::size_t &swaps)
{
    const device::Device &dev = *cfg.device;
    const route::CouplingMap &map = dev.coupling();
    const device::NativeGateSet &native = dev.gateSet();
    const device::NoiseModel &noise = dev.noise();
    const std::size_t d = cfg.width;
    const std::size_t dim = std::size_t{1} << d;
    const std::size_t n = map.numQubits();
    const transpile::Route routePass;
    const weyl::WeylPoint swapPoint = ashn::swapPoint();

    const std::uint64_t circuitStream = 0;
    circuit::Circuit model(d);
    {
        Span span(tracer, Layer::LinalgHaar);
        linalg::Rng genRng(sim::streamSeed(cfg.seed, circuitStream));
        struct Block
        {
            std::size_t a, b;
            Matrix u;
        };
        std::vector<std::vector<Block>> layers(d);
        std::vector<std::size_t> order(d);
        for (std::size_t i = 0; i < d; ++i)
            order[i] = i;
        for (std::size_t layer = 0; layer < d; ++layer) {
            std::shuffle(order.begin(), order.end(), genRng.engine());
            for (std::size_t k = 0; k + 1 < d; k += 2)
                layers[layer].push_back(
                    {order[k], order[k + 1], linalg::haarSU(genRng, 4)});
        }
        for (const auto &layer : layers)
            for (const Block &blk : layer)
                model.add(blk.u, {blk.a, blk.b});
    }

    transpile::PassContext routeCtx;
    routeCtx.coupling = &map;
    circuit::Circuit routed(n);
    {
        Span span(tracer, Layer::Route);
        routed = routePass.run(model, routeCtx);
    }
    const route::Layout &layout = *routeCtx.layout;

    double gateSum = 0.0, timeSum = 0.0, swapSum = 0.0;
    std::vector<PhysicalOp> ops;
    device::GateCost swapCost;
    {
        Span span(tracer, Layer::DeviceCost);
        swapCost = native.cost(swapPoint);
    }
    for (const circuit::Gate &g : routed.gates()) {
        if (g.label == "swap") {
            ops.push_back({quadOp(g.qubits[0], g.qubits[1], g.op),
                           swapCost.nativeGates,
                           noise.twoQubitRateFor(swapCost.totalTime /
                                                 swapCost.nativeGates)});
            swapSum += 1.0;
            gateSum += swapCost.nativeGates;
            timeSum += swapCost.totalTime;
            continue;
        }
        weyl::WeylPoint p;
        {
            Span span(tracer, Layer::WeylCoordinates);
            p = weyl::weylCoordinates(g.op);
        }
        device::GateCost cost;
        {
            Span span(tracer, Layer::DeviceCost);
            cost = native.cost(p);
        }
        ops.push_back({quadOp(g.qubits[0], g.qubits[1], g.op),
                       cost.nativeGates,
                       noise.twoQubitRateFor(cost.totalTime /
                                             cost.nativeGates)});
        gateSum += cost.nativeGates;
        timeSum += cost.totalTime;
    }
    swaps += static_cast<std::size_t>(swapSum);

    std::vector<std::size_t> compact(n, 0);
    std::size_t nc = 0;
    {
        std::vector<bool> used(n, false);
        for (const PhysicalOp &op : ops)
            used[op.kernel.q0] = used[op.kernel.q1] = true;
        for (std::size_t l = 0; l < d; ++l)
            used[layout.physicalOf(l)] = true;
        for (std::size_t pq = 0; pq < n; ++pq)
            if (used[pq])
                compact[pq] = nc++;
    }
    for (PhysicalOp &op : ops) {
        op.kernel.q0 = compact[op.kernel.q0];
        op.kernel.q1 = compact[op.kernel.q1];
    }
    const std::size_t simDim = std::size_t{1} << nc;

    // The runner and execution options the harness builds at threads = 1.
    const std::size_t total =
        sim::resolveThreads(static_cast<std::size_t>(cfg.threads));
    const sim::BatchPlan heur = sim::planBatch(
        total, nc, static_cast<std::size_t>(cfg.trajectories));
    const std::size_t soaLanes =
        cfg.soaLanes == 0 ? heur.soaLanes
                          : static_cast<std::size_t>(cfg.soaLanes);
    sim::TrajectoryRunner runner(total,
                                 static_cast<std::size_t>(cfg.stateThreads));
    if (runner.trajWorkers() * runner.stateThreads() != 1)
        throw std::logic_error("qv_fig7 replica expects one thread");
    sim::ExecOptions idealExec;
    idealExec.blockQubits = heur.blockQubits;
    idealExec.shardBits = heur.shardBits;

    linalg::CVector idealAmps;
    {
        Span span(tracer, Layer::Ideal);
        std::optional<sim::Plan> plan;
        {
            Span compile(tracer, Layer::Compile);
            plan.emplace(sim::compile(model));
        }
        idealAmps = sim::run(*plan, idealExec);
    }

    std::vector<bool> heavy(dim);
    std::vector<std::size_t> logicalIndex(simDim);
    {
        Span span(tracer, Layer::HeavySet);
        std::vector<double> probs(dim);
        for (std::size_t i = 0; i < dim; ++i)
            probs[i] = std::norm(idealAmps[i]);
        std::vector<double> sorted = probs;
        std::nth_element(sorted.begin(), sorted.begin() + dim / 2,
                         sorted.end());
        const double upper = sorted[dim / 2];
        const double lower =
            *std::max_element(sorted.begin(), sorted.begin() + dim / 2);
        const double median = 0.5 * (upper + lower);
        for (std::size_t i = 0; i < dim; ++i)
            heavy[i] = probs[i] > median;
        for (std::size_t phys = 0; phys < simDim; ++phys) {
            std::size_t logical = 0;
            for (std::size_t l = 0; l < d; ++l) {
                const std::size_t pq = compact[layout.physicalOf(l)];
                const std::size_t bit = (phys >> (nc - 1 - pq)) & 1;
                logical |= bit << (d - 1 - l);
            }
            logicalIndex[phys] = logical;
        }
    }

    const std::uint64_t trajSeed =
        sim::streamSeed(cfg.seed, circuitStream + 1);
    const std::size_t count = static_cast<std::size_t>(cfg.trajectories);
    double heavySum = 0.0;
    if (soaLanes <= 1) {
        heavySum = runner.sum(
            count, trajSeed,
            [&](std::size_t, linalg::Rng &rng, const sim::ExecOptions &exec) {
                linalg::CVector amps(simDim, Complex{0.0, 0.0});
                amps[0] = 1.0;
                for (const PhysicalOp &op : ops) {
                    {
                        Span span(tracer, Layer::TrajectorySweeps);
                        sim::executeOp(op.kernel, amps.data(), nc, exec);
                    }
                    Span span(tracer, Layer::Noise);
                    const std::size_t qa = op.kernel.q0;
                    const std::size_t qb = op.kernel.q1;
                    for (int g = 0; g < op.natives; ++g) {
                        circuit::applyDepolarizing(amps.data(), nc, qa, qb,
                                                   op.p2, rng);
                        circuit::applyDepolarizing(
                            amps.data(), nc, qa, noise.singleQubitError, rng);
                        circuit::applyDepolarizing(
                            amps.data(), nc, qb, noise.singleQubitError, rng);
                    }
                }
                Span span(tracer, Layer::Score);
                double hop = 0.0;
                for (std::size_t phys = 0; phys < simDim; ++phys)
                    if (heavy[logicalIndex[phys]])
                        hop += std::norm(amps[phys]);
                return hop;
            });
    } else {
        heavySum = runner.sumBatched(
            count, trajSeed, soaLanes,
            [&](std::size_t, std::size_t lanes, linalg::Rng *rngs,
                const sim::ExecOptions &exec, double *out) {
                sim::BatchState batch(nc, lanes);
                for (const PhysicalOp &op : ops) {
                    {
                        Span span(tracer, Layer::TrajectorySweeps);
                        sim::executeOpBatched(op.kernel, batch, exec);
                    }
                    Span span(tracer, Layer::Noise);
                    const std::size_t qa = op.kernel.q0;
                    const std::size_t qb = op.kernel.q1;
                    for (std::size_t l = 0; l < lanes; ++l) {
                        for (int g = 0; g < op.natives; ++g) {
                            circuit::applyDepolarizing(batch, l, qa, qb,
                                                       op.p2, rngs[l]);
                            circuit::applyDepolarizing(
                                batch, l, qa, noise.singleQubitError,
                                rngs[l]);
                            circuit::applyDepolarizing(
                                batch, l, qb, noise.singleQubitError,
                                rngs[l]);
                        }
                    }
                }
                Span span(tracer, Layer::Score);
                for (std::size_t l = 0; l < lanes; ++l) {
                    double hop = 0.0;
                    for (std::size_t phys = 0; phys < simDim; ++phys)
                        if (heavy[logicalIndex[phys]])
                            hop += std::norm(batch.amp(phys, l));
                    out[l] = hop;
                }
            });
    }

    qv::QvResult out;
    out.heavyOutputProportion = heavySum / (cfg.circuits * cfg.trajectories);
    out.avgNativeGatesPerCircuit = gateSum / cfg.circuits;
    out.avgTwoQubitTimePerCircuit = timeSum / cfg.circuits;
    out.avgSwapsPerCircuit = swapSum / cfg.circuits;
    return out;
}

/** Runs one job through the library harness; nullopt if it throws. */
std::optional<qv::QvResult>
runJob(const qv::QvConfig &cfg)
{
    std::optional<qv::QvResult> r;
    attempt("qv_fig7", [&] { r = qv::heavyOutputExperiment(cfg); });
    return r;
}

Outcome
endToEnd(const Options &opts)
{
    const qv::QvConfig base = baseConfig();
    JobLog log;
    std::optional<device::Device> dev;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        dev.reset();
        const auto start = Clock::now();
        dev.emplace(qv::presetDevice(base));
        // A warm-up job on a stream no timed job uses lets lazy
        // one-time initialization finish inside set-up.
        runJob(jobConfig(base, *dev, opts.seed, kWarmUpStream));
        log.setupSeconds.push_back(secondsSince(start));
    }

    double prefixHop = 0.0;
    for (std::size_t i = 0; keepGoing(log, opts.seconds, kPrefixJobs); ++i) {
        const qv::QvConfig cfg = jobConfig(base, *dev, opts.seed, i);
        const auto start = Clock::now();
        const std::optional<qv::QvResult> r = runJob(cfg);
        log.jobSeconds.push_back(secondsSince(start));
        if (!r || !plausible(*r)) {
            ++log.failed;
            log.wrong += r ? 1 : 0;
            continue;
        }
        if (i < kPrefixJobs)
            prefixHop += r->heavyOutputProportion;
        log.addFigures(i, kPrefixJobs, r->avgTwoQubitTimePerCircuit,
                       r->avgNativeGatesPerCircuit);
    }

    // The run's heavy-output proportion: the mean over its fixed prefix.
    const double hop = prefixHop / static_cast<double>(kPrefixJobs);
    bool correct = log.wrong == 0 && hop > 2.0 / 3.0;
    if (opts.seed == kDefaultSeed && !sameBits(hop, kPinnedHop)) {
        std::fprintf(stderr,
                     "qv_fig7: heavy-output proportion %a differs from the "
                     "recorded %a\n",
                     hop, kPinnedHop);
        correct = false;
    }
    std::fprintf(stderr,
                 "qv_fig7: %zu jobs, %zu failed, heavy-output proportion "
                 "%.17g (%a) over the first %zu\n",
                 log.jobSeconds.size(), log.failed, hop, hop, kPrefixJobs);
    return {correct, log.jobSeconds.size(), log.failed,
            endToEndMetrics(log)};
}

Outcome
traced(const Options &opts)
{
    // Each job runs twice, back to back: through the library harness
    // with tracing off (the baseline for trace_overhead_pct, and the
    // reference result), then through the traced replica, which must
    // reproduce it bit for bit.
    const qv::QvConfig base = baseConfig();
    const device::Device dev = qv::presetDevice(base);
    Tracer tracer;
    std::optional<device::Device> tracedDev;
    {
        Span setup(tracer, Layer::Setup);
        tracedDev.emplace(qv::presetDevice(base));
    }
    JobLog log;
    std::size_t failed = 0, wrong = 0, swaps = 0;
    for (std::size_t i = 0; keepGoing(log, opts.seconds / 2, kPrefixJobs);
         ++i) {
        const auto start = Clock::now();
        const std::optional<qv::QvResult> reference =
            runJob(jobConfig(base, dev, opts.seed, i));
        log.jobSeconds.push_back(secondsSince(start));
        std::optional<qv::QvResult> r;
        attempt("qv_fig7", [&] {
            Span job(tracer, Layer::Job);
            r = tracedExperiment(jobConfig(base, *tracedDev, opts.seed, i),
                                 tracer, swaps);
        });
        if (!r && !reference) {
            ++failed;  // the replica throws where the library does
            continue;
        }
        if (!r || !reference || !plausible(*r) ||
            !sameResult(*r, *reference)) {
            ++failed;
            ++wrong;
        }
    }

    TraceCounts counts;
    counts.routeSwaps = swaps;
    counts.untracedJobSeconds = log.busySeconds();
    const std::size_t jobs = log.jobSeconds.size();
    std::fprintf(stderr, "qv_fig7 traced: %zu jobs, %zu failed\n", jobs,
                 failed);
    return {wrong == 0 && traceSumsToTotal(tracer), jobs, failed,
            layerMetrics(tracer, counts)};
}

} // namespace

Outcome
runQvFig7(const Options &opts)
{
    return opts.trace ? traced(opts) : endToEnd(opts);
}

} // namespace perfbench
