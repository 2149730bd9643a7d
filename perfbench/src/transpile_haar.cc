/**
 * @file
 * transpile_haar: compile fresh Haar-random circuits to AshN pulse
 * programs. Every circuit holds 16 Haar SU(4) gates on random pairs of
 * 5 logical qubits and targets a 5-qubit line (h = 0.1, r = 0). One
 * Device serves the whole run, so its WeylCache is shared the way a
 * compile service would share it; Haar points never repeat, so every
 * non-SWAP gate misses the cache and pays ashn::synthesize. The
 * simulator is never touched.
 */

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <vector>

#include "bench.hh"
#include "circuit/circuit.hh"
#include "device/device.hh"
#include "linalg/random.hh"
#include "qop/metrics.hh"
#include "sim/batch.hh"
#include "traced_transpile.hh"
#include "transpile/transpile.hh"

namespace perfbench {

using namespace crisc;
using circuit::Circuit;
using linalg::Matrix;

namespace {

constexpr const char *kName = "transpile_haar";
constexpr std::size_t kQubits = 5;
constexpr std::size_t kGatesPerCircuit = 16;
constexpr double kZZRatio = 0.1;
constexpr int kSetupRepeats = 15;
/** Jobs every end-to-end run completes; the gate-time figures average
 *  over them. */
constexpr std::size_t kPrefixJobs = 256;
constexpr std::size_t kSmokePrefixJobs = 3;
/** Jobs every traced run completes. */
constexpr std::size_t kTracedMinJobs = 8;

device::Device
makeDevice()
{
    return device::Device::withCoupling(
        device::NativeKind::AshN, route::CouplingMap::line(kQubits),
        {.twoQubitError = 0.01,
         .singleQubitError = 0.001,
         .h = kZZRatio,
         .r = 0.0});
}

/** Circuit @p index of the run seeded @p seed; its own RNG stream, so
 *  no two jobs of a run (or of two seeds) share a circuit. */
Circuit
makeCircuit(std::uint64_t seed, std::size_t index)
{
    linalg::Rng rng(sim::streamSeed(seed, index));
    Circuit c(kQubits);
    for (std::size_t g = 0; g < kGatesPerCircuit; ++g) {
        const std::size_t a = rng.index(kQubits);
        std::size_t b = rng.index(kQubits - 1);
        if (b >= a)
            ++b;
        c.add(linalg::haarSU(rng, 4), {a, b});
    }
    return c;
}

/**
 * Allowed deviation per emitted pulse. Generic Haar gates lower to
 * ~1e-13, but ashn::synthesize realizes the SWAP corner (pi/4, pi/4,
 * pi/4) only to ~4e-7 at h = 0.1 (its own acceptance test is a chamber
 * distance of 1e-5), and routing on a line emits SWAPs in nearly every
 * circuit, so a flat 1e-8 would fail every job.
 */
constexpr double kTolerancePerPulse = 1e-6;

/**
 * How far the output's dense unitary, read through its final layout,
 * is from the input's, up to global phase (max entry difference;
 * infinite without a layout). The reference is Circuit::toUnitary on
 * the input: a plain product of its gates, outside every pass under
 * test.
 */
double
deviation(const Circuit &logical, const transpile::TranspileResult &res)
{
    if (!res.context.layout || res.circuit.numQubits() != kQubits)
        return std::numeric_limits<double>::infinity();
    const std::size_t dim = std::size_t{1} << kQubits;
    const Matrix ul = logical.toUnitary();
    const Matrix ur = res.circuit.toUnitary();
    Matrix unpermuted(dim, dim);
    for (std::size_t phys = 0; phys < dim; ++phys) {
        std::size_t perm = 0;
        for (std::size_t l = 0; l < kQubits; ++l) {
            const std::size_t pq = res.context.layout->physicalOf(l);
            perm |= ((phys >> (kQubits - 1 - pq)) & 1) << (kQubits - 1 - l);
        }
        for (std::size_t col = 0; col < dim; ++col)
            unpermuted(perm, col) = ur(phys, col);
    }
    return linalg::maxAbsDiff(qop::alignGlobalPhase(unpermuted, ul), ul);
}

bool
equivalent(const Circuit &logical, const transpile::TranspileResult &res,
           double &max_deviation)
{
    const double d = deviation(logical, res);
    max_deviation = std::max(max_deviation, d);
    return d <= kTolerancePerPulse *
                    static_cast<double>(res.context.pulses.size());
}

Outcome
endToEnd(const Options &opts, std::size_t prefix)
{
    JobLog log;
    double maxDeviation = 0.0;
    std::optional<device::Device> dev;
    std::vector<Circuit> inputs;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        const auto start = Clock::now();
        dev.reset();
        inputs.clear();
        dev.emplace(makeDevice());
        for (std::size_t i = 0; i < prefix; ++i)
            inputs.push_back(makeCircuit(opts.seed, i));
        log.setupSeconds.push_back(secondsSince(start));
    }
    const transpile::TranspileOptions topts{.device = &*dev};

    for (std::size_t i = 0; keepGoing(log, opts.seconds, prefix); ++i) {
        const Circuit circ = i < inputs.size() ? std::move(inputs[i])
                                               : makeCircuit(opts.seed, i);
        transpile::TranspileResult res;
        const auto start = Clock::now();
        const bool ok = attempt(
            kName, [&] { res = transpile::transpile(circ, topts); });
        log.jobSeconds.push_back(secondsSince(start));
        if (!ok || !equivalent(circ, res, maxDeviation)) {
            ++log.failed;
            log.wrong += ok ? 1 : 0;
            continue;
        }
        log.addFigures(i, prefix, res.context.totalPulseTime,
                       static_cast<double>(res.context.nativeGates));
    }
    std::fprintf(stderr,
                 "transpile_haar: %zu jobs, %zu failed, max deviation "
                 "%.3g\n",
                 log.jobSeconds.size(), log.failed, maxDeviation);
    return {log.wrong == 0, log.jobSeconds.size(), log.failed,
            endToEndMetrics(log)};
}

Outcome
traced(const Options &opts)
{
    // Each job runs twice, back to back on the same circuit: through
    // the library pipeline with tracing off (the baseline for
    // trace_overhead_pct, and the reference output), then through the
    // traced replica, which must reproduce it bit for bit. Each side
    // has its own Device, so both see a cold cache.
    const device::Device dev = makeDevice();
    const transpile::TranspileOptions topts{.device = &dev};
    Tracer tracer;
    std::optional<device::Device> tracedDev;
    {
        Span setup(tracer, Layer::Setup);
        tracedDev.emplace(makeDevice());
    }
    TracedTranspiler replica(*tracedDev, tracer);
    JobLog log;
    double maxDeviation = 0.0;
    std::size_t failed = 0, wrong = 0;
    for (std::size_t i = 0; keepGoing(log, opts.seconds / 2, kTracedMinJobs);
         ++i) {
        const Circuit circ = makeCircuit(opts.seed, i);
        transpile::TranspileResult reference, res;
        const auto start = Clock::now();
        const bool refOk = attempt(
            kName, [&] { reference = transpile::transpile(circ, topts); });
        log.jobSeconds.push_back(secondsSince(start));
        const bool ok = attempt(kName, [&] {
            Span job(tracer, Layer::Job);
            res = replica.run(circ);
        });
        if (!refOk && !ok) {
            ++failed;  // the replica throws where the library does
            continue;
        }
        if (!refOk || !ok || !sameResult(res, reference) ||
            !equivalent(circ, res, maxDeviation)) {
            ++failed;
            ++wrong;
        }
    }

    const auto &cache =
        static_cast<const device::AshNGateSet &>(dev.gateSet()).cache();
    const bool countsAgree = cache.hits() == replica.hits() &&
                             cache.misses() == replica.misses() &&
                             cache.size() == replica.entries();
    if (!countsAgree)
        std::fprintf(stderr,
                     "transpile_haar: replica cache counts differ from "
                     "the library's\n");
    TraceCounts counts;
    counts.cacheHits = replica.hits();
    counts.cacheMisses = replica.misses();
    counts.cacheEntries = replica.entries();
    counts.routeSwaps = replica.swaps();
    counts.untracedJobSeconds = log.busySeconds();
    const std::size_t jobs = log.jobSeconds.size();
    std::fprintf(stderr,
                 "transpile_haar traced: %zu jobs, %zu failed, max "
                 "deviation %.3g\n",
                 jobs, failed, maxDeviation);
    return {wrong == 0 && countsAgree && traceSumsToTotal(tracer), jobs,
            failed, layerMetrics(tracer, counts)};
}

} // namespace

Outcome
runTranspileHaar(const Options &opts)
{
    if (opts.trace)
        return traced(opts);
    return endToEnd(opts, opts.smoke ? kSmokePrefixJobs : kPrefixJobs);
}

} // namespace perfbench
