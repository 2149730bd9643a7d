/**
 * @file
 * trotter_xxz: Trotter dynamics of an XXZ chain (J = 1, Jz = 0.5,
 * dt = 0.1) at n = 24 qubits on a 24-qubit line AshN device
 * (h = 0.1). Set-up transpiles one Trotter step to a pulse program
 * (23 pulses; every bond shares one Weyl point, so the cache misses
 * once), compiles it to a kernel plan and prepares a one-spin-flipped
 * state; the seed picks the flipped spin. One job is one step,
 * sim::execute(plan, amps, {}) with the default auto policy. n = 24 is
 * the smallest width at which cache blocking turns on, and the
 * 256 MiB state streams from DRAM, so the traced run also measures a
 * single-thread STREAM triad as the bandwidth bound.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <unistd.h>
#include <vector>

#include "bench.hh"
#include "device/device.hh"
#include "qop/gates.hh"
#include "sim/cache.hh"
#include "sim/engine.hh"
#include "traced_transpile.hh"
#include "transpile/transpile.hh"

namespace perfbench {

using namespace crisc;
using circuit::Circuit;

namespace {

constexpr std::size_t kWidth = 24;
constexpr std::size_t kSmokeWidth = 12;
constexpr double kJ = 1.0, kJz = 0.5, kDt = 0.1;
constexpr double kZZRatio = 0.1;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kPrefixJobs = 3;
/**
 * The state is re-prepared (outside the timed window) after this many
 * steps. Rounding drifts the conserved quantities by ~4e-12 per step,
 * so without a restart a fast enough build would run past the 1e-9
 * conservation check.
 */
constexpr std::size_t kRestartEvery = 16;
/** LLC size assumed when the system does not report one. */
constexpr long kFallbackLlcBytes = 32L << 20;

Circuit
trotterStep(std::size_t n)
{
    // canonicalGate is exp(+i(x XX + y YY + z ZZ)); negate for
    // exp(-i H dt).
    const linalg::Matrix bond =
        qop::canonicalGate(-kJ * kDt, -kJ * kDt, -kJz * kDt);
    Circuit step(n);
    for (std::size_t q = 0; q + 1 < n; q += 2)
        step.add(bond, {q, q + 1}, "bond");
    for (std::size_t q = 1; q + 1 < n; q += 2)
        step.add(bond, {q, q + 1}, "bond");
    return step;
}

device::Device
makeDevice(std::size_t n)
{
    return device::Device::withCoupling(
        device::NativeKind::AshN, route::CouplingMap::line(n),
        {.twoQubitError = 0.01,
         .singleQubitError = 0.001,
         .h = kZZRatio,
         .r = 0.0});
}

/** Basis index of |0...010...0> with the seed's spin flipped, the
 *  initial state: sum <Z_q> = n - 2. */
std::size_t
initialIndex(std::size_t n, std::uint64_t seed)
{
    return std::size_t{1} << (n - 1 - seed % n);
}

linalg::CVector
prepareState(std::size_t n, std::uint64_t seed)
{
    linalg::CVector amps(std::size_t{1} << n);
    amps[initialIndex(n, seed)] = 1.0;
    return amps;
}

/** Re-prepares @p amps in place once every kRestartEvery steps. */
void
maybeRestart(linalg::CVector &amps, std::size_t steps_done, std::size_t n,
             std::uint64_t seed)
{
    if (steps_done % kRestartEvery != 0)
        return;
    std::fill(amps.begin(), amps.end(), linalg::Complex{0.0, 0.0});
    amps[initialIndex(n, seed)] = 1.0;
}

/** XXZ conserves magnetization: sum <Z_q> stays n - 2, the norm 1. */
bool
conserved(const linalg::CVector &amps, std::size_t n)
{
    double norm = 0.0, mag = 0.0;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        const double p = std::norm(amps[i]);
        norm += p;
        mag += p * (static_cast<double>(n) -
                    2.0 * static_cast<double>(std::popcount(i)));
    }
    return std::abs(norm - 1.0) <= 1e-9 &&
           std::abs(mag - static_cast<double>(n - 2)) <= 1e-9;
}

std::uint64_t
stateHash(const linalg::CVector &amps)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto *bytes = reinterpret_cast<const unsigned char *>(amps.data());
    for (std::size_t i = 0; i < amps.size() * sizeof(linalg::Complex);
         i += 8) {
        std::uint64_t w;
        std::memcpy(&w, bytes + i, 8);
        h = (h ^ w) * 0x100000001b3ULL;
    }
    return h;
}

/** Everything set-up leaves for the jobs. */
struct Prepared
{
    device::Device dev;
    transpile::TranspileResult program;
    sim::Plan plan;
    linalg::CVector amps;
};

Prepared
setUp(std::size_t n, std::uint64_t seed)
{
    device::Device dev = makeDevice(n);
    transpile::TranspileResult program =
        transpile::transpile(trotterStep(n), {.device = &dev});
    sim::Plan plan = sim::compile(program.circuit);
    return {std::move(dev), std::move(program), std::move(plan),
            prepareState(n, seed)};
}

/** Full-register passes one step makes under the default auto policy. */
std::size_t
registerPasses(const sim::Plan &plan)
{
    const std::size_t b = sim::resolveBlockQubits(0, plan.numQubits());
    if (b == 0)
        return plan.ops().size();
    std::size_t passes = 0;
    for (const sim::BlockSegment &seg : sim::blockSegments(plan, b))
        passes += seg.blockable ? 1 : seg.count;
    return passes;
}

/** Runs one step in place; false if it throws. */
bool
step(const sim::Plan &plan, linalg::CVector &amps)
{
    return attempt("trotter_xxz", [&] { sim::execute(plan, amps.data(), {}); });
}

struct Triad
{
    double gbps = 0.0;
    double footprintMib = 0.0;
    double llcMib = 0.0;
};

/**
 * Single-thread STREAM triad a = b + s*c over three arrays whose total
 * footprint is at least 4x the last-level cache. Bytes moved per sweep
 * are counted as 3 arrays x 8 B per element (STREAM's convention, no
 * write-allocate traffic); the rate is the median of 10 timed sweeps
 * after one warm-up.
 */
Triad
triadProbe()
{
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0)
        llc = kFallbackLlcBytes;
    const std::size_t elems =
        (4 * static_cast<std::size_t>(llc) / 3 + 7) / sizeof(double);
    std::vector<double> a(elems, 0.0), b(elems, 1.0), c(elems, 2.0);
    const double s = 3.0;
    std::vector<double> secs;
    for (int it = 0; it < 11; ++it) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < elems; ++i)
            a[i] = b[i] + s * c[i];
        if (it > 0)
            secs.push_back(secondsSince(start));
    }
    if (a[elems / 2] != 7.0)
        throw std::logic_error("triad probe computed a wrong result");
    const double bytes = 3.0 * static_cast<double>(elems * sizeof(double));
    return {bytes / median(secs) / 1e9, bytes / (1 << 20),
            static_cast<double>(llc) / (1 << 20)};
}

Outcome
endToEnd(const Options &opts, std::size_t n)
{
    JobLog log;
    std::optional<Prepared> prep;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        prep.reset();
        const auto start = Clock::now();
        prep.emplace(setUp(n, opts.seed));
        log.setupSeconds.push_back(secondsSince(start));
    }
    const double pulseTime = prep->program.context.totalPulseTime;
    const double natives =
        static_cast<double>(prep->program.context.nativeGates);

    for (std::size_t i = 0; keepGoing(log, opts.seconds, kPrefixJobs); ++i) {
        const auto start = Clock::now();
        const bool ok = step(prep->plan, prep->amps);
        log.jobSeconds.push_back(secondsSince(start));
        if (!ok || !conserved(prep->amps, n)) {
            ++log.failed;
            log.wrong += ok ? 1 : 0;
        } else {
            log.addFigures(i, kPrefixJobs, pulseTime, natives);
        }
        maybeRestart(prep->amps, i + 1, n, opts.seed);
    }
    std::fprintf(stderr,
                 "trotter_xxz: n=%zu, %zu pulses (%.4f/g), %zu plan ops, "
                 "%zu steps (the p50/p90 sample count), %zu failed\n",
                 n, prep->program.context.pulses.size(), pulseTime,
                 prep->plan.ops().size(), log.jobSeconds.size(), log.failed);
    return {log.wrong == 0, log.jobSeconds.size(), log.failed,
            endToEndMetrics(log)};
}

Outcome
traced(const Options &opts, std::size_t n)
{
    TraceCounts counts;
    {
        const Triad triad = triadProbe();
        counts.triadGbps = triad.gbps;
        counts.triadFootprintMib = triad.footprintMib;
        counts.llcMib = triad.llcMib;
        std::fprintf(stderr,
                     "trotter_xxz: triad %.2f GB/s over %.0f MiB (3 "
                     "arrays; LLC %.0f MiB)\n",
                     triad.gbps, triad.footprintMib, triad.llcMib);
    }

    // Pass 1: tracing off — the overhead baseline and the reference
    // program and final state the traced pass must reproduce.
    JobLog log;
    std::optional<transpile::TranspileResult> reference;
    std::uint64_t referenceHash = 0;
    {
        Prepared prep = setUp(n, opts.seed);
        while (keepGoing(log, opts.seconds / 2, kPrefixJobs)) {
            const auto start = Clock::now();
            step(prep.plan, prep.amps);
            log.jobSeconds.push_back(secondsSince(start));
            maybeRestart(prep.amps, log.jobSeconds.size(), n, opts.seed);
        }
        reference = std::move(prep.program);
        referenceHash = stateHash(prep.amps);
    }

    // Pass 2: the traced replica of set-up and the same steps.
    Tracer tracer;
    std::optional<device::Device> dev;
    std::optional<TracedTranspiler> replica;
    std::optional<transpile::TranspileResult> program;
    std::optional<sim::Plan> plan;
    linalg::CVector amps;
    {
        Span setup(tracer, Layer::Setup);
        dev.emplace(makeDevice(n));
        replica.emplace(*dev, tracer);
        program = replica->run(trotterStep(n));
        {
            Span span(tracer, Layer::Compile);
            plan.emplace(sim::compile(program->circuit));
        }
        Span span(tracer, Layer::StatePrep);
        amps = prepareState(n, opts.seed);
    }
    std::size_t failed = 0;
    std::size_t wrong = sameResult(*program, *reference) ? 0 : 1;
    for (std::size_t i = 0; i < log.jobSeconds.size(); ++i) {
        bool ok = false;
        {
            Span job(tracer, Layer::Job);
            Span span(tracer, Layer::Execute);
            ok = step(*plan, amps);
        }
        if (!ok || !conserved(amps, n)) {
            ++failed;
            wrong += ok ? 1 : 0;
        }
        maybeRestart(amps, i + 1, n, opts.seed);
    }
    if (stateHash(amps) != referenceHash) {
        std::fprintf(stderr, "trotter_xxz: traced state differs from the "
                             "untraced one\n");
        ++wrong;
    }

    const std::size_t steps = log.jobSeconds.size();
    counts.cacheHits = replica->hits();
    counts.cacheMisses = replica->misses();
    counts.cacheEntries = replica->entries();
    counts.routeSwaps = replica->swaps();
    counts.planOps = plan->ops().size();
    counts.registerPasses = registerPasses(*plan);
    counts.bytesMoved = static_cast<double>(steps) *
                        static_cast<double>(counts.registerPasses) * 2.0 *
                        static_cast<double>(amps.size() *
                                            sizeof(linalg::Complex));
    counts.untracedJobSeconds = log.busySeconds();
    std::fprintf(stderr,
                 "trotter_xxz traced: %zu steps, %zu failed, %zu register "
                 "passes per step (bytes moved computed as passes x 2 x "
                 "%zu MiB state)\n",
                 steps, failed, counts.registerPasses,
                 amps.size() * sizeof(linalg::Complex) >> 20);
    return {wrong == 0 && traceSumsToTotal(tracer), steps, failed,
            layerMetrics(tracer, counts)};
}

} // namespace

Outcome
runTrotterXxz(const Options &opts)
{
    const std::size_t n = opts.smoke ? kSmokeWidth : kWidth;
    return opts.trace ? traced(opts, n) : endToEnd(opts, n);
}

} // namespace perfbench
