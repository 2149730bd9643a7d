/**
 * @file
 * Unified benchmark runner: wraps the library's nine benchmark
 * families — kernel microbenchmarks (micro), state-parallel sweep
 * scaling (sweep), SoA trajectory batching (batch), cache-blocked plan
 * execution (blocked), sharded statevector execution (shard),
 * transpiler batch throughput (transpile), the Figure-7 quantum-volume
 * harness (fig7), the tracing-overhead A/B (obs), and the runtime ISA
 * dispatch sweep (dispatch) — behind one dependency-free CLI and emits
 * schema-versioned BENCH_<name>.json reports (see report.hh for the
 * schema). CI runs `bench_runner --smoke` on every Release build and
 * uploads the JSON as an artifact, so the performance trajectory is
 * machine-readable per commit.
 *
 *   bench_runner [micro|sweep|batch|blocked|shard|transpile|fig7|obs
 *                 |dispatch|all ...]
 *                [--scenario FAMILY] [--smoke] [--out-dir DIR]
 *                [--trace PATH] [--list]
 *
 * The micro family times every SIMD kernel against the sim::scalar
 * reference baseline and records speedup_vs_scalar; the sweep family
 * times chunked pool execution of single kernel sweeps against one
 * thread and records speedup_vs_1thread; the batch family times
 * SoA-batched plan execution (SIMD lanes across trajectories) against
 * per-trajectory execution and records speedup_vs_trajparallel; the
 * obs family pins the disabled-tracing overhead of the instrumented
 * kernel paths (serial and batched) against the raw kernel call; the
 * dispatch family forces every compiled+host-supported kernel backend
 * in turn (sim::setDispatchOverride — the same binary carries them
 * all) and records per-backend ns/op plus the <1% dispatch-indirection
 * contract; the runtime-resolved SIMD backend, its lane width, and the
 * full compiled-backend list are stamped into every report.
 *
 * --trace PATH records every selected family under an obs
 * TraceSession, merges the per-span aggregates into each family's
 * BENCH json ("obs" block), and writes one combined Chrome trace-event
 * JSON to PATH (open in chrome://tracing or https://ui.perfetto.dev).
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "../tests/sim_test_util.hh" // shared randomState fixture
#include "circuit/circuit.hh"
#include "device/device.hh"
#include "linalg/random.hh"
#include "obs/obs.hh"
#include "qop/gates.hh"
#include "qv/qv.hh"
#include "report.hh"
#include "sim/batch.hh"
#include "sim/cache.hh"
#include "sim/dispatch.hh"
#include "sim/engine.hh"
#include "sim/kernels.hh"
#include "sim/shard.hh"
#include "sim/transport.hh"
#include "transpile/transpile.hh"

using namespace crisc;
using linalg::Complex;
using linalg::CVector;
using linalg::Matrix;
using testutil::randomState;

namespace {

struct Options
{
    bool micro = true;
    bool sweep = true;
    bool batch = true;
    bool blocked = true;
    bool shard = true;
    bool transpile = true;
    bool fig7 = true;
    bool obs = true;
    bool dispatch = true;
    bool smoke = false;
    std::string outDir = ".";
    std::string trace; ///< Chrome-trace output path; empty = no tracing.
};

/** Wall-clock seconds of fn(), best of @p rounds runs. */
template <typename Fn>
double
bestSeconds(int rounds, Fn &&fn)
{
    double best = 1e300;
    for (int r = 0; r < rounds; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

bench::Report
reportSkeleton(const std::string &name, bool smoke)
{
    bench::Report rep;
    rep.name = name;
    rep.gitSha = bench::reportGitSha();
    rep.gitDirty = bench::reportGitDirty();
    rep.simdBackend = sim::simdBackendName();
    for (const sim::Backend b : sim::compiledBackends())
        rep.simdCompiled.push_back(sim::backendName(b));
    rep.simdLanes = sim::simdLanes();
    rep.threads = std::max(1u, std::thread::hardware_concurrency());
    rep.smoke = smoke;
    rep.obsBackend = obs::backendName();
    rep.obsEnabled = obs::enabled();
    return rep;
}

/**
 * Times one kernel pair (scalar baseline vs. dispatching kernel) over
 * a whole-register qubit rotation and appends a scenario with ns/op
 * and speedup_vs_scalar. @p ops is the number of kernel applications
 * per timed round.
 */
template <typename ScalarFn, typename SimdFn>
void
addKernelScenario(bench::Report &rep, const std::string &name,
                  std::size_t n, std::size_t ops, ScalarFn &&scalarFn,
                  SimdFn &&simdFn)
{
    const double tScalar = bestSeconds(3, scalarFn);
    const double tSimd = bestSeconds(3, simdFn);
    const double nsScalar = 1e9 * tScalar / static_cast<double>(ops);
    const double nsSimd = 1e9 * tSimd / static_cast<double>(ops);
    const double speedup = nsSimd > 0.0 ? nsScalar / nsSimd : 0.0;
    bench::Scenario sc;
    sc.name = name + "/n=" + std::to_string(n);
    sc.params = {{"qubits", static_cast<double>(n)}};
    sc.metrics = {{"scalar_ns_per_op", nsScalar, "ns"},
                  {"simd_ns_per_op", nsSimd, "ns"},
                  {"speedup_vs_scalar", speedup, "x"}};
    std::printf("  %-22s scalar %10.1f ns/op   simd %10.1f ns/op   "
                "speedup %.2fx\n",
                sc.name.c_str(), nsScalar, nsSimd, speedup);
    rep.scenarios.push_back(std::move(sc));
}

bench::Report
runMicro(const Options &opt)
{
    std::printf("== micro (kernel SIMD backend: %s, %zu lanes) ==\n",
                sim::simdBackendName(), sim::simdLanes());
    bench::Report rep = reportSkeleton("micro", opt.smoke);

    const std::vector<std::size_t> widths =
        opt.smoke ? std::vector<std::size_t>{12, 20}
                  : std::vector<std::size_t>{12, 16, 20};
    linalg::Rng rng(7);
    const Matrix u2 = linalg::haarUnitary(rng, 2);
    const Complex m2[4] = {u2(0, 0), u2(0, 1), u2(1, 0), u2(1, 1)};
    const Matrix u4 = linalg::haarUnitary(rng, 4);
    const Matrix rz = qop::rz(0.5371);

    for (const std::size_t n : widths) {
        CVector amps = randomState(rng, n);
        // Each timed round sweeps every qubit (or qubit pair) once, so
        // the ns/op figure averages all strides, including the scalar
        // fallback's short-stride tail.
        addKernelScenario(
            rep, "apply1q", n, n,
            [&] {
                for (std::size_t q = 0; q < n; ++q)
                    sim::scalar::apply1q(amps.data(), n, q, m2);
            },
            [&] {
                for (std::size_t q = 0; q < n; ++q)
                    sim::apply1q(amps.data(), n, q, m2);
            });
        addKernelScenario(
            rep, "apply1qDiag", n, n,
            [&] {
                for (std::size_t q = 0; q < n; ++q)
                    sim::scalar::apply1qDiag(amps.data(), n, q, rz(0, 0),
                                             rz(1, 1));
            },
            [&] {
                for (std::size_t q = 0; q < n; ++q)
                    sim::apply1qDiag(amps.data(), n, q, rz(0, 0), rz(1, 1));
            });
        addKernelScenario(
            rep, "applyPauliY", n, n,
            [&] {
                for (std::size_t q = 0; q < n; ++q)
                    sim::scalar::applyPauli(amps.data(), n, q, 2);
            },
            [&] {
                for (std::size_t q = 0; q < n; ++q)
                    sim::applyPauli(amps.data(), n, q, 2);
            });
        addKernelScenario(
            rep, "apply2q", n, n - 1,
            [&] {
                for (std::size_t q = 0; q + 1 < n; ++q)
                    sim::scalar::apply2q(amps.data(), n, q, q + 1,
                                         u4.data());
            },
            [&] {
                for (std::size_t q = 0; q + 1 < n; ++q)
                    sim::apply2q(amps.data(), n, q, q + 1, u4.data());
            });
    }

    // Plan-compiler quad fusion: a 1q-dressed entangler layer circuit,
    // fused (2q x (1q (x) 1q) kernels) vs. unfused plans.
    {
        const std::size_t n = opt.smoke ? 12 : 16;
        const std::size_t layers = 6;
        circuit::Circuit c(n);
        linalg::Rng crng(11);
        for (std::size_t l = 0; l < layers; ++l) {
            for (std::size_t q = 0; q < n; ++q)
                c.add(linalg::haarUnitary(crng, 2), {q});
            for (std::size_t q = 1 - (l % 2); q + 1 < n; q += 2)
                c.add(linalg::haarUnitary(crng, 4), {q, q + 1});
        }
        const sim::Plan fused = sim::compile(
            c, {.fuseSingleQubit = true, .fuseTwoQubit = true});
        const sim::Plan unfused = sim::compile(
            c, {.fuseSingleQubit = true, .fuseTwoQubit = false});
        CVector amps(std::size_t{1} << n);
        const auto runPlan = [&](const sim::Plan &p) {
            std::fill(amps.begin(), amps.end(), Complex{0.0, 0.0});
            amps[0] = 1.0;
            sim::execute(p, amps.data());
        };
        const double tF = bestSeconds(3, [&] { runPlan(fused); });
        const double tU = bestSeconds(3, [&] { runPlan(unfused); });
        const double perGateF = 1e9 * tF / static_cast<double>(c.size());
        const double perGateU = 1e9 * tU / static_cast<double>(c.size());
        bench::Scenario sc;
        sc.name = "engine_fuse2q/n=" + std::to_string(n);
        sc.params = {{"qubits", static_cast<double>(n)},
                     {"source_gates", static_cast<double>(c.size())},
                     {"fused_ops", static_cast<double>(fused.ops().size())},
                     {"unfused_ops",
                      static_cast<double>(unfused.ops().size())}};
        sc.metrics = {
            {"fused_ns_per_gate", perGateF, "ns"},
            {"unfused_ns_per_gate", perGateU, "ns"},
            {"speedup_vs_unfused", perGateF > 0.0 ? perGateU / perGateF
                                                  : 0.0,
             "x"}};
        std::printf("  %-22s unfused %8.1f ns/gate   fused %8.1f ns/gate "
                    "  speedup %.2fx (%zu -> %zu ops)\n",
                    sc.name.c_str(), perGateU, perGateF,
                    perGateF > 0.0 ? perGateU / perGateF : 0.0,
                    unfused.ops().size(), fused.ops().size());
        rep.scenarios.push_back(std::move(sc));
    }

    return rep;
}

/**
 * State-parallel sweep scaling (BENCH_sweep_scaling.json): chunked
 * pool execution of one kernel sweep (engine.hh ExecOptions) against
 * the same sweep on one thread. Smoke shrinks the register; the
 * speedup_vs_1thread metric at apply2q/threads=4 is the contract
 * consumers track (>= 2x expected on >= 4-core hardware; results are
 * bit-identical at every point, pinned by test_simd).
 */
bench::Report
runSweep(const Options &opt)
{
    std::printf("== sweep_scaling (state-parallel kernel sweeps, "
                "backend %s) ==\n",
                sim::simdBackendName());
    bench::Report rep = reportSkeleton("sweep_scaling", opt.smoke);

    const std::size_t n = opt.smoke ? 18 : 22;
    const std::vector<std::size_t> threadCounts{1, 2, 4};
    const int sweepsPerRound = opt.smoke ? 8 : 2;

    linalg::Rng rng(17);
    CVector amps = randomState(rng, n);

    sim::KernelOp op1q;
    op1q.kind = sim::KernelKind::OneQ;
    op1q.q0 = n / 2;
    {
        const Matrix u = linalg::haarUnitary(rng, 2);
        for (std::size_t i = 0; i < 4; ++i)
            op1q.m[i] = u(i / 2, i % 2);
    }
    sim::KernelOp op2q;
    op2q.kind = sim::KernelKind::TwoQ;
    op2q.q0 = n / 3;
    op2q.q1 = (2 * n) / 3;
    {
        const Matrix u = linalg::haarUnitary(rng, 4);
        for (std::size_t i = 0; i < 16; ++i)
            op2q.m[i] = u(i / 4, i % 4);
    }

    struct Case
    {
        const char *name;
        const sim::KernelOp *op;
    };
    for (const Case &c : {Case{"apply1q", &op1q}, Case{"apply2q", &op2q}}) {
        double ns1 = 0.0;
        for (const std::size_t threads : threadCounts) {
            sim::ThreadPool pool(threads);
            sim::ExecOptions exec;
            exec.pool = &pool;
            exec.threads = threads;
            const double t = bestSeconds(3, [&] {
                for (int s = 0; s < sweepsPerRound; ++s)
                    sim::executeOp(*c.op, amps.data(), n, exec);
            });
            const double ns =
                1e9 * t / static_cast<double>(sweepsPerRound);
            if (threads == 1)
                ns1 = ns;
            const double speedup = ns > 0.0 ? ns1 / ns : 0.0;
            bench::Scenario sc;
            sc.name = std::string(c.name) + "/n=" + std::to_string(n) +
                      "/threads=" + std::to_string(threads);
            sc.params = {{"qubits", static_cast<double>(n)},
                         {"threads", static_cast<double>(threads)}};
            sc.metrics = {{"ns_per_sweep", ns, "ns"},
                          {"speedup_vs_1thread", speedup, "x"}};
            std::printf("  %-26s %12.1f ns/sweep   speedup %.2fx\n",
                        sc.name.c_str(), ns, speedup);
            rep.scenarios.push_back(std::move(sc));
        }
    }

    return rep;
}

/**
 * SoA-batched trajectory execution (BENCH_batch_soa.json): one compiled
 * plan applied to T statevectors either one at a time (the per-slot
 * work of the trajectory-parallel arm, with per-state SIMD) or in SoA
 * batches of B lanes via sim::executeBatched (SIMD lanes across
 * trajectories). speedup_vs_trajparallel at width <= 14 with
 * B = simdLanes() is the contract consumers track (>= 1.5x expected on
 * AVX2: short-stride sweeps starve per-state vectors, the lane-major
 * SoA layout never does). Results are bit-identical on every path,
 * pinned by test_batch.
 */
bench::Report
runBatch(const Options &opt)
{
    std::printf("== batch_soa (SoA trajectory batching, backend %s, "
                "%zu lanes) ==\n",
                sim::simdBackendName(), sim::simdLanes());
    bench::Report rep = reportSkeleton("batch_soa", opt.smoke);

    const std::vector<std::size_t> widths =
        opt.smoke ? std::vector<std::size_t>{10, 14}
                  : std::vector<std::size_t>{8, 10, 12, 14, 18, 22};
    const std::vector<std::size_t> batches =
        opt.smoke ? std::vector<std::size_t>{1, 4, 8}
                  : std::vector<std::size_t>{1, 4, 8, 16};
    const int rounds = opt.smoke ? 2 : 3;
    // Skip configs whose SoA arrays would exceed 2^25 amplitude-lanes
    // (0.5 GiB of split doubles) — the wide end only needs small B to
    // make its point anyway.
    const std::size_t maxAmpLanes = std::size_t{1} << 25;

    linalg::Rng rng(29);
    for (const std::size_t n : widths) {
        // QV-like plan: two layers of Haar SU(4) blocks on adjacent
        // pairs, covering every stride down to the shortest (where the
        // per-state path falls back to scalar kernels).
        circuit::Circuit c(n);
        for (std::size_t layer = 0; layer < 2; ++layer)
            for (std::size_t q = layer % 2; q + 1 < n; q += 2)
                c.add(linalg::haarSU(rng, 4), {q, q + 1});
        const sim::Plan plan = sim::compile(c);
        const std::size_t dim = std::size_t{1} << n;
        const std::size_t T = n <= 14 ? 16 : 8;

        volatile double sink = 0.0;
        const double tSerial = bestSeconds(rounds, [&] {
            for (std::size_t t = 0; t < T; ++t) {
                CVector amps(dim, Complex{0.0, 0.0});
                amps[0] = 1.0;
                sim::execute(plan, amps.data());
                sink = sink + amps[dim - 1].real();
            }
        });
        const double nsSerial = 1e9 * tSerial / static_cast<double>(T);

        for (const std::size_t B : batches) {
            if (dim * B > maxAmpLanes)
                continue;
            const double tBatch = bestSeconds(rounds, [&] {
                for (std::size_t first = 0; first < T; first += B) {
                    const std::size_t lanes = std::min(B, T - first);
                    sim::BatchState batch(n, lanes);
                    sim::executeBatched(plan, batch);
                    sink = sink + batch.amp(dim - 1, 0).real();
                }
            });
            const double nsBatch =
                1e9 * tBatch / static_cast<double>(T);
            const double speedup =
                nsBatch > 0.0 ? nsSerial / nsBatch : 0.0;
            bench::Scenario sc;
            sc.name = "batch/n=" + std::to_string(n) +
                      "/B=" + std::to_string(B);
            sc.params = {{"qubits", static_cast<double>(n)},
                         {"batch", static_cast<double>(B)},
                         {"trajectories", static_cast<double>(T)}};
            sc.metrics = {
                {"ns_per_trajectory", nsBatch, "ns"},
                {"baseline_ns_per_trajectory", nsSerial, "ns"},
                {"speedup_vs_trajparallel", speedup, "x"}};
            std::printf("  %-18s %12.1f ns/traj   per-state %12.1f "
                        "ns/traj   speedup %.2fx\n",
                        sc.name.c_str(), nsBatch, nsSerial, speedup);
            rep.scenarios.push_back(std::move(sc));
        }
    }

    return rep;
}

/**
 * Cache-blocked plan execution (BENCH_blocked_sweep.json): a plan of
 * two brick layers of Haar SU(4) quads on the highest-index (shortest-
 * stride) qubits — every op blockable at the auto exponent — executed
 * unblocked (one full-register DRAM stream per op) vs. blocked
 * (sim::executeBlocked: all ops applied to one L2-resident 2^b block
 * before the next). speedup_vs_unblocked at n >= 26 is the contract
 * consumers track (>= 1.3x expected once the statevector falls out of
 * the LLC); results are bitwise-pinned by test_blocked. Smoke runs one
 * in-cache width (n=20) to exercise the path cheaply; the full run
 * sweeps n = 24, 26, 28 (0.25, 1, 4 GiB statevectors).
 */
bench::Report
runBlocked(const Options &opt)
{
    std::printf("== blocked_sweep (cache-blocked plan execution, "
                "block bytes %zu) ==\n",
                sim::cacheBlockBytes());
    bench::Report rep = reportSkeleton("blocked_sweep", opt.smoke);

    const std::vector<std::size_t> widths =
        opt.smoke ? std::vector<std::size_t>{20}
                  : std::vector<std::size_t>{24, 26, 28};
    const int rounds = opt.smoke ? 3 : 2;

    linalg::Rng rng(41);
    for (const std::size_t n : widths) {
        // Two alternating brick layers of SU(4) quads on the eight
        // highest-index qubits: min target qubit n - 8, so every op is
        // blockable at any exponent >= 8, and each sweep streams the
        // whole register (the blocking win is pure memory locality).
        circuit::Circuit c(n);
        for (std::size_t layer = 0; layer < 2; ++layer)
            for (std::size_t q = n - 8 + layer; q + 1 < n; q += 2)
                c.add(linalg::haarSU(rng, 4), {q, q + 1});
        const sim::Plan plan = sim::compile(c);
        const std::size_t b = sim::autoBlockQubits(n);
        const std::size_t blocks = plan.dim() >> b;
        const double ops = static_cast<double>(plan.ops().size());

        CVector amps(plan.dim(), Complex{0.0, 0.0});
        amps[0] = 1.0;
        volatile double sink = 0.0;

        const double tUnblocked = bestSeconds(rounds, [&] {
            sim::execute(plan, amps.data());
            sink = sink + amps[0].real();
        });
        const double tBlocked = bestSeconds(rounds, [&] {
            sim::executeBlocked(plan, amps.data(), b, {});
            sink = sink + amps[0].real();
        });

        const double nsUnblocked = 1e9 * tUnblocked / ops;
        const double nsBlocked = 1e9 * tBlocked / ops;
        const double speedup =
            nsBlocked > 0.0 ? nsUnblocked / nsBlocked : 0.0;
        bench::Scenario sc;
        sc.name = "brick8/n=" + std::to_string(n) +
                  "/b=" + std::to_string(b);
        sc.params = {{"qubits", static_cast<double>(n)},
                     {"block_qubits", static_cast<double>(b)},
                     {"blocks", static_cast<double>(blocks)},
                     {"ops", ops}};
        sc.metrics = {{"ns_per_sweep", nsBlocked, "ns"},
                      {"unblocked_ns_per_sweep", nsUnblocked, "ns"},
                      {"speedup_vs_unblocked", speedup, "x"}};
        std::printf("  %-20s unblocked %12.1f ns/sweep   blocked "
                    "%12.1f ns/sweep   speedup %.2fx\n",
                    sc.name.c_str(), nsUnblocked, nsBlocked, speedup);
        rep.scenarios.push_back(std::move(sc));
    }

    return rep;
}

/**
 * Sharded statevector execution (BENCH_shard_scaling.json): a plan of
 * six brick layers of Haar SU(4) quads on the eight lowest-index
 * (longest-stride) qubits, executed sharded at S = 1, 2, 4 shards
 * (sim/shard.hh) against unsharded serial execution. Every layer
 * targets the shard bits, so the schedule is crossing-dominated — the
 * worst case for sharding and the sharpest light on the lowering
 * policy: the Auto lowering remaps the reused shard qubits local once
 * (half-slice permutations) where NaiveExchange pays a full-slice
 * exchange per crossing gate, so crossings and transported bytes both
 * drop (pinned exactly by test_shard). exchange_bytes_per_crossing is
 * the contract consumers track: <= 2 * 2^(n-s) * 16 bytes per shard
 * pair per crossing two-qubit gate (the exchange bound; remaps land at
 * half of it). speedup_vs_unsharded documents the in-process cost of
 * the shard seam — the point of sharding is address-space scaling, not
 * single-box speed. Results are bitwise-pinned by test_shard.
 */
bench::Report
runShard(const Options &opt)
{
    std::printf("== shard_scaling (sharded statevector execution, "
                "backend %s) ==\n",
                sim::simdBackendName());
    bench::Report rep = reportSkeleton("shard_scaling", opt.smoke);

    const std::vector<std::size_t> widths =
        opt.smoke ? std::vector<std::size_t>{20}
                  : std::vector<std::size_t>{24, 26, 28};
    const int rounds = opt.smoke ? 3 : 2;

    linalg::Rng rng(59);
    for (const std::size_t n : widths) {
        circuit::Circuit c(n);
        for (std::size_t layer = 0; layer < 6; ++layer)
            for (std::size_t q = layer % 2; q + 1 < 8; q += 2)
                c.add(linalg::haarSU(rng, 4), {q, q + 1});
        const sim::Plan plan = sim::compile(c);
        const double ops = static_cast<double>(plan.ops().size());

        CVector amps(plan.dim(), Complex{0.0, 0.0});
        amps[0] = 1.0;
        volatile double sink = 0.0;

        const double tUnsharded = bestSeconds(rounds, [&] {
            sim::execute(plan, amps.data());
            sink = sink + amps[0].real();
        });
        const double nsUnsharded = 1e9 * tUnsharded / ops;

        for (const std::size_t s : {0, 1, 2}) {
            const sim::ShardPlan sharded = sim::compileSharded(plan, s);
            const sim::ShardPlan naive = sim::compileSharded(
                plan, s, {.lowering = sim::ShardLowering::NaiveExchange});
            const double S = static_cast<double>(sharded.shardCount());
            const double crossings =
                static_cast<double>(sharded.stats().exchangeOps +
                                    sharded.stats().remapOps);
            const double naiveCrossings =
                static_cast<double>(naive.stats().exchangeOps +
                                    naive.stats().remapOps);

            const double t = bestSeconds(rounds, [&] {
                sim::executeSharded(sharded, amps.data());
                sink = sink + amps[0].real();
            });
            const double ns = 1e9 * t / ops;
            const double speedup = ns > 0.0 ? nsUnsharded / ns : 0.0;

            // One metered run pins the payload actually moved (equal
            // to plannedTransportBytes — asserted by test_shard).
            sim::InProcessTransport transport;
            sim::executeSharded(sharded, amps.data(), {}, &transport);
            const double bytes =
                static_cast<double>(transport.bytesMoved());
            // Per crossing gate per shard pair: a full exchange moves
            // S * slice * 16 bytes, i.e. 2 * 2^(n-s) * 16 per pair.
            const double bytesPerCrossing =
                crossings > 0.0 ? 2.0 * bytes / (S * crossings) : 0.0;
            const double naiveBytes =
                static_cast<double>(naive.plannedTransportBytes());

            bench::Scenario sc;
            sc.name = "brick8/n=" + std::to_string(n) +
                      "/S=" + std::to_string(sharded.shardCount());
            sc.params = {{"qubits", static_cast<double>(n)},
                         {"shards", S},
                         {"shard_bits", static_cast<double>(s)},
                         {"ops", ops},
                         {"remaps",
                          static_cast<double>(sharded.stats().remapOps)},
                         {"exchanges",
                          static_cast<double>(
                              sharded.stats().exchangeOps)},
                         {"naive_crossings", naiveCrossings}};
            sc.metrics = {
                {"ns_per_sweep", ns, "ns"},
                {"unsharded_ns_per_sweep", nsUnsharded, "ns"},
                {"speedup_vs_unsharded", speedup, "x"},
                {"exchange_bytes", bytes, "B"},
                {"exchange_bytes_per_crossing", bytesPerCrossing, "B"},
                {"naive_exchange_bytes", naiveBytes, "B"}};
            std::printf("  %-18s %12.1f ns/sweep   speedup %.2fx   "
                        "%10.0f B moved (naive %10.0f B, crossings "
                        "%.0f vs %.0f)\n",
                        sc.name.c_str(), ns, speedup, bytes, naiveBytes,
                        crossings, naiveCrossings);
            rep.scenarios.push_back(std::move(sc));
        }
    }

    return rep;
}

bench::Report
runTranspile(const Options &opt)
{
    std::printf("== transpile ==\n");
    bench::Report rep = reportSkeleton("transpile", opt.smoke);

    linalg::Rng rng(3);
    const std::size_t batch = opt.smoke ? 12 : 32;
    std::vector<circuit::Circuit> circuits;
    for (std::size_t i = 0; i < batch; ++i) {
        circuit::Circuit c(4);
        for (int g = 0; g < 12; ++g) {
            const std::size_t a = rng.index(4);
            std::size_t b = rng.index(3);
            if (b >= a)
                ++b;
            c.add(linalg::haarUnitary(rng, 4), {a, b});
        }
        circuits.push_back(std::move(c));
    }
    transpile::TranspileOptions topts;
    topts.h = 0.1;

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<int> threadCounts{1, 2};
    if (!opt.smoke && hw > 2)
        threadCounts.push_back(static_cast<int>(hw));
    for (const int threads : threadCounts) {
        const double t = bestSeconds(opt.smoke ? 2 : 3, [&] {
            transpile::transpileBatch(circuits, topts, threads);
        });
        const double cps = static_cast<double>(batch) / t;
        bench::Scenario sc;
        sc.name = "transpileBatch/threads=" + std::to_string(threads);
        sc.params = {{"threads", static_cast<double>(threads)},
                     {"circuits", static_cast<double>(batch)}};
        sc.metrics = {{"circuits_per_second", cps, "ops/s"},
                      {"wall_seconds", t, "s"}};
        std::printf("  %-28s %10.1f circuits/s\n", sc.name.c_str(), cps);
        rep.scenarios.push_back(std::move(sc));
    }

    return rep;
}

bench::Report
runFig7(const Options &opt)
{
    std::printf("== fig7 (quantum volume heavy output) ==\n");
    bench::Report rep = reportSkeleton("fig7", opt.smoke);

    struct Variant
    {
        const char *name;
        device::NativeKind native;
        double cutoff;
    };
    const std::vector<Variant> variants =
        opt.smoke ? std::vector<Variant>{{"AshN r=0",
                                          device::NativeKind::AshN, 0.0}}
                  : std::vector<Variant>{
                        {"AshN r=0", device::NativeKind::AshN, 0.0},
                        {"SQiSW", device::NativeKind::SQiSW, 0.0},
                        {"CZ", device::NativeKind::CZ, 0.0}};
    const std::vector<std::size_t> widths =
        opt.smoke ? std::vector<std::size_t>{3, 5}
                  : std::vector<std::size_t>{3, 4, 5, 6};
    const int circuits = opt.smoke ? 4 : 24;
    const int trajectories = opt.smoke ? 4 : 12;

    for (const Variant &v : variants) {
        for (const std::size_t d : widths) {
            const device::Device dev = device::Device::grid2d(
                v.native, d,
                {.twoQubitError = 0.012, .singleQubitError = 0.001,
                 .h = 0.0, .r = v.cutoff});
            qv::QvConfig cfg;
            cfg.width = d;
            cfg.device = &dev;
            cfg.circuits = circuits;
            cfg.trajectories = trajectories;
            cfg.seed = 1000 + d;
            const qv::QvResult r = qv::heavyOutputExperiment(cfg);
            const double totalTraj =
                static_cast<double>(circuits) * trajectories;
            bench::Scenario sc;
            sc.name = std::string(v.name) + "/d=" + std::to_string(d);
            sc.params = {{"width", static_cast<double>(d)},
                         {"circuits", static_cast<double>(circuits)},
                         {"trajectories", static_cast<double>(trajectories)}};
            sc.metrics = {
                {"heavy_output_proportion", r.heavyOutputProportion, ""},
                {"avg_native_gates", r.avgNativeGatesPerCircuit, "gates"},
                {"wall_seconds", r.wallSeconds, "s"},
                {"trajectories_per_second",
                 r.wallSeconds > 0.0 ? totalTraj / r.wallSeconds : 0.0,
                 "ops/s"}};
            std::printf("  %-18s hop %.3f   %8.1f traj/s\n",
                        sc.name.c_str(), r.heavyOutputProportion,
                        r.wallSeconds > 0.0 ? totalTraj / r.wallSeconds
                                            : 0.0);
            rep.scenarios.push_back(std::move(sc));
        }
    }

    return rep;
}

/**
 * Tracing-overhead A/B (BENCH_obs_overhead.json): one full-register
 * apply2q sweep timed three ways — the raw kernel call (baseline), the
 * instrumented sim::executeOp path with tracing disabled, and the same
 * path with tracing enabled. The disabled_overhead_pct metric is the
 * zero-cost-when-off contract: the instrumented path must stay within
 * 1% of the raw kernel when the flag is off (span + counter sites cost
 * one relaxed load and a branch per sweep, amortized over 2^n
 * amplitudes). enabled_overhead_pct documents the cost of actually
 * recording.
 */
bench::Report
runObsOverhead(const Options &opt)
{
    std::printf("== obs_overhead (tracing A/B, obs backend: %s) ==\n",
                obs::backendName());
    bench::Report rep = reportSkeleton("obs_overhead", opt.smoke);

    const std::size_t n = opt.smoke ? 16 : 20;
    const int sweepsPerRound = opt.smoke ? 8 : 4;
    const int rounds = 5;

    linalg::Rng rng(23);
    CVector amps = randomState(rng, n);
    sim::KernelOp op;
    op.kind = sim::KernelKind::TwoQ;
    op.q0 = n / 3;
    op.q1 = (2 * n) / 3;
    const Matrix u = linalg::haarUnitary(rng, 4);
    for (std::size_t i = 0; i < 16; ++i)
        op.m[i] = u(i / 4, i % 4);

    // Serial ExecOptions so the A/B isolates instrumentation overhead,
    // not pool dispatch.
    const sim::ExecOptions exec;

    const double tBase = bestSeconds(rounds, [&] {
        for (int s = 0; s < sweepsPerRound; ++s)
            sim::apply2q(amps.data(), n, op.q0, op.q1, op.m.data());
    });

    // The runner may be inside a --trace session; restore its flag after
    // forcing each leg's state.
    const bool outerEnabled = obs::enabled();
    obs::setEnabled(false);
    const double tDisabled = bestSeconds(rounds, [&] {
        for (int s = 0; s < sweepsPerRound; ++s)
            sim::executeOp(op, amps.data(), n, exec);
    });

    double tEnabled = 0.0;
    if (obs::compiledIn()) {
        // Record for real: reuse the active --trace session if there is
        // one, else run a throwaway local session.
        obs::TraceSession local;
        if (outerEnabled)
            obs::setEnabled(true);
        else
            local.start();
        tEnabled = bestSeconds(rounds, [&] {
            for (int s = 0; s < sweepsPerRound; ++s)
                sim::executeOp(op, amps.data(), n, exec);
        });
        if (!outerEnabled)
            local.stop();
    }
    obs::setEnabled(outerEnabled);

    const double perSweep = 1.0 / static_cast<double>(sweepsPerRound);
    const double nsBase = 1e9 * tBase * perSweep;
    const double nsDisabled = 1e9 * tDisabled * perSweep;
    const double nsEnabled = 1e9 * tEnabled * perSweep;
    const double disabledPct =
        nsBase > 0.0 ? 100.0 * (nsDisabled - nsBase) / nsBase : 0.0;
    const double enabledPct =
        nsBase > 0.0 && obs::compiledIn()
            ? 100.0 * (nsEnabled - nsBase) / nsBase
            : 0.0;

    bench::Scenario sc;
    sc.name = "apply2q_sweep/n=" + std::to_string(n);
    sc.params = {{"qubits", static_cast<double>(n)},
                 {"sweeps_per_round", static_cast<double>(sweepsPerRound)}};
    sc.metrics = {{"baseline_ns_per_sweep", nsBase, "ns"},
                  {"disabled_ns_per_sweep", nsDisabled, "ns"},
                  {"enabled_ns_per_sweep", nsEnabled, "ns"},
                  {"disabled_overhead_pct", disabledPct, "%"},
                  {"enabled_overhead_pct", enabledPct, "%"}};
    std::printf("  %-22s base %10.1f ns   off %10.1f ns (%+.2f%%)   "
                "on %10.1f ns (%+.2f%%)\n",
                sc.name.c_str(), nsBase, nsDisabled, disabledPct, nsEnabled,
                enabledPct);
    rep.scenarios.push_back(std::move(sc));

    // Batched-sweep leg: the same zero-cost-when-off contract for the
    // SoA execution path (sim::executeOpBatched vs. the raw batched
    // kernel), at a smaller width times the batch so the work per
    // sweep is comparable.
    {
        const std::size_t nb = opt.smoke ? 12 : 16;
        const std::size_t B = 8;
        sim::BatchState batch(nb, B);
        sim::KernelOp opb;
        opb.kind = sim::KernelKind::TwoQ;
        opb.q0 = nb / 3;
        opb.q1 = (2 * nb) / 3;
        const Matrix ub = linalg::haarUnitary(rng, 4);
        for (std::size_t i = 0; i < 16; ++i)
            opb.m[i] = ub(i / 4, i % 4);

        const double tBaseB = bestSeconds(rounds, [&] {
            for (int s = 0; s < sweepsPerRound; ++s)
                sim::apply2qBatch(batch.re(), batch.im(), nb, B, opb.q0,
                                  opb.q1, opb.m.data());
        });
        obs::setEnabled(false);
        const double tDisabledB = bestSeconds(rounds, [&] {
            for (int s = 0; s < sweepsPerRound; ++s)
                sim::executeOpBatched(opb, batch, exec);
        });
        double tEnabledB = 0.0;
        if (obs::compiledIn()) {
            obs::TraceSession local;
            if (outerEnabled)
                obs::setEnabled(true);
            else
                local.start();
            tEnabledB = bestSeconds(rounds, [&] {
                for (int s = 0; s < sweepsPerRound; ++s)
                    sim::executeOpBatched(opb, batch, exec);
            });
            if (!outerEnabled)
                local.stop();
        }
        obs::setEnabled(outerEnabled);

        const double nsBaseB = 1e9 * tBaseB * perSweep;
        const double nsDisabledB = 1e9 * tDisabledB * perSweep;
        const double nsEnabledB = 1e9 * tEnabledB * perSweep;
        const double disabledPctB =
            nsBaseB > 0.0 ? 100.0 * (nsDisabledB - nsBaseB) / nsBaseB
                          : 0.0;
        const double enabledPctB =
            nsBaseB > 0.0 && obs::compiledIn()
                ? 100.0 * (nsEnabledB - nsBaseB) / nsBaseB
                : 0.0;

        bench::Scenario scb;
        scb.name = "apply2qBatch_sweep/n=" + std::to_string(nb) +
                   "/B=" + std::to_string(B);
        scb.params = {
            {"qubits", static_cast<double>(nb)},
            {"batch", static_cast<double>(B)},
            {"sweeps_per_round", static_cast<double>(sweepsPerRound)}};
        scb.metrics = {{"baseline_ns_per_sweep", nsBaseB, "ns"},
                       {"disabled_ns_per_sweep", nsDisabledB, "ns"},
                       {"enabled_ns_per_sweep", nsEnabledB, "ns"},
                       {"disabled_overhead_pct", disabledPctB, "%"},
                       {"enabled_overhead_pct", enabledPctB, "%"}};
        std::printf("  %-22s base %10.1f ns   off %10.1f ns (%+.2f%%)   "
                    "on %10.1f ns (%+.2f%%)\n",
                    scb.name.c_str(), nsBaseB, nsDisabledB, disabledPctB,
                    nsEnabledB, enabledPctB);
        rep.scenarios.push_back(std::move(scb));
    }

    return rep;
}

/**
 * Runtime ISA dispatch sweep (BENCH_dispatch_backends.json): one binary
 * carries every kernel backend the compiler could build, so this family
 * forces each compiled+host-supported backend in turn
 * (sim::setDispatchOverride — the in-process twin of
 * CRISC_SIMD_DISPATCH) and times the same full-register apply1q /
 * apply2q sweeps the micro family uses, recording per-backend ns/op and
 * speedup_vs_scalar. The closing scenario pins the cost of runtime
 * dispatch itself: an apply2q sweep through the public wrapper (one
 * activeKernels() fetch + indirect call per sweep) vs. the same
 * apply2qRange sweep over all quads through a hoisted table pointer. dispatch_overhead_pct is the
 * contract consumers track — < 1%, like the obs family's
 * zero-cost-when-off bound (the fetch amortizes over 2^n amplitudes).
 */
bench::Report
runDispatch(const Options &opt)
{
    std::printf("== dispatch_backends (runtime ISA dispatch, resolved "
                "%s) ==\n",
                sim::backendName());
    bench::Report rep = reportSkeleton("dispatch_backends", opt.smoke);

    // Scalar leads so every later backend has its baseline; the rest
    // follow in probe order.
    std::vector<sim::Backend> selectable{sim::Backend::Scalar};
    for (const sim::Backend b : sim::compiledBackends())
        if (b != sim::Backend::Scalar && sim::hostSupports(b))
            selectable.push_back(b);

    const std::vector<std::size_t> widths =
        opt.smoke ? std::vector<std::size_t>{12, 20}
                  : std::vector<std::size_t>{12, 16, 20};
    linalg::Rng rng(53);
    const Matrix u2 = linalg::haarUnitary(rng, 2);
    const Complex m2[4] = {u2(0, 0), u2(0, 1), u2(1, 0), u2(1, 1)};
    const Matrix u4 = linalg::haarUnitary(rng, 4);

    for (const std::size_t n : widths) {
        CVector amps = randomState(rng, n);
        struct Sweep
        {
            const char *name;
            std::size_t ops;
        };
        for (const Sweep &sw : {Sweep{"apply1q", n}, Sweep{"apply2q",
                                                           n - 1}}) {
            const bool oneQ = std::strcmp(sw.name, "apply1q") == 0;
            double nsScalar = 0.0;
            for (const sim::Backend b : selectable) {
                sim::setDispatchOverride(sim::backendName(b));
                const double t = bestSeconds(3, [&] {
                    if (oneQ)
                        for (std::size_t q = 0; q < n; ++q)
                            sim::apply1q(amps.data(), n, q, m2);
                    else
                        for (std::size_t q = 0; q + 1 < n; ++q)
                            sim::apply2q(amps.data(), n, q, q + 1,
                                         u4.data());
                });
                const double ns = 1e9 * t / static_cast<double>(sw.ops);
                if (b == sim::Backend::Scalar)
                    nsScalar = ns;
                const double speedup = ns > 0.0 ? nsScalar / ns : 0.0;
                bench::Scenario sc;
                sc.name = std::string(sw.name) + "/n=" +
                          std::to_string(n) + "/backend=" +
                          sim::backendName(b);
                sc.params = {{"qubits", static_cast<double>(n)},
                             {"lanes", static_cast<double>(
                                           sim::kernelTable(b).lanes)}};
                sc.metrics = {{"ns_per_op", ns, "ns"},
                              {"speedup_vs_scalar", speedup, "x"}};
                std::printf("  %-30s %10.1f ns/op   speedup %.2fx\n",
                            sc.name.c_str(), ns, speedup);
                rep.scenarios.push_back(std::move(sc));
            }
        }
    }
    sim::setDispatchOverride("auto");

    // Dispatch-indirection contract: wrapper (table fetch per sweep)
    // vs. hoisted table pointer, on the probe-resolved backend.
    {
        const std::size_t n = opt.smoke ? 16 : 20;
        const int sweepsPerRound = opt.smoke ? 8 : 4;
        const int rounds = 5;
        CVector amps = randomState(rng, n);
        const std::size_t q0 = n / 3;
        const std::size_t q1 = (2 * n) / 3;
        const Matrix u = linalg::haarUnitary(rng, 4);

        // The wrapper is the range kernel over every quad, so the
        // hoisted baseline calls that same table entry directly.
        const sim::KernelTable &table = sim::activeKernels();
        const std::size_t quads = amps.size() >> 2;
        const double tHoisted = bestSeconds(rounds, [&] {
            for (int s = 0; s < sweepsPerRound; ++s)
                table.apply2qRange(amps.data(), n, q0, q1, u.data(), 0,
                                   quads);
        });
        const double tDispatched = bestSeconds(rounds, [&] {
            for (int s = 0; s < sweepsPerRound; ++s)
                sim::apply2q(amps.data(), n, q0, q1, u.data());
        });
        const double perSweep = 1.0 / static_cast<double>(sweepsPerRound);
        const double nsHoisted = 1e9 * tHoisted * perSweep;
        const double nsDispatched = 1e9 * tDispatched * perSweep;
        const double overheadPct =
            nsHoisted > 0.0
                ? 100.0 * (nsDispatched - nsHoisted) / nsHoisted
                : 0.0;
        bench::Scenario sc;
        sc.name = "apply2q_indirection/n=" + std::to_string(n);
        sc.params = {{"qubits", static_cast<double>(n)},
                     {"sweeps_per_round",
                      static_cast<double>(sweepsPerRound)}};
        sc.metrics = {{"hoisted_ns_per_sweep", nsHoisted, "ns"},
                      {"dispatched_ns_per_sweep", nsDispatched, "ns"},
                      {"dispatch_overhead_pct", overheadPct, "%"}};
        std::printf("  %-30s hoisted %10.1f ns   dispatched %10.1f ns "
                    "(%+.2f%%)\n",
                    sc.name.c_str(), nsHoisted, nsDispatched, overheadPct);
        rep.scenarios.push_back(std::move(sc));
    }

    return rep;
}

/** One row of the --list table; kept in sync with selectFamily. */
struct FamilyInfo
{
    const char *name;
    const char *report;
    const char *what;
};

constexpr FamilyInfo kFamilies[] = {
    {"micro", "BENCH_micro.json",
     "SIMD kernels vs. the scalar baseline, plus 2q plan fusion"},
    {"sweep", "BENCH_sweep_scaling.json",
     "state-parallel chunked kernel sweeps vs. one thread"},
    {"batch", "BENCH_batch_soa.json",
     "SoA trajectory batching vs. per-trajectory execution"},
    {"blocked", "BENCH_blocked_sweep.json",
     "cache-blocked plan execution vs. unblocked per-op sweeps"},
    {"shard", "BENCH_shard_scaling.json",
     "sharded statevector execution and amplitude-exchange accounting"},
    {"transpile", "BENCH_transpile.json",
     "transpiler batch throughput across thread counts"},
    {"fig7", "BENCH_fig7.json",
     "quantum-volume heavy-output harness (paper Figure 7)"},
    {"obs", "BENCH_obs_overhead.json",
     "tracing-overhead A/B of the instrumented kernel paths"},
    {"dispatch", "BENCH_dispatch_backends.json",
     "every compiled kernel backend forced in turn on one binary"},
};

int
listFamilies()
{
    std::printf("bench_runner families (run with no arguments for all):\n");
    for (const FamilyInfo &f : kFamilies)
        std::printf("  %-10s %-26s %s\n", f.name, f.report, f.what);
    std::printf("  %-10s %-26s %s\n", "all", "(every report above)",
                "explicit alias for the full suite");
    return 0;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [micro|sweep|batch|blocked|shard|transpile|fig7|\n"
        "           obs|dispatch|all ...]\n"
        "          [--smoke] [--scenario FAMILY] [--out-dir DIR]\n"
        "          [--trace PATH] [--list]\n"
        "\n"
        "Runs the unified benchmark suite and writes BENCH_<name>.json\n"
        "per family into --out-dir (default: current directory).\n"
        "Families may be given positionally or via --scenario; with\n"
        "none, every family runs. --list prints the family table and\n"
        "exits. --smoke shrinks problem sizes for CI;\n"
        "the n=20 apply1q scalar-vs-SIMD point is always included.\n"
        "--trace PATH additionally records every selected family and\n"
        "writes one combined Chrome trace-event JSON to PATH (open in\n"
        "chrome://tracing or https://ui.perfetto.dev); per-span\n"
        "aggregates land in each family's BENCH json under \"obs\".\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool scenarioChosen = false;
    const auto selectFamily = [&](const std::string &s) {
        if (!scenarioChosen) {
            opt.micro = opt.sweep = opt.batch = opt.blocked = opt.shard =
                opt.transpile = opt.fig7 = opt.obs = opt.dispatch = false;
            scenarioChosen = true;
        }
        if (s == "micro")
            opt.micro = true;
        else if (s == "sweep")
            opt.sweep = true;
        else if (s == "batch")
            opt.batch = true;
        else if (s == "blocked")
            opt.blocked = true;
        else if (s == "shard")
            opt.shard = true;
        else if (s == "transpile")
            opt.transpile = true;
        else if (s == "fig7")
            opt.fig7 = true;
        else if (s == "obs")
            opt.obs = true;
        else if (s == "dispatch")
            opt.dispatch = true;
        else if (s == "all")
            opt.micro = opt.sweep = opt.batch = opt.blocked = opt.shard =
                opt.transpile = opt.fig7 = opt.obs = opt.dispatch = true;
        else
            return false;
        return true;
    };
    const auto unknownFamily = [&](const std::string &s) {
        std::fprintf(stderr,
                     "bench_runner: unknown benchmark family '%s' "
                     "(--list shows the available families)\n",
                     s.c_str());
        return usage(argv[0]);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--list") {
            return listFamilies();
        } else if (arg == "--out-dir" && i + 1 < argc) {
            opt.outDir = argv[++i];
        } else if (arg == "--trace" && i + 1 < argc) {
            opt.trace = argv[++i];
        } else if (arg == "--scenario" && i + 1 < argc) {
            if (!selectFamily(argv[++i]))
                return unknownFamily(argv[i]);
        } else if (!arg.empty() && arg[0] != '-') {
            if (!selectFamily(arg))
                return unknownFamily(arg);
        } else {
            return usage(argv[0]);
        }
    }

    // Validate the trace destination up front: a typo'd or unwritable
    // path must fail loudly now, not lose the trace silently after the
    // whole suite has run. Checked even when tracing is compiled out —
    // a bad path is a bad invocation either way.
    if (!opt.trace.empty()) {
        std::FILE *probe = std::fopen(opt.trace.c_str(), "a");
        if (probe == nullptr) {
            std::fprintf(stderr,
                         "bench_runner: cannot open trace output '%s': "
                         "%s\n",
                         opt.trace.c_str(), std::strerror(errno));
            return 2;
        }
        std::fclose(probe);
    }
    const bool tracing = !opt.trace.empty() && obs::compiledIn();
    if (!opt.trace.empty() && !obs::compiledIn())
        std::fprintf(stderr,
                     "bench_runner: warning: --trace ignored (built with "
                     "-DCRISC_OBS=OFF)\n");

    std::printf("bench_runner: sha %s%s, backend %s, %u hw threads%s%s\n",
                bench::reportGitSha().c_str(),
                bench::reportGitDirty() ? "-dirty" : "",
                sim::simdBackendName(),
                std::max(1u, std::thread::hardware_concurrency()),
                opt.smoke ? " (smoke)" : "", tracing ? " (tracing)" : "");

    // Each family runs under its own TraceSession (fresh buffers and
    // counters), its aggregates land in its own BENCH json, and the raw
    // events merge into one combined Chrome trace.
    obs::Trace combined;
    const auto runFamily = [&](bench::Report (*fn)(const Options &)) {
        obs::TraceSession session;
        if (tracing) {
            session.start();
            // Stamp the resolved backend/lanes gauges into this
            // session's trace (gauges set pre-start were dropped).
            sim::recordDispatchGauges();
        }
        bench::Report rep = fn(opt);
        if (tracing) {
            session.stop();
            const obs::Trace t = session.collect();
            rep.obsEnabled = true;
            for (const obs::SpanSummary &s : obs::summarize(t))
                rep.obsSpans.push_back(
                    {s.name, s.count, s.totalNs, s.meanNs, s.p95Ns});
            obs::mergeInto(combined, t);
        }
        std::printf("wrote %s\n",
                    bench::writeReport(rep, opt.outDir).c_str());
    };

    if (opt.micro)
        runFamily(runMicro);
    if (opt.sweep)
        runFamily(runSweep);
    if (opt.batch)
        runFamily(runBatch);
    if (opt.blocked)
        runFamily(runBlocked);
    if (opt.shard)
        runFamily(runShard);
    if (opt.transpile)
        runFamily(runTranspile);
    if (opt.fig7)
        runFamily(runFig7);
    if (opt.obs)
        runFamily(runObsOverhead);
    if (opt.dispatch)
        runFamily(runDispatch);

    if (tracing) {
        obs::writeChromeTrace(combined, opt.trace);
        std::printf("wrote %s (%zu span events, %llu dropped)\n",
                    opt.trace.c_str(), combined.events.size(),
                    static_cast<unsigned long long>(combined.dropped));
    }
    return 0;
}
