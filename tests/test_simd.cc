/**
 * @file
 * Scalar-vs-SIMD kernel equivalence suite (fast; runs under the CI
 * sanitizer matrix). Every dispatching kernel in sim/kernels.hh must
 * reproduce its sim::scalar reference on random states — the SIMD
 * lanes replay the scalar IEEE operation order exactly, so the paths
 * agree bit for bit on finite amplitudes; the acceptance bound asserted
 * here is 1e-12, with an additional exact check guarding the
 * bit-identical contract the pinned Figure-7 regressions rely on.
 * Register widths sweep past the vector length so both the vectorized
 * inner loops and the short-stride scalar fallback are exercised.
 *
 * The same pinning extends to the state-parallel backend: group-range
 * kernels over arbitrary partitions, the generic dense (k >= 3)
 * fallback, and chunked pool execution (engine.hh ExecOptions) must
 * all be bit-identical to the serial sweeps.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "circuit/circuit.hh"
#include "linalg/random.hh"
#include "qop/gates.hh"
#include "sim/batch.hh"
#include "sim/engine.hh"
#include "sim/kernels.hh"
#include "sim_test_util.hh"

namespace {

using namespace crisc;
using linalg::Complex;
using linalg::CVector;
using linalg::Matrix;
using testutil::maxDiff;
using testutil::randomState;

bool
bitIdentical(const CVector &a, const CVector &b)
{
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].real() != b[i].real() || a[i].imag() != b[i].imag())
            return false;
    return true;
}

TEST(Simd, BackendIsWellFormed)
{
    const std::string backend = sim::simdBackendName();
    EXPECT_TRUE(backend == "avx2" || backend == "avx512" ||
                backend == "neon" || backend == "scalar")
        << backend;
    const std::size_t lanes = sim::simdLanes();
    EXPECT_GE(lanes, 1u);
    EXPECT_EQ(lanes & (lanes - 1), 0u) << "lane count must be 2^k";
}

// The stride and pair sweeps run once per selectable backend (every
// backend compiled in and supported by this CPU, forced in-process), so
// registers narrower than one vector reach each backend's scalar
// fallback whatever CRISC_SIMD_DISPATCH resolves to.

TEST(Simd, Apply1qMatchesScalarOnAllStrides)
{
    linalg::Rng rng(101);
    for (const std::string &backend : testutil::selectableBackends()) {
        testutil::ScopedDispatch force(backend);
        for (std::size_t n = 1; n <= 9; ++n) {
            const Matrix u = linalg::haarUnitary(rng, 2);
            const Complex m[4] = {u(0, 0), u(0, 1), u(1, 0), u(1, 1)};
            for (std::size_t q = 0; q < n; ++q) {
                const CVector in = randomState(rng, n);
                CVector viaScalar = in, viaSimd = in;
                sim::scalar::apply1q(viaScalar.data(), n, q, m);
                sim::apply1q(viaSimd.data(), n, q, m);
                EXPECT_LT(maxDiff(viaSimd, viaScalar), 1e-12);
                EXPECT_TRUE(bitIdentical(viaSimd, viaScalar))
                    << backend << " n=" << n << " q=" << q;
            }
        }
    }
}

TEST(Simd, Apply1qDiagMatchesScalarOnAllStrides)
{
    linalg::Rng rng(102);
    const Matrix u = qop::rz(1.2345);
    for (const std::string &backend : testutil::selectableBackends()) {
        testutil::ScopedDispatch force(backend);
        for (std::size_t n = 1; n <= 9; ++n) {
            for (std::size_t q = 0; q < n; ++q) {
                const CVector in = randomState(rng, n);
                CVector viaScalar = in, viaSimd = in;
                sim::scalar::apply1qDiag(viaScalar.data(), n, q, u(0, 0),
                                         u(1, 1));
                sim::apply1qDiag(viaSimd.data(), n, q, u(0, 0), u(1, 1));
                EXPECT_LT(maxDiff(viaSimd, viaScalar), 1e-12);
                EXPECT_TRUE(bitIdentical(viaSimd, viaScalar))
                    << backend << " n=" << n << " q=" << q;
            }
        }
    }
}

TEST(Simd, ApplyPauliMatchesScalarOnAllStrides)
{
    linalg::Rng rng(103);
    for (const std::string &backend : testutil::selectableBackends()) {
        testutil::ScopedDispatch force(backend);
        for (std::size_t n = 1; n <= 9; ++n) {
            for (std::size_t q = 0; q < n; ++q) {
                for (std::size_t p = 1; p <= 3; ++p) {
                    const CVector in = randomState(rng, n);
                    CVector viaScalar = in, viaSimd = in;
                    sim::scalar::applyPauli(viaScalar.data(), n, q, p);
                    sim::applyPauli(viaSimd.data(), n, q, p);
                    EXPECT_TRUE(bitIdentical(viaSimd, viaScalar))
                        << backend << " n=" << n << " q=" << q
                        << " pauli=" << p;
                }
            }
        }
        CVector buf(2, Complex{1.0, 0.0});
        EXPECT_THROW(sim::applyPauli(buf.data(), 1, 0, 4),
                     std::invalid_argument)
            << backend;
        EXPECT_THROW(sim::applyPauli(buf.data(), 1, 0, 0),
                     std::invalid_argument)
            << backend;
    }
}

TEST(Simd, Apply2qMatchesScalarOnAllPairs)
{
    linalg::Rng rng(104);
    for (const std::string &backend : testutil::selectableBackends()) {
        testutil::ScopedDispatch force(backend);
        for (std::size_t n = 2; n <= 8; ++n) {
            const Matrix u = linalg::haarUnitary(rng, 4);
            for (std::size_t a = 0; a < n; ++a) {
                for (std::size_t b = 0; b < n; ++b) {
                    if (a == b)
                        continue;
                    const CVector in = randomState(rng, n);
                    CVector viaScalar = in, viaSimd = in;
                    sim::scalar::apply2q(viaScalar.data(), n, a, b,
                                         u.data());
                    sim::apply2q(viaSimd.data(), n, a, b, u.data());
                    EXPECT_LT(maxDiff(viaSimd, viaScalar), 1e-12);
                    EXPECT_TRUE(bitIdentical(viaSimd, viaScalar))
                        << backend << " n=" << n << " pair (" << a << ", "
                        << b << ")";
                }
            }
        }
    }
}

TEST(Simd, Apply2qDiagMatchesScalarOnAllPairs)
{
    linalg::Rng rng(105);
    const Complex d[4] = {Complex{1.0, 0.0},
                          std::polar(1.0, 0.3),
                          std::polar(1.0, -0.7),
                          std::polar(1.0, 2.1)};
    for (const std::string &backend : testutil::selectableBackends()) {
        testutil::ScopedDispatch force(backend);
        for (std::size_t n = 2; n <= 8; ++n) {
            for (std::size_t a = 0; a < n; ++a) {
                for (std::size_t b = 0; b < n; ++b) {
                    if (a == b)
                        continue;
                    const CVector in = randomState(rng, n);
                    CVector viaScalar = in, viaSimd = in;
                    sim::scalar::apply2qDiag(viaScalar.data(), n, a, b, d);
                    sim::apply2qDiag(viaSimd.data(), n, a, b, d);
                    EXPECT_TRUE(bitIdentical(viaSimd, viaScalar))
                        << backend << " n=" << n << " pair (" << a << ", "
                        << b << ")";
                }
            }
        }
    }
}

TEST(Simd, RangeKernelsMatchFullKernelsOnArbitraryPartitions)
{
    // Any partition of the group index space — including boundaries
    // that are not SIMD- or cache-aligned — must reassemble the full
    // sweep bit for bit, for every selectable backend's range kernels
    // and for the scalar reference range kernels. The full sweep is
    // the independent sim::scalar full-sweep reference: the public
    // full-sweep wrappers are themselves range calls over [0, groups).
    linalg::Rng rng(107);
    const Matrix u2 = linalg::haarUnitary(rng, 2);
    const Complex m2[4] = {u2(0, 0), u2(0, 1), u2(1, 0), u2(1, 1)};
    const Matrix u4 = linalg::haarUnitary(rng, 4);
    const Complex d4[4] = {Complex{1.0, 0.0}, std::polar(1.0, 0.4),
                           std::polar(1.0, -1.1), std::polar(1.0, 2.6)};
    const Matrix rz = qop::rz(0.9173);

    const auto partitionPoints = [](std::size_t groups) {
        std::vector<std::size_t> cuts{0, 1, 3, groups / 3,
                                      groups / 2 + 5, groups - 1, groups};
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
        while (!cuts.empty() && cuts.back() > groups)
            cuts.pop_back();
        return cuts;
    };

    for (const std::string &backend : testutil::selectableBackends()) {
        testutil::ScopedDispatch force(backend);
        for (std::size_t n = 4; n <= 9; ++n) {
            const std::size_t pairs = (std::size_t{1} << n) / 2;
            const std::size_t quads = (std::size_t{1} << n) / 4;
            for (std::size_t q = 0; q < n; ++q) {
                const CVector in = randomState(rng, n);
                CVector full = in, ranged = in, scalarRanged = in;
                sim::scalar::apply1q(full.data(), n, q, m2);
                const auto cuts = partitionPoints(pairs);
                for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
                    sim::apply1qRange(ranged.data(), n, q, m2, cuts[c],
                                      cuts[c + 1]);
                    sim::scalar::apply1qRange(scalarRanged.data(), n, q,
                                              m2, cuts[c], cuts[c + 1]);
                }
                EXPECT_TRUE(bitIdentical(ranged, full))
                    << backend << " n=" << n << " q=" << q;
                EXPECT_TRUE(bitIdentical(scalarRanged, full))
                    << backend << " n=" << n << " q=" << q;

                CVector diagFull = in, diagRanged = in,
                        diagScalarRanged = in;
                sim::scalar::apply1qDiag(diagFull.data(), n, q, rz(0, 0),
                                         rz(1, 1));
                for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
                    sim::apply1qDiagRange(diagRanged.data(), n, q,
                                          rz(0, 0), rz(1, 1), cuts[c],
                                          cuts[c + 1]);
                    sim::scalar::apply1qDiagRange(
                        diagScalarRanged.data(), n, q, rz(0, 0), rz(1, 1),
                        cuts[c], cuts[c + 1]);
                }
                EXPECT_TRUE(bitIdentical(diagRanged, diagFull))
                    << backend << " n=" << n << " q=" << q;
                EXPECT_TRUE(bitIdentical(diagScalarRanged, diagFull))
                    << backend << " n=" << n << " q=" << q;
            }
            for (std::size_t a = 0; a < n; ++a) {
                for (std::size_t b = 0; b < n; ++b) {
                    if (a == b)
                        continue;
                    const CVector in = randomState(rng, n);
                    CVector full = in, ranged = in, scalarRanged = in;
                    sim::scalar::apply2q(full.data(), n, a, b, u4.data());
                    const auto cuts = partitionPoints(quads);
                    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
                        sim::apply2qRange(ranged.data(), n, a, b,
                                          u4.data(), cuts[c], cuts[c + 1]);
                        sim::scalar::apply2qRange(scalarRanged.data(), n, a,
                                                  b, u4.data(), cuts[c],
                                                  cuts[c + 1]);
                    }
                    EXPECT_TRUE(bitIdentical(ranged, full))
                        << backend << " n=" << n << " pair (" << a << ", "
                        << b << ")";
                    EXPECT_TRUE(bitIdentical(scalarRanged, full))
                        << backend << " n=" << n << " pair (" << a << ", "
                        << b << ")";

                    CVector diagFull = in, diagRanged = in,
                            diagScalarRanged = in;
                    sim::scalar::apply2qDiag(diagFull.data(), n, a, b, d4);
                    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
                        sim::apply2qDiagRange(diagRanged.data(), n, a, b,
                                              d4, cuts[c], cuts[c + 1]);
                        sim::scalar::apply2qDiagRange(
                            diagScalarRanged.data(), n, a, b, d4, cuts[c],
                            cuts[c + 1]);
                    }
                    EXPECT_TRUE(bitIdentical(diagRanged, diagFull))
                        << backend << " n=" << n << " pair (" << a << ", "
                        << b << ")";
                    EXPECT_TRUE(bitIdentical(diagScalarRanged, diagFull))
                        << backend << " n=" << n << " pair (" << a << ", "
                        << b << ")";
                }
            }
        }
    }
}

TEST(Simd, DenseKernelMatchesEmbeddingAndRangePartition)
{
    // The k >= 3 generic fallback previously had no equivalence pin of
    // its own: check it against the dense embedding (1e-12) and check
    // that an arbitrary partition of its group sweep is bit-identical
    // to the full kernel.
    linalg::Rng rng(108);
    for (std::size_t n = 4; n <= 6; ++n) {
        for (const std::size_t k : {std::size_t{3}, std::size_t{4}}) {
            if (k > n)
                continue;
            // A scattered, non-ascending qubit list stresses the
            // bit-expansion path.
            std::vector<std::size_t> qubits;
            for (std::size_t q = 0; q < n; ++q)
                qubits.push_back(q);
            std::shuffle(qubits.begin(), qubits.end(), rng.engine());
            qubits.resize(k);
            const Matrix u =
                linalg::haarUnitary(rng, std::size_t{1} << k);
            const CVector in = randomState(rng, n);

            CVector viaKernel = in;
            sim::applyDense(viaKernel.data(), n, u, qubits);
            const CVector viaEmbed = qop::embed(u, qubits, n) * in;
            EXPECT_LT(maxDiff(viaKernel, viaEmbed), 1e-12)
                << "n=" << n << " k=" << k;

            const std::size_t groups = (std::size_t{1} << n) >> k;
            CVector viaRange = in;
            std::size_t g = 0;
            std::size_t step = 1;
            while (g < groups) {
                const std::size_t end = std::min(groups, g + step);
                sim::applyDenseRange(viaRange.data(), n, u, qubits, g,
                                     end);
                g = end;
                step = step * 2 + 1; // uneven, unaligned chunks
            }
            EXPECT_TRUE(bitIdentical(viaRange, viaKernel))
                << "n=" << n << " k=" << k;
        }
    }
}

TEST(Simd, ParallelExecuteOpMatchesSerialForEveryKernelKind)
{
    // Chunked pool execution of a single sweep must be bit-identical
    // to the serial kernel for every KernelKind, including the dense
    // fallback. n = 14 clears the engine's minimum parallel group
    // count for all kinds.
    linalg::Rng rng(109);
    const std::size_t n = 14;
    sim::ThreadPool pool(3);

    std::vector<sim::KernelOp> ops;
    {
        sim::KernelOp op;
        op.kind = sim::KernelKind::OneQ;
        op.q0 = 5;
        const Matrix u = linalg::haarUnitary(rng, 2);
        for (std::size_t i = 0; i < 4; ++i)
            op.m[i] = u(i / 2, i % 2);
        ops.push_back(op);
    }
    {
        sim::KernelOp op;
        op.kind = sim::KernelKind::OneQDiag;
        op.q0 = 12;
        const Matrix rz = qop::rz(0.377);
        op.m[0] = rz(0, 0);
        op.m[1] = rz(1, 1);
        ops.push_back(op);
    }
    {
        sim::KernelOp op;
        op.kind = sim::KernelKind::TwoQ;
        op.q0 = 3;
        op.q1 = 11;
        const Matrix u = linalg::haarUnitary(rng, 4);
        for (std::size_t i = 0; i < 16; ++i)
            op.m[i] = u(i / 4, i % 4);
        ops.push_back(op);
    }
    {
        sim::KernelOp op;
        op.kind = sim::KernelKind::TwoQDiag;
        op.q0 = 13;
        op.q1 = 2;
        op.m[0] = Complex{1.0, 0.0};
        op.m[1] = std::polar(1.0, 0.7);
        op.m[2] = std::polar(1.0, -0.2);
        op.m[3] = std::polar(1.0, 1.9);
        ops.push_back(op);
    }
    {
        sim::KernelOp op;
        op.kind = sim::KernelKind::Dense;
        op.dense = linalg::haarUnitary(rng, 8);
        op.qubits = {9, 1, 6};
        ops.push_back(op);
    }

    for (const sim::KernelOp &op : ops) {
        ASSERT_GE(sim::opGroupCount(op, n), 1024u);
        const CVector in = randomState(rng, n);
        CVector serial = in;
        sim::executeOp(op, serial.data(), n);
        for (const std::size_t chunk : {std::size_t{0}, std::size_t{100},
                                        std::size_t{1024}}) {
            CVector parallel = in;
            sim::ExecOptions exec;
            exec.pool = &pool;
            exec.chunk = chunk;
            sim::executeOp(op, parallel.data(), n, exec);
            EXPECT_TRUE(bitIdentical(parallel, serial))
                << "kind=" << static_cast<int>(op.kind)
                << " chunk=" << chunk;
        }
    }
}

TEST(Simd, ParallelPlanExecutionMatchesSerial)
{
    // Whole-plan state-parallel execution (transient pool from
    // ExecOptions::threads) against the serial backend on a mixed
    // circuit: 1q, diagonal, 2q, and a 3-qubit dense gate.
    linalg::Rng rng(110);
    const std::size_t n = 14;
    circuit::Circuit c(n);
    for (int layer = 0; layer < 3; ++layer) {
        for (std::size_t q = 0; q < n; q += 2)
            c.add(linalg::haarUnitary(rng, 2), {q});
        for (std::size_t q = 0; q + 1 < n; q += 3)
            c.add(linalg::haarUnitary(rng, 4), {q, q + 1});
        c.add(qop::rz(0.31 * (layer + 1)), {std::size_t(layer)});
        c.add(qop::cz(), {std::size_t(layer), std::size_t(layer + 4)});
    }
    c.add(linalg::haarUnitary(rng, 8), {1, 7, 12});

    const sim::Plan plan = sim::compile(c);
    const CVector serial = sim::run(plan);

    sim::ExecOptions exec;
    exec.threads = 4;
    const CVector viaTransient = sim::run(plan, exec);
    EXPECT_TRUE(bitIdentical(viaTransient, serial));
    EXPECT_LT(maxDiff(viaTransient, serial), 1e-12);

    sim::ThreadPool pool(4);
    exec.pool = &pool;
    exec.chunk = 100; // not a granule multiple: pins the round-up path
    CVector viaPool(serial.size(), Complex{0.0, 0.0});
    viaPool[0] = 1.0;
    plan.execute(viaPool.data(), exec);
    EXPECT_TRUE(bitIdentical(viaPool, serial));
}

TEST(Simd, LargeRegisterSpotCheck)
{
    // One 16-qubit sweep (65k amplitudes, fully vectorized strides) so
    // the equivalence evidence is not limited to toy sizes.
    linalg::Rng rng(106);
    const std::size_t n = 16;
    const Matrix u2 = linalg::haarUnitary(rng, 2);
    const Complex m[4] = {u2(0, 0), u2(0, 1), u2(1, 0), u2(1, 1)};
    const Matrix u4 = linalg::haarUnitary(rng, 4);
    const CVector in = randomState(rng, n);
    CVector viaScalar = in, viaSimd = in;
    for (std::size_t q = 0; q < n; ++q) {
        sim::scalar::apply1q(viaScalar.data(), n, q, m);
        sim::apply1q(viaSimd.data(), n, q, m);
    }
    for (std::size_t q = 0; q + 1 < n; q += 2) {
        sim::scalar::apply2q(viaScalar.data(), n, q, q + 1, u4.data());
        sim::apply2q(viaSimd.data(), n, q, q + 1, u4.data());
    }
    EXPECT_LT(maxDiff(viaSimd, viaScalar), 1e-12);
    EXPECT_TRUE(bitIdentical(viaSimd, viaScalar));
}

} // namespace
