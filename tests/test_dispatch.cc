/**
 * @file
 * Runtime ISA dispatch suite (fast; runs under the CI sanitizer
 * matrix). One binary carries every backend the compiler could build
 * (sim/dispatch.hh), so this suite can force each of them in-process
 * and pin the whole contract: override parsing rejects unknown names,
 * forcing an uncompiled or host-unsupported backend throws rather than
 * silently falling back, "auto" resolves deterministically to the
 * first compiled+supported backend in probe order, every compiled
 * table covers every KernelKind with non-null entries, and every
 * selectable backend is bit-identical to forced-scalar over random
 * circuits covering all five KernelKinds on all four execution paths
 * (serial, state-parallel, SoA-batched, cache-blocked).
 */

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/circuit.hh"
#include "linalg/random.hh"
#include "qop/gates.hh"
#include "sim/batch.hh"
#include "sim/batch_state.hh"
#include "sim/dispatch.hh"
#include "sim/engine.hh"
#include "sim/kernels.hh"
#include "sim_test_util.hh"

namespace {

using namespace crisc;
using linalg::Complex;
using linalg::CVector;
using testutil::randomState;

bool
bitIdentical(const CVector &a, const CVector &b)
{
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].real() != b[i].real() || a[i].imag() != b[i].imag())
            return false;
    return true;
}

constexpr sim::Backend kAllBackends[] = {
    sim::Backend::Scalar, sim::Backend::Avx2, sim::Backend::Avx512,
    sim::Backend::Neon};

/**
 * Random circuit whose compiled plan (with fusion off) covers all five
 * KernelKinds: dense and diagonal 1q, dense and diagonal 2q, and the
 * k = 3 dense fallback (same generator shape as test_blocked.cc).
 */
circuit::Circuit
randomCircuit(linalg::Rng &rng, std::size_t n, std::size_t gates)
{
    circuit::Circuit c(n);
    for (std::size_t g = 0; g < gates; ++g) {
        const std::size_t kind = rng.index(6);
        const std::size_t a = rng.index(n);
        std::size_t b = rng.index(n - 1);
        if (b >= a)
            ++b;
        switch (kind) {
          case 0:
            c.add(linalg::haarUnitary(rng, 2), {a}, "u1");
            break;
          case 1:
            c.add(qop::rz(rng.uniform(0.0, 6.28)), {a}, "rz");
            break;
          case 2:
            c.add(linalg::haarSU(rng, 4), {a, b}, "u2");
            break;
          case 3:
            c.add(qop::cz(), {a, b}, "cz");
            break;
          case 4:
            c.add(qop::cnot(), {a, b}, "cx");
            break;
          default: {
            std::size_t d = rng.index(n - 2);
            for (std::size_t q : {std::min(a, b), std::max(a, b)})
                if (d >= q)
                    ++d;
            c.add(linalg::haarUnitary(rng, 8), {a, b, d}, "u3");
            break;
          }
        }
    }
    return c;
}

sim::Plan
compileUnfused(const circuit::Circuit &c)
{
    return sim::compile(c,
                        {.fuseSingleQubit = false, .fuseTwoQubit = false});
}

// ---------------------------------------------------------------------
// Override parsing and reject-loud forcing.
// ---------------------------------------------------------------------

TEST(Dispatch, ParseOverrideAcceptsNamesAndAuto)
{
    EXPECT_EQ(sim::parseDispatchOverride("auto"), std::nullopt);
    EXPECT_EQ(sim::parseDispatchOverride(""), std::nullopt);
    EXPECT_EQ(sim::parseDispatchOverride("scalar"), sim::Backend::Scalar);
    EXPECT_EQ(sim::parseDispatchOverride("avx2"), sim::Backend::Avx2);
    EXPECT_EQ(sim::parseDispatchOverride("avx512"), sim::Backend::Avx512);
    EXPECT_EQ(sim::parseDispatchOverride("neon"), sim::Backend::Neon);
}

TEST(Dispatch, ParseOverrideRejectsUnknownNames)
{
    EXPECT_THROW(sim::parseDispatchOverride("sse2"),
                 std::invalid_argument);
    EXPECT_THROW(sim::parseDispatchOverride("AVX2"),
                 std::invalid_argument);
    EXPECT_THROW(sim::parseDispatchOverride("scalar "),
                 std::invalid_argument);
    EXPECT_THROW(sim::setDispatchOverride("fastest"),
                 std::invalid_argument);
}

TEST(Dispatch, ForcingUncompiledBackendThrows)
{
    // A binary never carries both x86 and aarch64 backends, so at least
    // one of the four is always absent — forcing it must throw, not
    // fall back.
    testutil::ScopedDispatch restore;
    bool sawUncompiled = false;
    for (const sim::Backend b : kAllBackends) {
        if (sim::backendCompiled(b))
            continue;
        sawUncompiled = true;
        EXPECT_THROW(sim::setDispatchOverride(sim::backendName(b)),
                     std::runtime_error)
            << sim::backendName(b);
    }
    EXPECT_TRUE(sawUncompiled);

    // Compiled but host-unsupported (e.g. an avx512 TU on a non-avx512
    // machine) must throw the same way.
    for (const sim::Backend b : kAllBackends) {
        if (!sim::backendCompiled(b) || sim::hostSupports(b))
            continue;
        EXPECT_THROW(sim::setDispatchOverride(sim::backendName(b)),
                     std::runtime_error)
            << sim::backendName(b);
    }

    // A failed force never disturbs the resolved backend.
    EXPECT_TRUE(sim::backendCompiled(sim::activeBackend()));
    EXPECT_TRUE(sim::hostSupports(sim::activeBackend()));
}

TEST(Dispatch, AutoResolvesDeterministically)
{
    testutil::ScopedDispatch restore;
    sim::setDispatchOverride("auto");
    const sim::Backend first = sim::activeBackend();
    sim::setDispatchOverride("auto");
    EXPECT_EQ(sim::activeBackend(), first);
    EXPECT_EQ(sim::activeKernels().backend, first);
    EXPECT_STREQ(sim::backendName(), sim::backendName(first));
    EXPECT_STREQ(sim::simdBackendName(), sim::backendName(first));
    EXPECT_EQ(sim::simdLanes(), sim::activeKernels().lanes);

    // The probe picks the first compiled backend the host supports, in
    // probe order — no compiled+supported backend precedes it.
    const std::vector<sim::Backend> compiled = sim::compiledBackends();
    EXPECT_TRUE(sim::backendCompiled(first));
    EXPECT_TRUE(sim::hostSupports(first));
    for (const sim::Backend b : compiled) {
        if (b == first)
            break;
        EXPECT_FALSE(sim::hostSupports(b)) << sim::backendName(b);
    }
}

// ---------------------------------------------------------------------
// Table completeness: every KernelKind populated for every compiled
// backend.
// ---------------------------------------------------------------------

TEST(Dispatch, EveryCompiledTableIsComplete)
{
    const std::vector<sim::Backend> compiled = sim::compiledBackends();
    ASSERT_FALSE(compiled.empty());
    EXPECT_TRUE(sim::backendCompiled(sim::Backend::Scalar));

    for (const sim::Backend b : compiled) {
        const sim::KernelTable &t = sim::kernelTable(b);
        EXPECT_EQ(t.backend, b);
        EXPECT_STREQ(t.name, sim::backendName(b));
        EXPECT_GE(t.lanes, 1u);

        EXPECT_NE(t.applyPauli, nullptr);
        EXPECT_NE(t.apply1qRange, nullptr);
        EXPECT_NE(t.apply1qDiagRange, nullptr);
        EXPECT_NE(t.apply2qRange, nullptr);
        EXPECT_NE(t.apply2qDiagRange, nullptr);
        EXPECT_NE(t.applyDenseRange, nullptr);
        EXPECT_NE(t.apply1qBatchRange, nullptr);
        EXPECT_NE(t.apply1qDiagBatchRange, nullptr);
        EXPECT_NE(t.applyPauliBatchRange, nullptr);
        EXPECT_NE(t.apply2qBatchRange, nullptr);
        EXPECT_NE(t.apply2qDiagBatchRange, nullptr);
        EXPECT_NE(t.applyDenseBatchRange, nullptr);
        EXPECT_NE(t.applyPauliLane, nullptr);

        // The dense kernel carries no SIMD: one shared implementation.
        EXPECT_EQ(t.applyDenseRange, &sim::detail::applyDenseRangeShared);
    }
    const sim::KernelTable &scalar =
        sim::kernelTable(sim::Backend::Scalar);
    EXPECT_EQ(scalar.lanes, 1u);

    EXPECT_THROW(
        [] {
            for (const sim::Backend b : kAllBackends)
                if (!sim::backendCompiled(b))
                    (void)sim::kernelTable(b);
        }(),
        std::runtime_error);
}

// ---------------------------------------------------------------------
// Bitwise equivalence: every selectable backend vs forced scalar, over
// random circuits covering all five KernelKinds, on all four execution
// paths.
// ---------------------------------------------------------------------

TEST(Dispatch, EveryBackendBitIdenticalToScalarOnEveryPath)
{
    testutil::ScopedDispatch restore;
    linalg::Rng rng(83);
    const std::size_t n = 10;
    const std::size_t lanes = 3;
    sim::ThreadPool pool(3);
    bool sawKind[5] = {false, false, false, false, false};

    // Force every compiled+supported backend by name, plus "auto" —
    // the override path the CI multi-ISA job uses.
    std::vector<std::string> selections{"auto"};
    for (const std::string &name : testutil::selectableBackends())
        selections.push_back(name);

    for (int rep = 0; rep < 3; ++rep) {
        const circuit::Circuit c = randomCircuit(rng, n, 40);
        const sim::Plan plan = compileUnfused(c);
        for (const sim::KernelOp &op : plan.ops())
            sawKind[static_cast<int>(op.kind)] = true;

        const CVector init = randomState(rng, n);
        std::vector<CVector> states;
        for (std::size_t l = 0; l < lanes; ++l)
            states.push_back(randomState(rng, n));

        // Forced-scalar references for each path.
        sim::setDispatchOverride("scalar");
        CVector refSerial = init;
        sim::execute(plan, refSerial.data());
        sim::BatchState refBatch = sim::BatchState::pack(states);
        sim::executeBatched(plan, refBatch);

        for (const std::string &sel : selections) {
            sim::setDispatchOverride(sel);

            // Serial sweep.
            CVector amps = init;
            sim::execute(plan, amps.data());
            EXPECT_TRUE(bitIdentical(amps, refSerial))
                << sel << " serial rep=" << rep;

            // State-parallel sweep (chunked across the pool).
            amps = init;
            sim::ExecOptions par;
            par.pool = &pool;
            par.chunk = 100;
            sim::execute(plan, amps.data(), par);
            EXPECT_TRUE(bitIdentical(amps, refSerial))
                << sel << " state-parallel rep=" << rep;

            // SoA-batched sweep (SIMD lanes across trajectories).
            sim::BatchState batch = sim::BatchState::pack(states);
            sim::executeBatched(plan, batch);
            for (std::size_t l = 0; l < lanes; ++l)
                EXPECT_TRUE(bitIdentical(batch.unpackLane(l),
                                         refBatch.unpackLane(l)))
                    << sel << " batched lane=" << l << " rep=" << rep;

            // Cache-blocked sweep.
            amps = init;
            sim::ExecOptions blk;
            blk.threads = 2;
            sim::executeBlocked(plan, amps.data(), 3, blk);
            EXPECT_TRUE(bitIdentical(amps, refSerial))
                << sel << " blocked rep=" << rep;
        }
    }
    for (int k = 0; k < 5; ++k)
        EXPECT_TRUE(sawKind[k]) << "kernel kind " << k << " never hit";
}

} // namespace
