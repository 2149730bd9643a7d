/**
 * @file
 * Shared statevector test fixtures: a seeded random normalized state,
 * an element-wise max-difference metric, a bitwise-equality predicate,
 * a random circuit covering all five KernelKinds, a scoped
 * environment-variable override that drops the sim/env.hh parse caches,
 * and a scoped kernel-backend override. Used by the simulation
 * (test_sim.cc), SIMD-equivalence (test_simd.cc), dispatch
 * (test_dispatch.cc), blocked-execution (test_blocked.cc), and sharded
 * (test_shard.cc) suites so they all exercise identical state and
 * circuit generation.
 */

#ifndef CRISC_TESTS_SIM_TEST_UTIL_HH
#define CRISC_TESTS_SIM_TEST_UTIL_HH

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "circuit/circuit.hh"
#include "linalg/matrix.hh"
#include "linalg/random.hh"
#include "qop/gates.hh"
#include "sim/dispatch.hh"
#include "sim/env.hh"

namespace crisc {
namespace testutil {

/** A Haar-ish random normalized n-qubit statevector. */
inline linalg::CVector
randomState(linalg::Rng &rng, std::size_t n)
{
    linalg::CVector v(std::size_t{1} << n);
    double norm2 = 0.0;
    for (linalg::Complex &a : v) {
        a = linalg::Complex{rng.gaussian(), rng.gaussian()};
        norm2 += std::norm(a);
    }
    const double scale = 1.0 / std::sqrt(norm2);
    for (linalg::Complex &a : v)
        a *= scale;
    return v;
}

/** max_i |a[i] - b[i]| over two equal-length vectors. */
inline double
maxDiff(const linalg::CVector &a, const linalg::CVector &b)
{
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

/** Exact bitwise equality of two equal-length statevectors. */
inline bool
bitIdentical(const linalg::CVector &a, const linalg::CVector &b)
{
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].real() != b[i].real() || a[i].imag() != b[i].imag())
            return false;
    return true;
}

/**
 * Random circuit whose compiled plan (with fusion off) covers all five
 * KernelKinds: dense and diagonal 1q, dense and diagonal 2q, and the
 * k = 3 dense fallback.
 */
inline circuit::Circuit
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

/**
 * Pins one environment variable for a scope and restores the old value
 * on exit, dropping the sim/env.hh parse caches on both transitions so
 * the next accessor call re-reads the environment. Pass nullptr to
 * unset the variable for the scope.
 */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        hadOld_ = old != nullptr;
        if (hadOld_)
            old_ = old;
        if (value == nullptr)
            unsetenv(name);
        else
            setenv(name, value, 1);
        sim::env::resetForTesting();
    }
    ~ScopedEnv()
    {
        if (hadOld_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
        sim::env::resetForTesting();
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name_;
    bool hadOld_ = false;
    std::string old_;
};

/**
 * Forces a kernel backend for a scope (sim::setDispatchOverride) and
 * restores the environment's choice on exit — CRISC_SIMD_DISPATCH when
 * set, the CPU probe otherwise — so a forcing test never changes the
 * backend the rest of the binary runs under.
 */
class ScopedDispatch
{
  public:
    /** Restores on exit only; the scope may force backends itself. */
    ScopedDispatch() = default;
    explicit ScopedDispatch(const std::string &backend)
    {
        sim::setDispatchOverride(backend);
    }
    ~ScopedDispatch() { sim::setDispatchOverride(sim::env::simdDispatch()); }

    ScopedDispatch(const ScopedDispatch &) = delete;
    ScopedDispatch &operator=(const ScopedDispatch &) = delete;
};

/** Names of every backend compiled in and supported by this CPU, in
 *  probe order (always ends with "scalar"). */
inline std::vector<std::string>
selectableBackends()
{
    std::vector<std::string> names;
    for (const sim::Backend b : sim::compiledBackends())
        if (sim::hostSupports(b))
            names.push_back(sim::backendName(b));
    return names;
}

} // namespace testutil
} // namespace crisc

#endif // CRISC_TESTS_SIM_TEST_UTIL_HH
