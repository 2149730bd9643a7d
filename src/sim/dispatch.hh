/**
 * @file
 * Runtime ISA dispatch for the statevector kernels. Every binary
 * carries one translation unit per SIMD backend the compiler could
 * build (kernels_scalar.cc always; kernels_avx2.cc / kernels_avx512.cc
 * on x86-64; kernels_neon.cc on aarch64 — see CMakeLists.txt), each
 * exporting one KernelTable of function pointers. This header exposes
 * the probe-and-pick layer that chooses among them once per process:
 *
 *   - activeBackend() / backendName(): the resolved backend, decided on
 *     first kernel use from the CRISC_SIMD_DISPATCH environment
 *     variable, or by CPU probe when the variable is unset or "auto"
 *     (probe order avx512 > avx2 > neon > scalar, first backend that is
 *     both compiled in and supported by the host).
 *   - activeKernels(): the resolved KernelTable. The public sim::apply*
 *     wrappers in kernels.hh and the engine's sweep drivers fetch this
 *     once per sweep — one atomic load plus one indirect call per
 *     kernel sweep or chunk, never per amplitude.
 *   - setDispatchOverride(): in-process re-resolution with the same
 *     semantics as the environment variable, used by tests and the
 *     bench_runner `dispatch` family to force each backend on one
 *     binary.
 *
 * The choice is process-global: one table pointer serves every thread,
 * plan, and trajectory (per-plan backends would break the bit-identity
 * story for batched Pauli noise, whose negation flavour must match the
 * serial kernels of the *same* backend). Unknown override names throw
 * std::invalid_argument; names of backends that are not compiled in or
 * not supported by this CPU throw std::runtime_error — never a silent
 * fallback. Every backend is bit-identical to sim::scalar on finite
 * amplitudes (see simd.hh), so switching backends never changes
 * results, only throughput.
 */

#ifndef CRISC_SIM_DISPATCH_HH
#define CRISC_SIM_DISPATCH_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "linalg/matrix.hh"

namespace crisc {
namespace sim {

using linalg::Complex;
using linalg::Matrix;

/** The kernel backends a binary can carry. Values index probe order
 *  metadata; the set actually compiled in is compiledBackends(). */
enum class Backend
{
    Scalar = 0,
    Avx2,
    Avx512,
    Neon,
};

/**
 * One backend's full kernel surface as function pointers. Every gate
 * kernel has one form, the group range: a full sweep is the range
 * [0, groups), and state-parallel and cache-blocked execution
 * partition the same entries. The interleaved (single statevector)
 * and batched SoA layouts each get one entry per KernelKind, plus the
 * full-sweep Pauli (noise only; nothing partitions it) and the
 * per-lane Pauli divergence point. applyDenseRange carries no SIMD
 * (gather/scatter dominated) and points at one shared implementation
 * in every table; it is present so that a table covers every
 * KernelKind. All entries of every registered table are non-null —
 * tests pin this.
 */
struct KernelTable
{
    Backend backend = Backend::Scalar;
    const char *name = "scalar";
    std::size_t lanes = 1;

    // Full-sweep Pauli (interleaved statevector).
    void (*applyPauli)(Complex *, std::size_t, std::size_t,
                       std::size_t) = nullptr;

    // Group-range kernels (interleaved statevector).
    void (*apply1qRange)(Complex *, std::size_t, std::size_t,
                         const Complex *, std::size_t,
                         std::size_t) = nullptr;
    void (*apply1qDiagRange)(Complex *, std::size_t, std::size_t, Complex,
                             Complex, std::size_t, std::size_t) = nullptr;
    void (*apply2qRange)(Complex *, std::size_t, std::size_t, std::size_t,
                         const Complex *, std::size_t,
                         std::size_t) = nullptr;
    void (*apply2qDiagRange)(Complex *, std::size_t, std::size_t,
                             std::size_t, const Complex *, std::size_t,
                             std::size_t) = nullptr;
    void (*applyDenseRange)(Complex *, std::size_t, const Matrix &,
                            const std::vector<std::size_t> &, std::size_t,
                            std::size_t) = nullptr;

    // Batched SoA group-range kernels (SIMD lanes across
    // trajectories).
    void (*apply1qBatchRange)(double *, double *, std::size_t, std::size_t,
                              std::size_t, const Complex *, std::size_t,
                              std::size_t) = nullptr;
    void (*apply1qDiagBatchRange)(double *, double *, std::size_t,
                                  std::size_t, std::size_t, Complex,
                                  Complex, std::size_t,
                                  std::size_t) = nullptr;
    void (*applyPauliBatchRange)(double *, double *, std::size_t,
                                 std::size_t, std::size_t, std::size_t,
                                 std::size_t, std::size_t) = nullptr;
    void (*apply2qBatchRange)(double *, double *, std::size_t, std::size_t,
                              std::size_t, std::size_t, const Complex *,
                              std::size_t, std::size_t) = nullptr;
    void (*apply2qDiagBatchRange)(double *, double *, std::size_t,
                                  std::size_t, std::size_t, std::size_t,
                                  const Complex *, std::size_t,
                                  std::size_t) = nullptr;
    void (*applyDenseBatchRange)(double *, double *, std::size_t,
                                 std::size_t, const Matrix &,
                                 const std::vector<std::size_t> &,
                                 std::size_t, std::size_t) = nullptr;

    void (*applyPauliLane)(double *, double *, std::size_t, std::size_t,
                           std::size_t, std::size_t,
                           std::size_t) = nullptr;
};

/** Display name of a backend ("scalar", "avx2", "avx512", "neon"). */
const char *backendName(Backend b);

/** The backends compiled into this binary, in probe order (always
 *  contains Backend::Scalar). */
std::vector<Backend> compiledBackends();

/** Whether @p b was compiled into this binary. */
bool backendCompiled(Backend b);

/** Whether this CPU can execute @p b (cpuid on x86; NEON is
 *  architectural on aarch64). Scalar is always supported. Independent
 *  of whether the backend is compiled in. */
bool hostSupports(Backend b);

/**
 * The kernel table of a specific compiled backend (tests and the bench
 * `dispatch` family iterate these).
 * @throws std::runtime_error if @p b is not compiled into this binary.
 */
const KernelTable &kernelTable(Backend b);

/**
 * Parses a CRISC_SIMD_DISPATCH value: "scalar" / "avx2" / "avx512" /
 * "neon" name a backend; "auto" (or empty) returns nullopt, meaning
 * probe.
 * @throws std::invalid_argument on any other value.
 */
std::optional<Backend> parseDispatchOverride(const std::string &value);

/**
 * The backend serving this process, resolving it on first call: the
 * CRISC_SIMD_DISPATCH environment variable if set (reject-loud
 * semantics as above), else the CPU probe (avx512 > avx2 > neon >
 * scalar among compiled-in backends). Deterministic for a given
 * environment and host.
 */
Backend activeBackend();

/** backendName(activeBackend()). */
const char *backendName();

/** The resolved kernel table (resolves on first call, like
 *  activeBackend()). */
const KernelTable &activeKernels();

/**
 * Re-resolves the process-global backend from @p value with the exact
 * CRISC_SIMD_DISPATCH semantics ("auto" re-probes). Takes effect for
 * every subsequent sweep in the process; in-flight sweeps keep the
 * table they fetched. Intended for tests and the bench_runner
 * `dispatch` family — production binaries use the environment variable.
 * @throws std::invalid_argument on an unknown name.
 * @throws std::runtime_error on a backend that is not compiled in or
 *         not supported by this CPU.
 */
void setDispatchOverride(const std::string &value);

/**
 * Records the resolved backend and lane count as obs gauges
 * ("sim.dispatch.backend", "sim.dispatch.lanes"). Called automatically
 * when the backend resolves; call again after starting a TraceSession
 * to stamp the gauges into that session's trace (gauges set while
 * tracing is off are dropped).
 */
void recordDispatchGauges();

namespace detail {

// Per-backend table builders, defined by the kernels_<backend>.cc stamp
// TUs; dispatch.cc references the ones CMake compiled in (guarded by
// the CRISC_HAVE_KERNELS_* definitions it sets).
const KernelTable &scalarKernelTable();
const KernelTable &avx2KernelTable();
const KernelTable &avx512KernelTable();
const KernelTable &neonKernelTable();

// Shared backend-independent dense implementation (kernels.cc); every
// table's applyDenseRange entry points here.
void applyDenseRangeShared(Complex *amps, std::size_t n_qubits,
                           const Matrix &op,
                           const std::vector<std::size_t> &qubits,
                           std::size_t group_begin, std::size_t group_end);

} // namespace detail

} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_DISPATCH_HH
