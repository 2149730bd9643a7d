/**
 * @file
 * Specialized statevector gate kernels. These are the innermost loops of
 * every simulation workload in the library (quantum volume, synthesis
 * verification, the example applications), so they trade the generic
 * k-qubit scatter/gather of the original simulator for dedicated 1- and
 * 2-qubit routines with bit-twiddled strided indexing: amplitude pairs
 * (1q) and quads (2q) are enumerated in ascending memory order with no
 * per-group index buffers, and diagonal gates touch each amplitude once.
 *
 * The top-level sim::apply* entry points below are thin wrappers over a
 * runtime-dispatched kernel table: every binary carries one compiled
 * kernel set per SIMD backend the compiler could build (scalar always;
 * AVX2/AVX-512 on x86-64; NEON on aarch64), and src/sim/dispatch.hh
 * picks among them once per process — by CPU probe, or forced via the
 * CRISC_SIMD_DISPATCH environment variable. Each backend's kernels run
 * split-complex SIMD inner loops whenever the addressed contiguous run
 * is at least one vector wide and fall back to the scalar reference
 * kernels in sim::scalar otherwise. The SIMD lanes execute exactly the
 * scalar operation sequence, so every backend produces bit-identical
 * results for finite amplitudes; tests and the benchmark runner pin
 * this equivalence per selectable backend, and benchmarks report the
 * speedup against the sim::scalar baseline.
 *
 * Every kernel sweep enumerates an independent *group* per iteration —
 * an amplitude pair (1q), quad (2q), or 2^k-tuple (dense) — and groups
 * never share amplitudes, so a sweep partitions freely along the group
 * axis. The *Range variants below execute one sub-interval [g0, g1) of
 * that group index space with the exact per-amplitude operation
 * sequence of the sim::scalar full-sweep references: any partition of
 * [0, groups) reassembles the full sweep bit for bit. The range form
 * is the only dispatched form of the dense and diagonal 1q/2q kernels
 * — the full-sweep wrappers below run it over [0, groups) — and the
 * state-parallel execution path in engine.hh partitions it (a group
 * is never split across chunks, so no two chunks touch the same
 * amplitude). Cache-blocked plan execution (engine.hh) reuses the
 * same contract: when an op's targets all address index bits below a
 * block exponent b, the groups of one 2^b-amplitude block form the
 * contiguous range [block * 2^(b-k), (block + 1) * 2^(b-k)), so the
 * *Range kernels serve as the per-block substrate unchanged.
 *
 * Conventions match the rest of the library: qubit 0 is the most
 * significant bit of a basis index, and a k-qubit operator's basis is
 * |q[0] q[1] ... q[k-1]> with q[0] the most significant gate qubit.
 * All matrices are row-major.
 */

#ifndef CRISC_SIM_KERNELS_HH
#define CRISC_SIM_KERNELS_HH

#include <cstddef>
#include <vector>

#include "linalg/matrix.hh"

namespace crisc {
namespace sim {

using linalg::Complex;
using linalg::Matrix;

/**
 * Name of the runtime-resolved SIMD backend serving this process
 * ("scalar", "avx2", "avx512", or "neon"); recorded by the benchmark
 * runner. Alias for sim::backendName() in dispatch.hh.
 */
const char *simdBackendName();

/** Complex lanes per SIMD vector of the resolved backend (8 for
 *  AVX-512, 4 for AVX2, 2 for NEON, 1 scalar). */
std::size_t simdLanes();

/**
 * Scalar reference kernels. These are the original, non-vectorized
 * loops; the SIMD top-level kernels must match them bit for bit on
 * finite inputs. Exported for equivalence tests and as the benchmark
 * runner's speedup baseline.
 */
namespace scalar {

void apply1q(Complex *amps, std::size_t n_qubits, std::size_t qubit,
             const Complex m[4]);
void apply1qDiag(Complex *amps, std::size_t n_qubits, std::size_t qubit,
                 Complex d0, Complex d1);
void applyPauli(Complex *amps, std::size_t n_qubits, std::size_t qubit,
                std::size_t pauli_index);
void apply2q(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
             std::size_t q_lo, const Complex m[16]);
void apply2qDiag(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
                 std::size_t q_lo, const Complex d[4]);

// Batched (trajectory-major SoA) references: @p batch lanes of each
// amplitude stored contiguously in split re/im arrays (lane t of
// amplitude i at re[i * batch + t]; see batch_state.hh). Same
// per-amplitude operation sequence as the interleaved kernels above,
// applied to every lane.

/** Batched apply1q over all pairs and lanes. */
void apply1qBatch(double *re, double *im, std::size_t n_qubits,
                  std::size_t batch, std::size_t qubit, const Complex m[4]);
/** Batched apply1qDiag. */
void apply1qDiagBatch(double *re, double *im, std::size_t n_qubits,
                      std::size_t batch, std::size_t qubit, Complex d0,
                      Complex d1);
/** Batched applyPauli (the same Pauli on every lane). */
void applyPauliBatch(double *re, double *im, std::size_t n_qubits,
                     std::size_t batch, std::size_t qubit,
                     std::size_t pauli_index);
/** Batched apply2q. */
void apply2qBatch(double *re, double *im, std::size_t n_qubits,
                  std::size_t batch, std::size_t q_hi, std::size_t q_lo,
                  const Complex m[16]);
/** Batched apply2qDiag. */
void apply2qDiagBatch(double *re, double *im, std::size_t n_qubits,
                      std::size_t batch, std::size_t q_hi,
                      std::size_t q_lo, const Complex d[4]);
/** Batched applyDense. */
void applyDenseBatch(double *re, double *im, std::size_t n_qubits,
                     std::size_t batch, const Matrix &op,
                     const std::vector<std::size_t> &qubits);

/** Pair-range form of apply1q: pairs [pair_begin, pair_end). */
void apply1qRange(Complex *amps, std::size_t n_qubits, std::size_t qubit,
                  const Complex m[4], std::size_t pair_begin,
                  std::size_t pair_end);
/** Pair-range form of apply1qDiag. */
void apply1qDiagRange(Complex *amps, std::size_t n_qubits,
                      std::size_t qubit, Complex d0, Complex d1,
                      std::size_t pair_begin, std::size_t pair_end);
/** Quad-range form of apply2q: quads [quad_begin, quad_end). */
void apply2qRange(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
                  std::size_t q_lo, const Complex m[16],
                  std::size_t quad_begin, std::size_t quad_end);
/** Quad-range form of apply2qDiag. */
void apply2qDiagRange(Complex *amps, std::size_t n_qubits,
                      std::size_t q_hi, std::size_t q_lo,
                      const Complex d[4], std::size_t quad_begin,
                      std::size_t quad_end);

} // namespace scalar

/** Applies a 2x2 gate m (row-major m[0..3]) to one qubit in place. */
void apply1q(Complex *amps, std::size_t n_qubits, std::size_t qubit,
             const Complex m[4]);

/** Diagonal 1-qubit fast path: multiplies by diag(d0, d1). */
void apply1qDiag(Complex *amps, std::size_t n_qubits, std::size_t qubit,
                 Complex d0, Complex d1);

/**
 * Applies the Pauli with index 1..3 = X, Y, Z to one qubit. Pure
 * swap/phase traffic — no complex multiplies — which makes stochastic
 * Pauli noise nearly free next to gate application.
 */
void applyPauli(Complex *amps, std::size_t n_qubits, std::size_t qubit,
                std::size_t pauli_index);

/**
 * Applies a 4x4 gate m (row-major m[0..15]) to the ordered qubit pair
 * (q_hi, q_lo), where q_hi is the most significant gate qubit.
 */
void apply2q(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
             std::size_t q_lo, const Complex m[16]);

/** Diagonal 2-qubit fast path: multiplies by diag(d[0..3]). */
void apply2qDiag(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
                 std::size_t q_lo, const Complex d[4]);

/**
 * Generic dense k-qubit apply (the original simulator algorithm), kept
 * as the fallback for k >= 3 gates, which only tests and the exact-
 * evolution examples use.
 */
void applyDense(Complex *amps, std::size_t n_qubits, const Matrix &op,
                const std::vector<std::size_t> &qubits);

// ---------------------------------------------------------------------
// Group-range kernels: the execution substrate of every sweep. Each
// runs the sub-interval [g0, g1) of the sweep's group index space —
// pairs for 1q, quads for 2q, 2^k-tuples for dense — with the same
// per-amplitude operation sequence as the scalar full-sweep reference,
// so the sweep over any partition of [0, groups) is bit-identical to
// it. Group g addresses the g-th pair/quad/tuple in
// ascending base-index order; a group is never split, so disjoint
// ranges touch disjoint amplitudes.
// ---------------------------------------------------------------------

/** apply1q restricted to amplitude pairs [pair_begin, pair_end). */
void apply1qRange(Complex *amps, std::size_t n_qubits, std::size_t qubit,
                  const Complex m[4], std::size_t pair_begin,
                  std::size_t pair_end);

/** apply1qDiag restricted to amplitude pairs [pair_begin, pair_end). */
void apply1qDiagRange(Complex *amps, std::size_t n_qubits,
                      std::size_t qubit, Complex d0, Complex d1,
                      std::size_t pair_begin, std::size_t pair_end);

/** apply2q restricted to amplitude quads [quad_begin, quad_end). */
void apply2qRange(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
                  std::size_t q_lo, const Complex m[16],
                  std::size_t quad_begin, std::size_t quad_end);

/** apply2qDiag restricted to amplitude quads [quad_begin, quad_end). */
void apply2qDiagRange(Complex *amps, std::size_t n_qubits,
                      std::size_t q_hi, std::size_t q_lo,
                      const Complex d[4], std::size_t quad_begin,
                      std::size_t quad_end);

/**
 * applyDense restricted to groups [group_begin, group_end) of the
 * dim >> k amplitude groups, in the same ascending-base order the full
 * kernel visits them.
 */
void applyDenseRange(Complex *amps, std::size_t n_qubits, const Matrix &op,
                     const std::vector<std::size_t> &qubits,
                     std::size_t group_begin, std::size_t group_end);

// ---------------------------------------------------------------------
// Batched (trajectory-major SoA) kernels: @p batch lanes of every
// amplitude stored contiguously in split re/im arrays (batch_state.hh),
// so the SIMD vectors below run across trajectories — whole vectors at
// a time, plus a scalar tail covering batch % lanes — instead of across
// amplitudes. Every lane replays the per-amplitude IEEE operation
// sequence of the serial kernels above (including their stride-
// dependent negation flavour for Pauli Y/Z), so lane t of a batched
// sweep is bit-identical to running the serial kernel on statevector t
// alone. The *BatchRange forms partition the same group axis as the
// interleaved *Range kernels — a group (all its lanes) is never split.
// ---------------------------------------------------------------------

/** apply1qBatch restricted to amplitude pairs [pair_begin, pair_end). */
void apply1qBatchRange(double *re, double *im, std::size_t n_qubits,
                       std::size_t batch, std::size_t qubit,
                       const Complex m[4], std::size_t pair_begin,
                       std::size_t pair_end);

/** apply1qDiagBatch restricted to pairs [pair_begin, pair_end). */
void apply1qDiagBatchRange(double *re, double *im, std::size_t n_qubits,
                           std::size_t batch, std::size_t qubit,
                           Complex d0, Complex d1, std::size_t pair_begin,
                           std::size_t pair_end);

/** applyPauliBatch restricted to pairs [pair_begin, pair_end). */
void applyPauliBatchRange(double *re, double *im, std::size_t n_qubits,
                          std::size_t batch, std::size_t qubit,
                          std::size_t pauli_index, std::size_t pair_begin,
                          std::size_t pair_end);

/** apply2qBatch restricted to amplitude quads [quad_begin, quad_end). */
void apply2qBatchRange(double *re, double *im, std::size_t n_qubits,
                       std::size_t batch, std::size_t q_hi,
                       std::size_t q_lo, const Complex m[16],
                       std::size_t quad_begin, std::size_t quad_end);

/** apply2qDiagBatch restricted to quads [quad_begin, quad_end). */
void apply2qDiagBatchRange(double *re, double *im, std::size_t n_qubits,
                           std::size_t batch, std::size_t q_hi,
                           std::size_t q_lo, const Complex d[4],
                           std::size_t quad_begin, std::size_t quad_end);

/** applyDenseBatch restricted to groups [group_begin, group_end). */
void applyDenseBatchRange(double *re, double *im, std::size_t n_qubits,
                          std::size_t batch, const Matrix &op,
                          const std::vector<std::size_t> &qubits,
                          std::size_t group_begin, std::size_t group_end);

/** Full-sweep forms of the *BatchRange kernels above. */
void apply1qBatch(double *re, double *im, std::size_t n_qubits,
                  std::size_t batch, std::size_t qubit, const Complex m[4]);
void apply1qDiagBatch(double *re, double *im, std::size_t n_qubits,
                      std::size_t batch, std::size_t qubit, Complex d0,
                      Complex d1);
void applyPauliBatch(double *re, double *im, std::size_t n_qubits,
                     std::size_t batch, std::size_t qubit,
                     std::size_t pauli_index);
void apply2qBatch(double *re, double *im, std::size_t n_qubits,
                  std::size_t batch, std::size_t q_hi, std::size_t q_lo,
                  const Complex m[16]);
void apply2qDiagBatch(double *re, double *im, std::size_t n_qubits,
                      std::size_t batch, std::size_t q_hi, std::size_t q_lo,
                      const Complex d[4]);
void applyDenseBatch(double *re, double *im, std::size_t n_qubits,
                     std::size_t batch, const Matrix &op,
                     const std::vector<std::size_t> &qubits);

/**
 * Applies a Pauli to a single lane of a batch — the divergence point of
 * batched trajectory execution (each lane samples its own noise).
 * Bit-identical to sim::applyPauli on that lane's statevector.
 */
void applyPauliLane(double *re, double *im, std::size_t n_qubits,
                    std::size_t batch, std::size_t lane, std::size_t qubit,
                    std::size_t pauli_index);

/**
 * True when every off-diagonal entry of the square matrix is exactly
 * zero — the criterion under which applyGate and the plan compiler
 * lower a gate to a diagonal kernel.
 */
bool exactlyDiagonal(const Matrix &op);

/**
 * Dispatching entry point: routes k = 1 and k = 2 gates to the
 * specialized kernels (detecting exactly-diagonal operators) and larger
 * gates to applyDense. Callers must have validated sizes and indices.
 */
void applyGate(Complex *amps, std::size_t n_qubits, const Matrix &op,
               const std::vector<std::size_t> &qubits);

} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_KERNELS_HH
