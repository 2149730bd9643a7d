/**
 * @file
 * Statevector engine: compiles a circuit::Circuit into a plan of
 * specialized gate kernels before execution. Compilation
 *
 *   - fuses runs of adjacent single-qubit gates on the same qubit into
 *     one 2x2 kernel application (a Trotter layer of rz-rx-rz costs one
 *     sweep instead of three),
 *   - folds pending single-qubit products into a following two-qubit
 *     gate on the same qubits as one fused 2q x (1q (x) 1q) 4x4 kernel
 *     operand, so a 1q-dressed entangler costs a single quad sweep,
 *   - detects exactly-diagonal 1q/2q operators and lowers them to the
 *     phase-only kernels, and
 *   - lowers everything of width <= 2 to the strided pair/quad kernels
 *     in kernels.hh, leaving only k >= 3 gates on the generic dense
 *     path.
 *
 * A Plan is immutable after compile() and safe to execute from many
 * threads at once on distinct statevectors, which is what the
 * trajectory batch runner (batch.hh) does.
 *
 * Every sweep runs through the group-range kernels (kernels.hh): a
 * serial sweep is the range [0, groups), and with ExecOptions
 * (batch.hh) — the second, orthogonal parallel axis — the group index
 * space (pairs / quads / dense tuples — a group is never split, so
 * chunks touch disjoint amplitudes) splits into cache-line-aligned
 * chunks executed on a sim::ThreadPool. Chunked sweeps replay the
 * serial per-amplitude operation sequence exactly, so state-parallel
 * execution is bit-identical to serial execution for any thread count
 * and chunk size. Each execution driver (chunked sweep, blocked range,
 * blocked segment, plan loop) is written once over the state layout
 * and serves both the interleaved statevector and the SoA BatchState.
 *
 * Plan-level execution additionally supports a cache-blocked mode
 * (ExecOptions::blockQubits, see sim/cache.hh for the auto policy):
 * the ops are partitioned into maximal *blockable segments* — runs of
 * consecutive ops whose target index bits all lie below a block
 * exponent b (in this library's convention, qubit q addresses index
 * bit n-1-q, so an op is blockable when every target qubit q
 * satisfies n-1-q < b) — and each blockable segment inverts the loop
 * nest: the 2^(n-b) contiguous amplitude blocks of 2^b amplitudes
 * form the outer loop, and *all* of the segment's ops are applied to
 * one block (L2-resident) before the next, instead of one full-
 * register DRAM stream per op. A blockable op never couples
 * amplitudes across a block boundary and every amplitude still sees
 * the segment's ops in plan order with the serial per-amplitude IEEE
 * sequence, so blocked execution is bit-identical to every other
 * backend; blocks are the parallel granule (blocks across pool
 * threads), and the mode composes with SoA-batched lanes
 * (executeBatched).
 */

#ifndef CRISC_SIM_ENGINE_HH
#define CRISC_SIM_ENGINE_HH

#include <array>
#include <cstddef>
#include <vector>

#include "circuit/circuit.hh"
#include "sim/batch.hh"
#include "sim/batch_state.hh"
#include "sim/kernels.hh"

namespace crisc {
namespace sim {

/** Which kernel a compiled operation dispatches to. */
enum class KernelKind
{
    OneQ,     ///< dense 2x2 via apply1q.
    OneQDiag, ///< diagonal 2x2 via apply1qDiag.
    TwoQ,     ///< dense 4x4 via apply2q.
    TwoQDiag, ///< diagonal 4x4 via apply2qDiag.
    Dense,    ///< generic k >= 3 gate via applyDense.
};

/** One lowered operation of a compiled plan. */
struct KernelOp
{
    KernelKind kind = KernelKind::OneQ;
    std::size_t q0 = 0; ///< most significant gate qubit.
    std::size_t q1 = 0; ///< second gate qubit (TwoQ / TwoQDiag only).
    /** 1q kernels use m[0..3]; 2q uses m[0..15]; diag kernels use the
     *  leading 2 or 4 entries as the diagonal. */
    std::array<Complex, 16> m{};
    Matrix dense;                     ///< Dense fallback operator.
    std::vector<std::size_t> qubits;  ///< Dense fallback qubit list.
};

/** Compilation statistics, reported by benchmarks and tests. */
struct PlanStats
{
    std::size_t sourceGates = 0; ///< gates in the input circuit.
    std::size_t kernelOps = 0;   ///< operations after lowering.
    std::size_t fusedGates = 0;  ///< 1q gates absorbed into a neighbour.
    std::size_t fusedInto2q = 0; ///< pending 1q products folded into a 4x4.
    std::size_t diagOps = 0;     ///< ops lowered to a diagonal kernel.
    std::size_t denseOps = 0;    ///< ops left on the generic path.
    /** Blockable segments at the plan's auto block exponent
     *  (autoBlockQubits(n), cache.hh) — informational; execution
     *  re-partitions for whatever exponent it resolves. */
    std::size_t blockedSegments = 0;
    /** Ops inside those blockable segments. */
    std::size_t blockableOps = 0;
    /** Shard-crossing ops lowered to pairwise amplitude exchanges by
     *  the shard pass (compileSharded, shard.hh); 0 for unsharded
     *  plans. */
    std::size_t exchangeOps = 0;
    /** Qubit-permutation remap steps emitted by the shard pass,
     *  including the closing remaps that restore the canonical
     *  layout; 0 for unsharded plans. */
    std::size_t remapOps = 0;
};

/**
 * One maximal run of consecutive plan ops sharing blockability at a
 * given block exponent (blockSegments). Segments tile the op sequence
 * in order: non-blockable segments execute as full-register sweeps
 * and act as barriers between the blocked loop nests on either side.
 */
struct BlockSegment
{
    std::size_t first = 0;   ///< index of the segment's first op.
    std::size_t count = 0;   ///< ops in the segment.
    bool blockable = false;  ///< all ops confined to 2^b-sized blocks.
};

/** Options for compile(). */
struct CompileOptions
{
    bool fuseSingleQubit = true; ///< merge adjacent 1q gates per qubit.
    /**
     * Fold pending 1q products into a following 2q gate on the same
     * qubits: the quad kernel then applies m2q * (u_hi (x) u_lo) in one
     * sweep. Only has effect while fuseSingleQubit keeps 1q products
     * pending.
     */
    bool fuseTwoQubit = true;
};

/** An executable, immutable kernel plan for a fixed register width. */
class Plan
{
  public:
    Plan(std::size_t num_qubits, std::vector<KernelOp> ops,
         PlanStats stats);

    std::size_t numQubits() const { return nQubits_; }
    std::size_t dim() const { return std::size_t{1} << nQubits_; }
    const std::vector<KernelOp> &ops() const { return ops_; }
    const PlanStats &stats() const { return stats_; }

    /**
     * Per-op blocking metadata: entry i is the smallest block exponent
     * at which op i is blockable — one past its highest target index
     * bit, i.e. n - min(target qubits). Op i is confined to contiguous
     * 2^b-amplitude blocks exactly when minBlockBits()[i] <= b.
     */
    const std::vector<std::size_t> &minBlockBits() const
    {
        return minBlockBits_;
    }

    /**
     * Executes the plan in place on a 2^n statevector, state-parallel
     * and/or cache-blocked per @p opts (serial unblocked by default at
     * narrow widths; bit-identical every way).
     */
    void execute(Complex *amps, const ExecOptions &opts = {}) const;

  private:
    std::size_t nQubits_;
    std::vector<KernelOp> ops_;
    std::vector<std::size_t> minBlockBits_;
    PlanStats stats_;
};

/**
 * Partitions @p plan's op sequence into maximal segments of uniform
 * blockability at block exponent @p block_qubits (in [1, n]); the
 * segments tile [0, ops) in order. An empty plan yields no segments.
 * @throws std::invalid_argument when block_qubits is 0 or exceeds the
 *         plan width.
 */
std::vector<BlockSegment> blockSegments(const Plan &plan,
                                        std::size_t block_qubits);

/** Compiles a circuit into a kernel plan. */
Plan compile(const circuit::Circuit &c, const CompileOptions &opts = {});

/** Executes one lowered operation in place. */
void executeOp(const KernelOp &op, Complex *amps, std::size_t n_qubits);

/**
 * Executes one lowered operation, partitioning its sweep over
 * opts.pool (see ExecOptions). Serial — identical to the two-argument
 * form — when no pool is set, the pool has one thread, or the sweep is
 * too small to be worth forking.
 */
void executeOp(const KernelOp &op, Complex *amps, std::size_t n_qubits,
               const ExecOptions &opts);

/** Amplitude groups in @p op's sweep on an n-qubit register. */
std::size_t opGroupCount(const KernelOp &op, std::size_t n_qubits);

/** Executes a plan in place on a 2^n statevector. */
void execute(const Plan &plan, Complex *amps);

/**
 * Executes a plan in place per @p opts. Sharded first when
 * opts.shardBits resolves to shards (shard.hh); otherwise cache-
 * blocked when opts.blockQubits resolves to a block exponent
 * (resolveBlockQubits, cache.hh — auto-on from kAutoBlockFromWidth
 * qubits), with each sweep state-parallel over opts.pool. When
 * opts.pool is unset and opts.threads != 1, one transient pool serves
 * the whole plan execution. Results are bit-identical every way.
 *
 * Cache-blocked execution partitions the ops into blockable segments
 * (blockSegments) and, for each blockable segment, iterates the
 * 2^(n-b) contiguous amplitude blocks in the outer loop, applying all
 * of the segment's ops to one L2-resident block before the next.
 * Non-blockable segments run as ordinary full-register sweeps. Blocks
 * are independent within a segment, so a pool partitions the block
 * axis.
 */
void execute(const Plan &plan, Complex *amps, const ExecOptions &opts);

/**
 * Cache-blocked execution at block exponent @p block_qubits, never
 * sharded and blind to opts.blockQubits and opts.shardBits: the entry
 * the sharded executor runs each shard's slice through, so it cannot
 * recurse into sharding. Otherwise as execute().
 * @throws std::invalid_argument when block_qubits is 0 or exceeds the
 *         plan width (resolveBlockQubits clamps the user-facing knob
 *         before it reaches here).
 */
void executeBlocked(const Plan &plan, Complex *amps,
                    std::size_t block_qubits,
                    const ExecOptions &opts = {});

/**
 * Executes ops [op_begin, op_end) of @p plan — which must all be
 * blockable at @p block_qubits — over amplitude blocks
 * [block_begin, block_end) of the 2^(n - block_qubits) total, with
 * the block-outer loop nest; the blocked parallel substrate, exported
 * for the equivalence tests.
 * @throws std::invalid_argument on an op that is not blockable at
 *         @p block_qubits or an out-of-range op/block interval.
 */
void executeBlockedRange(const Plan &plan, std::size_t op_begin,
                         std::size_t op_end, Complex *amps,
                         std::size_t block_qubits,
                         std::size_t block_begin, std::size_t block_end);

// ---------------------------------------------------------------------
// Batched (SoA) execution: the third parallel axis. One plan is applied
// to every lane of a sim::BatchState at once; the batched kernels run
// SIMD lanes across the trajectory axis while replaying each lane's
// serial per-amplitude operation sequence, so lane t after
// executeBatched is bit-identical to executing the plan serially on
// statevector t. Composes with state-parallel chunking: the group axis
// partitions exactly as in executeOp, a group (all its lanes) is never
// split.
// ---------------------------------------------------------------------

/** Executes one lowered operation on every lane of a batch. */
void executeOpBatched(const KernelOp &op, BatchState &batch);

/**
 * Batched executeOp with state-parallel sweeps per @p opts. Serial when
 * no pool is set, the pool has one thread, or the sweep is too small
 * (the cutoff scales down with the lane count).
 */
void executeOpBatched(const KernelOp &op, BatchState &batch,
                      const ExecOptions &opts);

/**
 * execute() on every lane of a batch: the same sharding, cache-blocking
 * and state-parallel choices per @p opts, with each group's lanes
 * advanced together by the batched range kernels. Every lane is
 * bit-identical to executing the plan serially on that lane's
 * statevector, for every block exponent, thread count, and lane count.
 * @throws std::invalid_argument when the batch width does not match the
 *         plan width.
 */
void executeBatched(const Plan &plan, BatchState &batch,
                    const ExecOptions &opts = {});

/** Executes a plan on |0...0> and returns the resulting statevector. */
linalg::CVector run(const Plan &plan);

/** run with state-parallel sweeps per @p opts. */
linalg::CVector run(const Plan &plan, const ExecOptions &opts);

} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_ENGINE_HH
