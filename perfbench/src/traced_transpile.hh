/**
 * @file
 * Traced replica of transpile::transpile onto an AshN device. It runs
 * the same passes and the same AshNGateSet::lower steps as the library
 * pipeline, one public call at a time with a span around each, so a
 * traced run can split native lowering into Weyl coordinates, cache
 * lookup, synthesis, pulse realization and the single-qubit compile.
 *
 * The Weyl memo mirrors device::WeylCache (keyed on the exact
 * coordinate bits, -0.0 folded to +0.0). The library cache synthesizes
 * inside WeylCache::lookup, where no span placed outside the library
 * can separate synthesis from the lookup itself. sameResult() checks
 * that the replica's output is bit-identical to the library's.
 */

#ifndef PERFBENCH_TRACED_TRANSPILE_HH
#define PERFBENCH_TRACED_TRANSPILE_HH

#include <cstddef>
#include <unordered_map>

#include "bench.hh"
#include "device/device.hh"
#include "transpile/transpile.hh"

namespace perfbench {

class TracedTranspiler
{
  public:
    /** @throws std::invalid_argument unless @p dev lowers to AshN. */
    TracedTranspiler(const crisc::device::Device &dev, Tracer &tracer);

    /** transpile::transpile(logical, {.device = &dev}), traced. */
    crisc::transpile::TranspileResult run(
        const crisc::circuit::Circuit &logical);

    std::size_t hits() const { return hits_; }
    std::size_t misses() const { return misses_; }
    std::size_t entries() const { return memo_.size(); }
    /** SWAPs the Route pass inserted, over all runs. */
    std::size_t swaps() const { return swaps_; }

  private:
    struct Key
    {
        double x, y, z;
        bool operator==(const Key &) const = default;
    };
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const;
    };

    crisc::circuit::Circuit lowerCircuit(const crisc::circuit::Circuit &in,
                                         crisc::transpile::PassContext &ctx);
    crisc::device::Lowered2q lower(const crisc::linalg::Matrix &u);

    const crisc::device::Device &dev_;
    Tracer &tracer_;
    double h_, r_;
    std::unordered_map<Key, crisc::device::WeylCache::Entry, KeyHash> memo_;
    std::size_t hits_ = 0, misses_ = 0, swaps_ = 0;
};

/** True when two transpile results are bit-identical: output gates,
 *  pulse schedule, counters and final layout. */
bool sameResult(const crisc::transpile::TranspileResult &a,
                const crisc::transpile::TranspileResult &b);

} // namespace perfbench

#endif // PERFBENCH_TRACED_TRANSPILE_HH
