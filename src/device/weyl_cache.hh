/**
 * @file
 * Memoized Weyl-decomposition cache: canonical chamber coordinates map
 * to the synthesized AshN pulse parameters, so repeated gate classes
 * (Trotter bonds, CNOTs, SWAPs) pay for ashn::synthesize once. The ZZ
 * ratio h and the cutoff r are bound at construction. Thread-safe;
 * shared across a batch via the gate-set instance that owns it.
 *
 * Layout: entries are stored densely in insertion order, 48 bytes
 * each — the key (the three coordinates) and the solved parameters
 * (tau and the two drives the sub-scheme can set; the third is always
 * zero), with the sub-scheme in a parallel byte array — behind an
 * open-addressed (linear probing) index of kSlots 32-bit entry
 * numbers. The 4x4 pulse is not stored: lookup() rebuilds it with
 * ashn::realize on every call (deterministic, so bit-identical to the
 * pulse built on the miss). The arrays are allocated at the first
 * insert; only the index (256 KiB) is zeroed, the entry pages are
 * touched as entries arrive. The cache holds at most kCapacity = 7/8
 * of its index slots, 57,344 entries in 2.9 MiB; an insert into a full
 * cache clears it first, so memory stays bounded in long-running
 * processes. The entries are packed rather than one 64-byte struct
 * holding all three drives: a full cache is then 0.9 MiB smaller,
 * about a tenth of a synthesis-bound process's peak memory.
 *
 * Keys use the exact coordinate bits — only bit-identical chamber
 * points share an entry, so memoization never perturbs results. Two
 * guarded edge cases: -0.0 is normalized to +0.0 in the coordinates
 * (the bit-pattern hash would otherwise disagree with ==) and in h
 * (which every result carries), and non-finite values are rejected
 * with std::invalid_argument (a NaN key can never equal itself, so
 * each lookup would insert a fresh entry).
 */

#ifndef CRISC_DEVICE_WEYL_CACHE_HH
#define CRISC_DEVICE_WEYL_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "ashn/scheme.hh"
#include "linalg/matrix.hh"
#include "weyl/weyl.hh"

namespace crisc {
namespace device {
namespace detail {

/** Normalizes -0.0 so cache-key equality and hashing agree. */
inline double
normZero(double v)
{
    return v == 0.0 ? 0.0 : v;
}

/** boost-style hash combine for double-tuple cache keys. */
inline std::size_t
hashCombine(std::size_t seed, double v)
{
    return seed ^ (std::hash<double>{}(v) + 0x9e3779b97f4a7c15ULL +
                   (seed << 6) + (seed >> 2));
}

} // namespace detail

class WeylCache
{
  public:
    struct Entry
    {
        ashn::GateParams params;
        linalg::Matrix pulse;  ///< ashn::realize(params).
    };

    /** Index slots; the load stays <= 7/8. */
    static constexpr std::size_t kSlots = std::size_t{1} << 16;
    /** Entries the table holds before an insert clears it. */
    static constexpr std::size_t kCapacity = kSlots / 8 * 7;

    /**
     * @param h ZZ coupling ratio every lookup synthesizes for.
     * @param r drive cutoff every lookup synthesizes for.
     * @throws std::invalid_argument if h or r is NaN or infinite.
     */
    WeylCache(double h, double r);

    /**
     * Returns the entry for chamber point @p p, synthesizing on miss.
     * @throws std::invalid_argument if any coordinate is NaN or
     *         infinite.
     */
    Entry lookup(const weyl::WeylPoint &p);

    std::size_t size() const;
    std::size_t hits() const;
    std::size_t misses() const;

  private:
    struct Stored
    {
        double x, y, z;
        double tau, a, b; ///< the sub-scheme's two free drives.
    };

    /** The index slot holding (x, y, z), or the empty slot it would
     *  take; a slot holds 1 + the entry number, 0 when empty. */
    std::uint32_t &probe(double x, double y, double z) const;
    ashn::GateParams paramsOf(std::uint32_t entry) const;
    void insert(std::uint32_t &slot, double x, double y, double z,
                const ashn::GateParams &p);

    double h_, r_;
    mutable std::mutex mutex_;
    std::unique_ptr<std::uint32_t[]> index_;
    std::unique_ptr<Stored[]> entries_;
    std::unique_ptr<std::uint8_t[]> schemes_;
    std::size_t size_ = 0;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
};

} // namespace device
} // namespace crisc

#endif // CRISC_DEVICE_WEYL_CACHE_HH
