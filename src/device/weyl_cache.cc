#include "weyl_cache.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hh"

namespace crisc {
namespace device {

namespace {

/** splitmix64 finalizer over the three coordinate bit patterns. */
std::uint64_t
keyHash(double x, double y, double z)
{
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    std::uint64_t k = bits(x);
    k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL + bits(y);
    k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL + bits(z);
    k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
    k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL;
    return k ^ (k >> 31);
}

using Drive = double ashn::GateParams::*;

/**
 * The two drive fields sub-scheme @p s can set. The third is always
 * +0.0: ND and ND-EXT run without detuning, EA+ drives only the
 * symmetric slot (Omega2 = 0) and EA- only the antisymmetric one
 * (Omega1 = 0); the Identity sets none.
 */
std::array<Drive, 3>
drivesOf(ashn::SubScheme s)
{
    using ashn::GateParams;
    switch (s) {
      case ashn::SubScheme::EAPlus:
        return {&GateParams::omega1, &GateParams::delta,
                &GateParams::omega2};
      case ashn::SubScheme::EAMinus:
        return {&GateParams::omega2, &GateParams::delta,
                &GateParams::omega1};
      default:
        return {&GateParams::omega1, &GateParams::omega2,
                &GateParams::delta};
    }
}

} // namespace

WeylCache::WeylCache(double h, double r)
    : h_(detail::normZero(h)), r_(r)
{
    // A NaN h or r would poison every synthesis this cache runs; fail
    // at construction instead of on the first lookup.
    if (!std::isfinite(h) || !std::isfinite(r))
        throw std::invalid_argument(
            "WeylCache: non-finite ZZ ratio or drive cutoff");
}

std::uint32_t &
WeylCache::probe(double x, double y, double z) const
{
    // Load stays <= 7/8, so an empty slot always ends the probe.
    constexpr std::size_t mask = kSlots - 1;
    for (std::size_t i = keyHash(x, y, z) & mask;; i = (i + 1) & mask) {
        std::uint32_t &slot = index_[i];
        if (slot == 0)
            return slot;
        const Stored &e = entries_[slot - 1];
        if (e.x == x && e.y == y && e.z == z)
            return slot;
    }
}

ashn::GateParams
WeylCache::paramsOf(std::uint32_t entry) const
{
    const Stored &e = entries_[entry];
    ashn::GateParams p;
    p.scheme = static_cast<ashn::SubScheme>(schemes_[entry]);
    p.tau = e.tau;
    const auto drives = drivesOf(p.scheme);
    p.*drives[0] = e.a;
    p.*drives[1] = e.b;
    p.h = h_;
    return p;
}

void
WeylCache::insert(std::uint32_t &slot, double x, double y, double z,
                  const ashn::GateParams &p)
{
    const auto drives = drivesOf(p.scheme);
    if (std::bit_cast<std::uint64_t>(p.*drives[2]) != 0)
        throw std::logic_error(
            "WeylCache: sub-scheme set a drive the cache cannot store");
    std::uint32_t *s = &slot;
    if (size_ == kCapacity) {
        std::fill_n(index_.get(), kSlots, 0);
        size_ = 0;
        OBS_COUNT("weyl_cache.clears", 1);
        s = &probe(x, y, z);
    }
    entries_[size_] = {x, y, z, p.tau, p.*drives[0], p.*drives[1]};
    schemes_[size_] = static_cast<std::uint8_t>(p.scheme);
    *s = static_cast<std::uint32_t>(++size_);
    OBS_GAUGE("weyl_cache.entries", size_);
}

WeylCache::Entry
WeylCache::lookup(const weyl::WeylPoint &p)
{
    // A NaN coordinate can never match a stored key (NaN != NaN), so
    // every lookup of the same poisoned point would miss, synthesize
    // garbage, and insert a fresh entry. Fail fast instead; infinities
    // are equally unsynthesizable.
    for (const double v : {p.x, p.y, p.z})
        if (!std::isfinite(v))
            throw std::invalid_argument(
                "WeylCache::lookup: non-finite chamber coordinate");
    const double x = detail::normZero(p.x), y = detail::normZero(p.y),
                 z = detail::normZero(p.z);
    Entry e;
    bool hit = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (index_) {
            const std::uint32_t slot = probe(x, y, z);
            if (slot != 0) {
                ++hits_;
                OBS_COUNT("weyl_cache.hit", 1);
                e.params = paramsOf(slot - 1);
                hit = true;
            }
        }
    }
    if (hit) {
        e.pulse = ashn::realize(e.params);
        return e;
    }
    // Synthesize outside the lock; a raced duplicate computes the same
    // deterministic parameters and the first insert wins.
    {
        OBS_SPAN("weyl.synthesize");
        e.params = ashn::synthesize(p, h_, r_);
        e.pulse = ashn::realize(e.params);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    OBS_COUNT("weyl_cache.miss", 1);
    if (!index_) {
        index_ = std::make_unique<std::uint32_t[]>(kSlots);
        entries_ = std::make_unique_for_overwrite<Stored[]>(kCapacity);
        schemes_ =
            std::make_unique_for_overwrite<std::uint8_t[]>(kCapacity);
    }
    std::uint32_t &slot = probe(x, y, z);
    if (slot == 0)
        insert(slot, x, y, z, e.params);
    return e;
}

std::size_t
WeylCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return size_;
}

std::size_t
WeylCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::size_t
WeylCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

} // namespace device
} // namespace crisc
