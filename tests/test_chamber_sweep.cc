/**
 * @file
 * Deterministic Weyl-chamber sweep of ashn::synthesize (slow label):
 * every point of chamber_sweep.hh — interior lattice, faces, edges,
 * corners and their epsilon-perturbations — under every ZZ ratio of
 * kSweepZZRatios must synthesize without a throw, realize its class to
 * a chamber distance of 1e-5, and take the optimal time to 1e-7.
 * Also fills a device::WeylCache to its full capacity, which takes
 * tens of thousands of syntheses.
 */

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "ashn/scheme.hh"
#include "chamber_sweep.hh"
#include "device/weyl_cache.hh"
#include "weyl/optimal_time.hh"
#include "weyl/weyl.hh"

namespace {

using namespace crisc;

class ChamberSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ChamberSweep, EveryPointSynthesizesAtOptimalTime)
{
    const double h = GetParam();
    const auto points = testutil::chamberSweepPoints();
    ASSERT_GT(points.size(), 400u);
    for (const weyl::WeylPoint &target : points) {
        const auto where = ::testing::Message()
                           << "h=" << h << " target=(" << target.x << ", "
                           << target.y << ", " << target.z << ")";
        ashn::GateParams p;
        try {
            p = ashn::synthesize(target, h, 0.0);
        } catch (const std::runtime_error &e) {
            ADD_FAILURE() << where << ": " << e.what();
            continue;
        }
        EXPECT_LE(weyl::chamberDistance(
                      weyl::weylCoordinates(ashn::realize(p)), target),
                  1e-5)
            << where;
        EXPECT_NEAR(p.tau, weyl::optimalTime(target, h), 1e-7) << where;
    }
}

INSTANTIATE_TEST_SUITE_P(ZZRatios, ChamberSweep,
                         ::testing::ValuesIn(testutil::kSweepZZRatios));

TEST(WeylCache, ClearsWhenFullSoMemoryStaysBounded)
{
    // kCapacity distinct points fill the table; the next distinct point
    // clears it first. Every lookup still counts as one hit or miss.
    // The points (x, y, 0) with x > y take the closed-form ND scheme.
    constexpr std::size_t kCapacity = device::WeylCache::kCapacity;
    constexpr std::size_t side = 240;
    static_assert(side * side > kCapacity);
    const auto point = [](std::size_t i) {
        return weyl::WeylPoint{0.4 + 0.35 * double(i / side) / side,
                               0.3 * double(i % side) / side, 0.0};
    };
    device::WeylCache cache(0.0, 0.0);
    for (std::size_t i = 0; i < kCapacity; ++i)
        cache.lookup(point(i));
    EXPECT_EQ(cache.size(), kCapacity);
    EXPECT_EQ(cache.misses(), kCapacity);
    cache.lookup(point(3));
    EXPECT_EQ(cache.hits(), 1u);
    cache.lookup(point(kCapacity));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.misses(), kCapacity + 1);
    cache.lookup(point(kCapacity));
    cache.lookup(point(3)); // cleared: synthesized again
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), kCapacity + 2);
    EXPECT_EQ(cache.size(), 2u);
}

} // namespace
