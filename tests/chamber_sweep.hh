/**
 * @file
 * The deterministic Weyl-chamber sweep shared by the slow synthesis
 * test (test_chamber_sweep) and bench_runner's synth family: an
 * interior lattice that includes the faces x = y, y = |z|, z = 0 and
 * x = pi/4 and the edges between them, the chamber's corners and
 * special classes, and epsilon-perturbations of each corner, edge
 * midpoint and face centre. Every point is canonical.
 */

#ifndef CRISC_TESTS_CHAMBER_SWEEP_HH
#define CRISC_TESTS_CHAMBER_SWEEP_HH

#include <cmath>
#include <vector>

#include "weyl/weyl.hh"

namespace crisc {
namespace testutil {

/** ZZ ratios the sweep covers. */
inline const std::vector<double> kSweepZZRatios = {0.0,  0.1, -0.1, 0.5,
                                                   -0.5, 0.8, -0.8};

/** The sweep's chamber points, in a fixed order. */
inline std::vector<crisc::weyl::WeylPoint>
chamberSweepPoints()
{
    using weyl::WeylPoint;
    constexpr double q = M_PI / 4.0;
    std::vector<WeylPoint> pts;

    // Lattice of spacing pi/24: i = j is the face x = y, |k| = j the
    // faces y = |z|, k = 0 the plane z = 0, i = 6 the face x = pi/4
    // (where z >= 0 is canonical); their intersections are the edges.
    constexpr int n = 6;
    for (int i = 1; i <= n; ++i)
        for (int j = 0; j <= i; ++j)
            for (int k = -j; k <= j; ++k) {
                if (i == n && k < 0)
                    continue;
                pts.push_back({q * i / n, q * j / n, q * k / n});
            }

    // Corners (CNOT, iSWAP, SWAP and its x = pi/4 mirror image), the B
    // gate, edge midpoints and face centres, each perturbed below.
    const std::vector<WeylPoint> anchors = {
        {q, 0.0, 0.0},                // CNOT
        {q, q, 0.0},                  // iSWAP
        {q, q, q},                    // SWAP
        {q, q, -q},                   // SWAP, mirrored
        {q, q / 2.0, 0.0},            // B
        {q / 2.0, 0.0, 0.0},          // edge y = z = 0
        {q / 2.0, q / 2.0, q / 2.0},  // edge x = y = z
        {q / 2.0, q / 2.0, -q / 2.0}, // edge x = y = -z
        {q, q / 2.0, q / 2.0},        // edge x = pi/4, y = z
        {q, q, q / 2.0},              // edge x = y = pi/4
        {0.6, 0.6, 0.3},              // face x = y
        {0.7, 0.4, 0.4},              // face y = z
        {0.7, 0.4, -0.4},             // face y = -z
        {q, 0.5, 0.2},                // face x = pi/4
    };
    // Axis steps, plus two skewed inward steps (y moves a quarter as
    // far as z) of the kind that realizes a rounding error off a face.
    const std::vector<WeylPoint> steps = {
        {1, 0, 0},  {-1, 0, 0}, {0, 1, 0},       {0, -1, 0},
        {0, 0, 1},  {0, 0, -1}, {0, -0.25, -1},  {-1, -0.25, -1},
    };
    for (const WeylPoint &a : anchors)
        for (const double eps : {1e-6, 1e-5, 1e-4, 1e-3})
            for (const WeylPoint &s : steps)
                pts.push_back(weyl::canonicalizePoint(
                    {a.x + eps * s.x, a.y + eps * s.y, a.z + eps * s.z}));
    return pts;
}

} // namespace testutil
} // namespace crisc

#endif // CRISC_TESTS_CHAMBER_SWEEP_HH
