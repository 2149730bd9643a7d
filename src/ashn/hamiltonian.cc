#include "hamiltonian.hh"

#include <cmath>

#include "linalg/expm.hh"
#include "qop/gates.hh"

namespace crisc {
namespace ashn {

using linalg::Complex;
using linalg::kron;
using qop::pauliI;
using qop::pauliX;
using qop::pauliY;
using qop::pauliZ;

namespace {

/**
 * Eigen-decomposition of the real symmetric 3x3 @p a by cyclic Jacobi
 * rotations. On return the diagonal of @p a holds the eigenvalues and
 * @p v0 the first row of the eigenvector matrix (only that row is
 * tracked). Jacobi stays accurate at (near-)degenerate spectra, where
 * closed-form eigenvector weights built from eigenvalue differences
 * cancel catastrophically.
 */
void
symmetricEigen3(double a[3][3], double v0[3])
{
    v0[0] = 1.0;
    v0[1] = v0[2] = 0.0;
    static constexpr int kPairs[3][2] = {{0, 1}, {0, 2}, {1, 2}};
    for (int sweep = 0; sweep < 50; ++sweep) {
        if (a[0][1] == 0.0 && a[0][2] == 0.0 && a[1][2] == 0.0)
            return;
        for (const auto &pq : kPairs) {
            const int p = pq[0], q = pq[1], r = 3 - p - q;
            const double apq = a[p][q];
            if (apq == 0.0)
                continue;
            // An element below rounding of both diagonal entries is
            // dropped instead of rotated (Numerical Recipes' jacobi).
            const double g = 100.0 * std::abs(apq);
            const double app = std::abs(a[p][p]), aqq = std::abs(a[q][q]);
            if (app + g == app && aqq + g == aqq) {
                a[p][q] = a[q][p] = 0.0;
                continue;
            }
            const double diff = a[q][q] - a[p][p];
            double t;
            if (std::abs(diff) + g == std::abs(diff)) {
                t = apq / diff;
            } else {
                const double theta = 0.5 * diff / apq;
                t = 1.0 / (std::abs(theta) + std::sqrt(1.0 + theta * theta));
                if (theta < 0.0)
                    t = -t;
            }
            const double c = 1.0 / std::sqrt(1.0 + t * t);
            const double s = t * c;
            const double sTau = s / (1.0 + c);
            a[p][p] -= t * apq;
            a[q][q] += t * apq;
            a[p][q] = a[q][p] = 0.0;
            const double arp = a[r][p], arq = a[r][q];
            a[r][p] = a[p][r] = arp - s * (arq + sTau * arp);
            a[r][q] = a[q][r] = arq + s * (arp - sTau * arq);
            const double vp = v0[p], vq = v0[q];
            v0[p] = vp - s * (vq + sTau * vp);
            v0[q] = vq + s * (vp - sTau * vq);
        }
    }
}

} // namespace

Matrix
hamiltonian(double h, double omega1, double omega2, double delta)
{
    const Matrix xi = kron(pauliX(), pauliI());
    const Matrix ix = kron(pauliI(), pauliX());
    const Matrix zi = kron(pauliZ(), pauliI());
    const Matrix iz = kron(pauliI(), pauliZ());
    return 0.5 * (qop::pauliXX() + qop::pauliYY()) +
           (0.5 * h) * qop::pauliZZ() + omega1 * (xi + ix) +
           omega2 * (xi - ix) + delta * (zi + iz);
}

Matrix
hamiltonianWithPhases(double h, double a1, double phi1, double a2,
                      double phi2, double delta)
{
    const Matrix xi = kron(pauliX(), pauliI());
    const Matrix yi = kron(pauliY(), pauliI());
    const Matrix ix = kron(pauliI(), pauliX());
    const Matrix iy = kron(pauliI(), pauliY());
    const Matrix zi = kron(pauliZ(), pauliI());
    const Matrix iz = kron(pauliI(), pauliZ());
    return 0.5 * (qop::pauliXX() + qop::pauliYY()) +
           (0.5 * h) * qop::pauliZZ() -
           (0.5 * a1) * (std::cos(phi1) * xi - std::sin(phi1) * yi) -
           (0.5 * a2) * (std::cos(phi2) * ix - std::sin(phi2) * iy) +
           delta * (zi + iz);
}

Matrix
evolve(double tau, double h, double omega1, double omega2, double delta)
{
    return linalg::propagator(hamiltonian(h, omega1, omega2, delta), tau);
}

Complex
tripletTraceYY(double tau, double h, double omega, double delta)
{
    double a[3][3] = {{0.0, 2.0 * omega, 2.0 * delta},
                      {2.0 * omega, 1.0 - h, 0.0},
                      {2.0 * delta, 0.0, 0.0}};
    double v0[3];
    symmetricEigen3(a, v0);
    Complex sum = 0.0;
    for (int k = 0; k < 3; ++k)
        sum += (1.0 - 2.0 * v0[k] * v0[k]) * std::polar(1.0, -a[k][k] * tau);
    return sum * std::polar(1.0, -0.5 * h * tau);
}

double
driveA1(double omega1, double omega2)
{
    return -2.0 * (omega1 + omega2);
}

double
driveA2(double omega1, double omega2)
{
    return -2.0 * (omega1 - omega2);
}

} // namespace ashn
} // namespace crisc
