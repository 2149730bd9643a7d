#include "scheme.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/obs.hh"
#include "qop/gates.hh"
#include "weyl/optimal_time.hh"

namespace crisc {
namespace ashn {

using linalg::Complex;
using weyl::canonicalizePoint;
using weyl::weylCoordinates;

namespace {

constexpr double kPi = M_PI;
constexpr double kTiny = 1e-12;

/** Inverse of sinc on [0, pi]: the unique w with sin(w)/w = v. */
double
invSinc(double v)
{
    v = std::clamp(v, 0.0, 1.0);
    if (v >= 1.0)
        return 0.0;
    double lo = 0.0, hi = kPi;
    for (int i = 0; i < 80; ++i) {
        const double mid = 0.5 * (lo + hi);
        const double s = mid == 0.0 ? 1.0 : std::sin(mid) / mid;
        if (s > v)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

/** Largest chamber distance at which a realized gate counts as the
 *  target class. */
constexpr double kVerifyTol = 1e-5;

/** Chamber distance between the gate @p p realizes and @p target. */
double
realizedDistance(const GateParams &p, const WeylPoint &target)
{
    return weyl::chamberDistance(weylCoordinates(realize(p)), target);
}

/** Whether the realized gate lands on the canonical target point. */
bool
verified(const GateParams &p, const WeylPoint &target)
{
    return realizedDistance(p, target) <= kVerifyTol;
}

/** Chamber distance a polished EA root stops at. */
constexpr double kPolishTol = 1e-10;
/** realize + weylCoordinates evaluations one polish may spend. */
constexpr int kPolishBudget = 160;

/**
 * Near a degenerate spectrum (the SWAP corner) the trace residual is
 * flat to second order, so a root accepted at residual ~1e-13 realizes
 * the target only to a few 1e-7. A compass search on the chamber
 * distance itself, over the two drives @p a and @p b the sub-scheme
 * sets, brings such a root to kPolishTol within a fixed budget.
 * @p dist is the distance of @p p on entry.
 */
GateParams
polishRoot(GateParams p, double GateParams::*a, double GateParams::*b,
           const WeylPoint &target, double dist)
{
    double step = dist;
    for (int n = 0; n < kPolishBudget && dist > kPolishTol && step > 1e-16;) {
        bool improved = false;
        for (const auto &[field, sign] :
             {std::pair{a, 1.0}, {a, -1.0}, {b, 1.0}, {b, -1.0}}) {
            GateParams q = p;
            q.*field += sign * step;
            const double d = realizedDistance(q, target);
            ++n;
            if (d < dist) {
                p = q;
                dist = d;
                improved = true;
                break;
            }
        }
        if (!improved)
            step *= 0.5;
    }
    return p;
}

/**
 * @p p, polished, when it realizes @p target; nullopt otherwise. @p a
 * and @p b are the two drives the sub-scheme sets.
 */
std::optional<GateParams>
acceptRoot(const GateParams &p, double GateParams::*a,
           double GateParams::*b, const WeylPoint &target)
{
    const double dist = realizedDistance(p, target);
    if (dist > kVerifyTol)
        return std::nullopt;
    return polishRoot(p, a, b, target, dist);
}

[[noreturn]] void
failSynthesis(const char *scheme, const WeylPoint &p, double h)
{
    std::ostringstream msg;
    msg << scheme << ": no valid parameters for (" << p.x << ", " << p.y
        << ", " << p.z << "), h=" << h;
    throw std::runtime_error(msg.str());
}

/**
 * Solves the ND sinc equation  t * sinc(w) = v  for w in [t, pi] and
 * returns the drive Omega = sqrt((w/tau)^2 - (t/tau)^2) / 2, or nullopt
 * when v exceeds the reachable range sin(t).
 */
std::optional<double>
solveNDDrive(double v, double t, double tau)
{
    if (t <= kTiny)
        return v <= 1e-9 ? std::optional<double>(0.0) : std::nullopt;
    const double ratio = v / t;
    if (ratio > 1.0 + 1e-9)
        return std::nullopt;
    const double w = invSinc(std::min(ratio, 1.0));
    if (w < t - 1e-7)
        return std::nullopt; // would need imaginary drive
    const double s = std::max(w, t) / tau;
    const double s0 = t / tau;
    const double om2 = s * s - s0 * s0;
    return std::sqrt(std::max(om2, 0.0)) / 2.0;
}

/**
 * The residual of the symmetric-slot equal-amplitude problem: the
 * triplet part of tr(U YY) (tripletTraceYY) minus its target. The
 * singlet term of the trace is constant and cancels against the
 * target's first spectral element, so it is never formed.
 */
class TripletResidual
{
  public:
    TripletResidual(double tau, double h, Complex target)
        : tau_(tau), h_(h), target_(target)
    {
    }

    Complex operator()(double omega, double delta)
    {
        ++evals_;
        return tripletTraceYY(tau_, h_, omega, delta) - target_;
    }

    /** Residual evaluations so far. */
    std::size_t evals() const { return evals_; }

  private:
    double tau_, h_;
    Complex target_;
    std::size_t evals_ = 0;
};

/** Seed-grid intervals per axis of the EA slot search, coarse first:
 *  the coarse grid's spacing (~0.18 at typical tau) can step over a
 *  weak-drive root, which the finer pass then seeds. */
constexpr int kSeedGrids[] = {32, 48};
/** Local minima of the seed grid that Newton starts from. */
constexpr std::size_t kMaxSeeds = 24;
/** Residual evaluations one seed's refinement may spend; a seed that
 *  has not reached kRootResidual by then is dropped. */
constexpr std::size_t kRefineBudget = 400;
/** Largest residual accepted as a root. */
constexpr double kRootResidual = 1e-7;

/**
 * Refines a seed where Newton stalled, within kRefineBudget residual
 * evaluations: Levenberg-Marquardt on (u, v) = (omega^2, delta^2).
 * The residual is even in both drives, so it is smooth in their
 * squares; Newton in (omega, delta) stalls where the Jacobian
 * degenerates — at the triply degenerate SWAP spectrum, and along
 * omega = 0, where the residual does not depend on delta and a root
 * can sit a few 1e-2 away. @p omega and @p delta are updated in place;
 * returns the residual there.
 */
Complex
refineRoot(TripletResidual &residual, double &omega, double &delta)
{
    const std::size_t stop = residual.evals() + kRefineBudget;
    const auto at = [&](double u, double v) {
        return residual(std::sqrt(u), std::sqrt(v));
    };
    double u = omega * omega, v = delta * delta;
    Complex f = at(u, v);
    double lambda = 1e-3;
    while (std::abs(f) > 1e-12 && residual.evals() + 3 <= stop) {
        constexpr double eps = 1e-7;
        const Complex fu = (at(u + eps, v) - f) / eps;
        const Complex fv = (at(u, v + eps) - f) / eps;
        // Normal equations (J^T J + lambda diag J^T J) step = -J^T f; the
        // floor keeps a direction the residual ignores (delta on the
        // omega = 0 line) from making the system singular.
        const double auu = std::norm(fu), avv = std::norm(fv);
        const double auv = (std::conj(fu) * fv).real();
        const double gu = (std::conj(fu) * f).real();
        const double gv = (std::conj(fv) * f).real();
        const double floor = 1e-30 * (auu + avv);
        bool improved = false;
        while (lambda < 1e12 && residual.evals() < stop) {
            const double muu = auu * (1.0 + lambda) + floor;
            const double mvv = avv * (1.0 + lambda) + floor;
            const double det = muu * mvv - auv * auv;
            if (!(det > 0.0))
                break;
            const double nu =
                std::max(u + (-gu * mvv + gv * auv) / det, 0.0);
            const double nv =
                std::max(v + (-gv * muu + gu * auv) / det, 0.0);
            const Complex fn = at(nu, nv);
            if (std::abs(fn) < std::abs(f)) {
                u = nu;
                v = nv;
                f = fn;
                lambda = std::max(lambda / 10.0, 1e-12);
                improved = true;
                break;
            }
            lambda *= 10.0;
        }
        if (!improved)
            break;
    }
    omega = std::sqrt(u);
    delta = std::sqrt(v);
    return f;
}

/**
 * Solves the symmetric-slot equal-amplitude problem for the spectrum
 * representative (a, b, c): find (omega, delta) such that
 * U(tau; h; omega, 0, delta) with tau = 2(a+b+c)/(2+h) has the spectrum
 *   { -e^{i(a+b+c)}, e^{i(a-b-c)}, -e^{i(-a+b-c)}, e^{i(-a-b+c)} }
 * when multiplied by YY. The singlet is an exact eigenvector of the
 * symmetric-slot Hamiltonian with energy -(2+h)/2, so the first element
 * is automatic and matching the trace pins down the rest (App. A.5).
 * The realized gate canonicalizes to (a, b, -c) in this library's
 * coordinate convention.
 *
 * Newton starts from the local minima of |residual| on a
 * (grid+1) x (grid+1) grid over [0, 2(pi/tau + 1)]^2; refineRoot
 * finishes seeds where Newton stalls.
 *
 * @return candidate {tau, omega, delta} triples, weakest drive first.
 * Near spectral degeneracies the coordinate error grows like the square
 * root of the trace residual, so callers must verify each candidate
 * against the target instead of trusting the first root.
 */
std::vector<std::array<double, 3>>
solveEASymmetricSlot(double a, double b, double c, double h, int grid)
{
    const double tau = 2.0 * (a + b + c) / (2.0 + h);
    if (tau <= kTiny)
        return {std::array<double, 3>{0.0, 0.0, 0.0}};

    const Complex tTarget = std::polar(1.0, a - b - c) -
                            std::polar(1.0, -a + b - c) +
                            std::polar(1.0, -a - b + c);
    TripletResidual residual(tau, h, tTarget);

    // Seed Newton from every local minimum of |residual| on a coarse
    // grid (the landscape has several basins; the global grid minimum
    // alone can sit in a rootless one).
    const double bound = 2.0 * (kPi / tau + 1.0);
    const int side = grid + 1;
    std::vector<double> err(static_cast<std::size_t>(side * side));
    const auto at = [&](int i, int j) -> double & {
        return err[static_cast<std::size_t>(i * side + j)];
    };
    for (int i = 0; i <= grid; ++i)
        for (int j = 0; j <= grid; ++j)
            at(i, j) = std::abs(residual(bound * i / grid, bound * j / grid));
    struct Seed
    {
        double om, d, e;
    };
    std::vector<Seed> seeds;
    for (int i = 0; i <= grid; ++i) {
        for (int j = 0; j <= grid; ++j) {
            bool isMin = true;
            for (int di = -1; di <= 1 && isMin; ++di)
                for (int dj = -1; dj <= 1; ++dj) {
                    const int ni = i + di, nj = j + dj;
                    if (ni < 0 || nj < 0 || ni > grid || nj > grid)
                        continue;
                    if (at(ni, nj) < at(i, j)) {
                        isMin = false;
                        break;
                    }
                }
            if (isMin)
                seeds.push_back({bound * i / grid, bound * j / grid, at(i, j)});
        }
    }
    std::sort(seeds.begin(), seeds.end(),
              [](const Seed &x, const Seed &y) { return x.e < y.e; });
    if (seeds.size() > kMaxSeeds)
        seeds.resize(kMaxSeeds);

    struct Root
    {
        double e, om, d;
    };
    std::vector<Root> found;
    for (const Seed &seed : seeds) {
        double om = seed.om, d = seed.d;
        Complex f = residual(om, d);
        for (int iter = 0; iter < 80 && std::abs(f) > 1e-12; ++iter) {
            const double eps = 1e-7;
            const Complex fo = (residual(om + eps, d) - f) / eps;
            const Complex fd = (residual(om, d + eps) - f) / eps;
            const double det =
                fo.real() * fd.imag() - fd.real() * fo.imag();
            if (std::abs(det) < 1e-14)
                break;
            const double step_om =
                (-f.real() * fd.imag() + f.imag() * fd.real()) / det;
            const double step_d =
                (-fo.real() * f.imag() + fo.imag() * f.real()) / det;
            double t = 1.0;
            while (t > 1e-6) {
                const double no = std::abs(om + t * step_om);
                const double nd = std::abs(d + t * step_d);
                if (std::abs(residual(no, nd)) < std::abs(f)) {
                    om = no;
                    d = nd;
                    break;
                }
                t *= 0.5;
            }
            if (t <= 1e-6)
                break;
            f = residual(om, d);
        }
        if (std::abs(f) > 1e-9 && std::abs(f) < 1e-2)
            f = refineRoot(residual, om, d);
        if (std::abs(f) <= kRootResidual)
            found.push_back({std::abs(f), om, d});
    }
    OBS_COUNT("ashn.residual_evals", residual.evals());
    // Several distinct roots can realize the same chamber point; prefer
    // the weakest drives (the bounds of Eq. 4.4 and Table 1 refer to the
    // minimal solution).
    std::sort(found.begin(), found.end(), [](const Root &x, const Root &y) {
        return std::max(x.om, x.d) < std::max(y.om, y.d);
    });
    std::vector<std::array<double, 3>> out;
    out.reserve(found.size());
    for (const Root &r : found)
        out.push_back({tau, r.om, r.d});
    return out;
}

/**
 * Runs the symmetric-slot search for (a, b, c) under ZZ ratio @p slotH
 * on each seed grid of kSeedGrids in turn and returns the first
 * candidate @p accept turns into verified parameters for ratio @p h
 * (the Identity for a zero-time target).
 */
template <typename Accept>
std::optional<GateParams>
searchEASlot(double a, double b, double c, double slotH, double h,
             Accept accept)
{
    for (const int grid : kSeedGrids)
        for (const auto &sol : solveEASymmetricSlot(a, b, c, slotH, grid)) {
            if (sol[0] <= kTiny)
                return GateParams{SubScheme::Identity, 0, 0, 0, 0, h};
            if (auto p = accept(sol))
                return p;
        }
    return std::nullopt;
}

/** The three sub-scheme times of one dispatch branch (Algorithm 1). */
struct BranchTimes
{
    double nd, eaPlus, eaMinus;

    double max() const { return std::max({nd, eaPlus, eaMinus}); }
};

BranchTimes
branchTimes(const WeylPoint &p, double h)
{
    return {2.0 * p.x, 2.0 * (p.x + p.y - p.z) / (2.0 + h),
            2.0 * (p.x + p.y + p.z) / (2.0 - h)};
}

} // namespace

std::string
subSchemeName(SubScheme s)
{
    switch (s) {
      case SubScheme::Identity:
        return "Identity";
      case SubScheme::ND:
        return "AshN-ND";
      case SubScheme::NDExt:
        return "AshN-ND-EXT";
      case SubScheme::EAPlus:
        return "AshN-EA+";
      case SubScheme::EAMinus:
        return "AshN-EA-";
    }
    return "?";
}

double
GateParams::maxDrive() const
{
    return std::max({std::abs(a1()) / 2.0, std::abs(a2()) / 2.0,
                     std::abs(delta)});
}

Matrix
realize(const GateParams &p)
{
    return evolve(p.tau, p.h, p.omega1, p.omega2, p.delta);
}

WeylPoint
mirrorPoint(const WeylPoint &p)
{
    return {kPi / 2.0 - p.x, p.y, -p.z};
}

GateParams
synthesizeND(const WeylPoint &target, double h)
{
    const double tau = 2.0 * target.x;
    if (tau <= kTiny)
        return GateParams{SubScheme::Identity, 0, 0, 0, 0, h};
    const double tMinus = (1.0 - h) * tau / 2.0;
    const double tPlus = (1.0 + h) * tau / 2.0;
    const double sinSum = std::sin(target.y + target.z);
    const double sinDiff = std::sin(target.y - target.z);

    // In this library's z convention Omega1 pairs with sin(y+z) (budget
    // (1-h)x) and Omega2 with sin(y-z) (budget (1+h)x); the opposite
    // assignment realizes the z-mirrored point, so it is kept as a
    // fallback for boundary cases.
    const std::pair<double, double> assignments[] = {{sinSum, sinDiff},
                                                     {sinDiff, sinSum}};
    for (const auto &[v1, v2] : assignments) {
        const auto om1 = solveNDDrive(v1, tMinus, tau);
        const auto om2 = solveNDDrive(v2, tPlus, tau);
        if (!om1 || !om2)
            continue;
        const GateParams p{SubScheme::ND, tau, *om1, *om2, 0.0, h};
        if (verified(p, target))
            return p;
    }
    failSynthesis("AshN-ND", target, h);
}

GateParams
synthesizeNDExt(const WeylPoint &target, double h)
{
    GateParams p = synthesizeND(mirrorPoint(target), h);
    p.scheme = SubScheme::NDExt;
    if (!verified(p, target))
        failSynthesis("AshN-ND-EXT", target, h);
    return p;
}

GateParams
synthesizeEAPlus(const WeylPoint &target, double h)
{
    // The symmetric slot realizes the z-negated spectrum representative,
    // so solve for (x, y, -z); tau = 2(x+y-z)/(2+h).
    const auto p = searchEASlot(
        target.x, target.y, -target.z, h, h,
        [&](const std::array<double, 3> &sol) {
            return acceptRoot({SubScheme::EAPlus, sol[0], sol[1], 0.0,
                               sol[2], h},
                              &GateParams::omega1, &GateParams::delta,
                              target);
        });
    if (!p)
        failSynthesis("AshN-EA+", target, h);
    return *p;
}

GateParams
synthesizeEAMinus(const WeylPoint &target, double h)
{
    // Corollary 9 duality: conjugating by (Z x I) and reversing time
    // maps the antisymmetric slot under h to the symmetric slot under
    // -h with the z-negation undone; tau = 2(x+y+z)/(2-h).
    const auto p = searchEASlot(
        target.x, target.y, target.z, -h, h,
        [&](const std::array<double, 3> &sol) -> std::optional<GateParams> {
            for (const double dsign : {-1.0, 1.0})
                if (auto q = acceptRoot({SubScheme::EAMinus, sol[0], 0.0,
                                         sol[1], dsign * sol[2], h},
                                        &GateParams::omega2,
                                        &GateParams::delta, target))
                    return q;
            return std::nullopt;
        });
    if (!p)
        failSynthesis("AshN-EA-", target, h);
    return *p;
}

double
gateTime(const WeylPoint &target, double h, double r)
{
    const WeylPoint p = canonicalizePoint(target);
    const double topt = weyl::optimalTime(p, h);
    if (topt <= r)
        return kPi - 2.0 * p.x;
    return topt;
}

GateParams
synthesize(const WeylPoint &target, double h, double r)
{
    if (std::abs(h) > 1.0)
        throw std::invalid_argument("synthesize: |h| must be <= 1");
    if (r < 0.0 || r > (1.0 - std::abs(h)) * kPi / 2.0 + 1e-12)
        throw std::invalid_argument("synthesize: cutoff r out of range");

    const WeylPoint p = canonicalizePoint(target);
    if (p.x < kTiny && p.y < kTiny && std::abs(p.z) < kTiny)
        return GateParams{SubScheme::Identity, 0, 0, 0, 0, h};

    const BranchTimes b1 = branchTimes(p, h);
    const WeylPoint m = mirrorPoint(p);
    const BranchTimes b2 = branchTimes(m, h);
    const double tau1 = b1.max(), tau2 = b2.max();

    if (std::min(tau1, tau2) <= r)
        return synthesizeNDExt(p, h);

    const WeylPoint work = tau2 < tau1 ? m : p;
    const BranchTimes bt = tau2 < tau1 ? b2 : b1;

    // Preferred sub-scheme per Algorithm 1, with the others as fallback
    // (ties on sector boundaries are realizable by several schemes).
    std::vector<SubScheme> order;
    if (bt.nd >= std::max(bt.eaPlus, bt.eaMinus) - 1e-12)
        order = {SubScheme::ND, SubScheme::EAPlus, SubScheme::EAMinus};
    else if (bt.eaPlus >= bt.eaMinus)
        order = {SubScheme::EAPlus, SubScheme::EAMinus, SubScheme::ND};
    else
        order = {SubScheme::EAMinus, SubScheme::EAPlus, SubScheme::ND};

    std::string errors;
    for (SubScheme s : order) {
        try {
            GateParams got;
            switch (s) {
              case SubScheme::ND:
                got = synthesizeND(work, h);
                break;
              case SubScheme::EAPlus:
                got = synthesizeEAPlus(work, h);
                break;
              default:
                got = synthesizeEAMinus(work, h);
                break;
            }
            if (s != order.front())
                OBS_COUNT("ashn.subscheme_fallbacks", 1);
            return got;
        } catch (const std::runtime_error &e) {
            errors += std::string(e.what()) + "; ";
        }
    }
    throw std::runtime_error("synthesize: all sub-schemes failed: " + errors);
}

} // namespace ashn
} // namespace crisc
