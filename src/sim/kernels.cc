#include "kernels.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/dispatch.hh"
#include "sim/kernels_util.hh"

// Backend-independent kernel code: the scalar reference kernels every
// SIMD backend is tested against, and the shared dense (k-qubit)
// implementations all dispatch tables point at. The SIMD kernels
// themselves live in kernels_impl.hh, stamped once per backend by the
// kernels_<backend>.cc TUs; the public sim::apply* wrappers live in
// dispatch.cc and route through the resolved KernelTable.

namespace crisc {
namespace sim {

using detail::insertZeroBit;
using detail::laneAmp;
using detail::setLane;

bool
exactlyDiagonal(const Matrix &op)
{
    for (std::size_t r = 0; r < op.rows(); ++r)
        for (std::size_t c = 0; c < op.cols(); ++c)
            if (r != c && op(r, c) != Complex{0.0, 0.0})
                return false;
    return true;
}

// ---------------------------------------------------------------------
// Scalar reference kernels. The SIMD kernels (kernels_impl.hh) must
// match these bit for bit on finite amplitudes (same per-element
// operation order, no FMA); test_simd and test_dispatch pin the
// equivalence per backend.
// ---------------------------------------------------------------------

namespace scalar {

void
apply1q(Complex *amps, std::size_t n_qubits, std::size_t qubit,
        const Complex m[4])
{
    const std::size_t dim = std::size_t{1} << n_qubits;
    const std::size_t stride = std::size_t{1} << (n_qubits - 1 - qubit);
    const Complex m00 = m[0], m01 = m[1], m10 = m[2], m11 = m[3];
    for (std::size_t base = 0; base < dim; base += 2 * stride) {
        for (std::size_t i = base; i < base + stride; ++i) {
            const Complex a0 = amps[i];
            const Complex a1 = amps[i + stride];
            amps[i] = m00 * a0 + m01 * a1;
            amps[i + stride] = m10 * a0 + m11 * a1;
        }
    }
}

void
apply1qDiag(Complex *amps, std::size_t n_qubits, std::size_t qubit,
            Complex d0, Complex d1)
{
    const std::size_t dim = std::size_t{1} << n_qubits;
    const std::size_t stride = std::size_t{1} << (n_qubits - 1 - qubit);
    for (std::size_t base = 0; base < dim; base += 2 * stride) {
        for (std::size_t i = base; i < base + stride; ++i) {
            amps[i] *= d0;
            amps[i + stride] *= d1;
        }
    }
}

void
applyPauli(Complex *amps, std::size_t n_qubits, std::size_t qubit,
           std::size_t pauli_index)
{
    const std::size_t dim = std::size_t{1} << n_qubits;
    const std::size_t stride = std::size_t{1} << (n_qubits - 1 - qubit);
    switch (pauli_index) {
      case 1: // X: swap the pair.
        for (std::size_t base = 0; base < dim; base += 2 * stride)
            for (std::size_t i = base; i < base + stride; ++i)
                std::swap(amps[i], amps[i + stride]);
        return;
      case 2: // Y = [[0, -i], [i, 0]].
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t i = base; i < base + stride; ++i) {
                const Complex a0 = amps[i];
                const Complex a1 = amps[i + stride];
                amps[i] = Complex{a1.imag(), -a1.real()};          // -i a1
                amps[i + stride] = Complex{-a0.imag(), a0.real()}; //  i a0
            }
        }
        return;
      case 3: // Z: negate the |1> half of each pair.
        for (std::size_t base = 0; base < dim; base += 2 * stride)
            for (std::size_t i = base; i < base + stride; ++i)
                amps[i + stride] = -amps[i + stride];
        return;
      default:
        throw std::invalid_argument("applyPauli: index must be 1..3");
    }
}

void
apply2q(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
        std::size_t q_lo, const Complex m[16])
{
    const std::size_t dim = std::size_t{1} << n_qubits;
    const std::size_t p_hi = n_qubits - 1 - q_hi; // weight-2 gate bit.
    const std::size_t p_lo = n_qubits - 1 - q_lo; // weight-1 gate bit.
    const std::size_t m_hi = std::size_t{1} << p_hi;
    const std::size_t m_lo = std::size_t{1} << p_lo;
    const std::size_t first = p_hi < p_lo ? p_hi : p_lo;
    const std::size_t second = p_hi < p_lo ? p_lo : p_hi;

    for (std::size_t g = 0; g < dim >> 2; ++g) {
        // Expand the group counter into the base index with both
        // addressed bits zero; bases come out in ascending order.
        const std::size_t base =
            insertZeroBit(insertZeroBit(g, first), second);
        const std::size_t i1 = base | m_lo;
        const std::size_t i2 = base | m_hi;
        const std::size_t i3 = base | m_hi | m_lo;
        const Complex a0 = amps[base];
        const Complex a1 = amps[i1];
        const Complex a2 = amps[i2];
        const Complex a3 = amps[i3];
        amps[base] = m[0] * a0 + m[1] * a1 + m[2] * a2 + m[3] * a3;
        amps[i1] = m[4] * a0 + m[5] * a1 + m[6] * a2 + m[7] * a3;
        amps[i2] = m[8] * a0 + m[9] * a1 + m[10] * a2 + m[11] * a3;
        amps[i3] = m[12] * a0 + m[13] * a1 + m[14] * a2 + m[15] * a3;
    }
}

void
apply2qDiag(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
            std::size_t q_lo, const Complex d[4])
{
    const std::size_t dim = std::size_t{1} << n_qubits;
    const std::size_t p_hi = n_qubits - 1 - q_hi;
    const std::size_t p_lo = n_qubits - 1 - q_lo;
    const std::size_t m_hi = std::size_t{1} << p_hi;
    const std::size_t m_lo = std::size_t{1} << p_lo;
    const std::size_t first = p_hi < p_lo ? p_hi : p_lo;
    const std::size_t second = p_hi < p_lo ? p_lo : p_hi;

    for (std::size_t g = 0; g < dim >> 2; ++g) {
        const std::size_t base =
            insertZeroBit(insertZeroBit(g, first), second);
        amps[base] *= d[0];
        amps[base | m_lo] *= d[1];
        amps[base | m_hi] *= d[2];
        amps[base | m_hi | m_lo] *= d[3];
    }
}

// Range forms: identical per-pair/per-quad arithmetic, with the group
// counter mapped to its base index directly (pair p of the qubit's
// sweep is the p-th pair in ascending memory order, ditto quads).

void
apply1qRange(Complex *amps, std::size_t n_qubits, std::size_t qubit,
             const Complex m[4], std::size_t pair_begin,
             std::size_t pair_end)
{
    const std::size_t pos = n_qubits - 1 - qubit;
    const std::size_t stride = std::size_t{1} << pos;
    const Complex m00 = m[0], m01 = m[1], m10 = m[2], m11 = m[3];
    for (std::size_t p = pair_begin; p < pair_end; ++p) {
        const std::size_t i = insertZeroBit(p, pos);
        const Complex a0 = amps[i];
        const Complex a1 = amps[i + stride];
        amps[i] = m00 * a0 + m01 * a1;
        amps[i + stride] = m10 * a0 + m11 * a1;
    }
}

void
apply1qDiagRange(Complex *amps, std::size_t n_qubits, std::size_t qubit,
                 Complex d0, Complex d1, std::size_t pair_begin,
                 std::size_t pair_end)
{
    const std::size_t pos = n_qubits - 1 - qubit;
    const std::size_t stride = std::size_t{1} << pos;
    for (std::size_t p = pair_begin; p < pair_end; ++p) {
        const std::size_t i = insertZeroBit(p, pos);
        amps[i] *= d0;
        amps[i + stride] *= d1;
    }
}

void
apply2qRange(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
             std::size_t q_lo, const Complex m[16],
             std::size_t quad_begin, std::size_t quad_end)
{
    const std::size_t p_hi = n_qubits - 1 - q_hi;
    const std::size_t p_lo = n_qubits - 1 - q_lo;
    const std::size_t m_hi = std::size_t{1} << p_hi;
    const std::size_t m_lo = std::size_t{1} << p_lo;
    const std::size_t first = p_hi < p_lo ? p_hi : p_lo;
    const std::size_t second = p_hi < p_lo ? p_lo : p_hi;

    for (std::size_t g = quad_begin; g < quad_end; ++g) {
        const std::size_t base =
            insertZeroBit(insertZeroBit(g, first), second);
        const std::size_t i1 = base | m_lo;
        const std::size_t i2 = base | m_hi;
        const std::size_t i3 = base | m_hi | m_lo;
        const Complex a0 = amps[base];
        const Complex a1 = amps[i1];
        const Complex a2 = amps[i2];
        const Complex a3 = amps[i3];
        amps[base] = m[0] * a0 + m[1] * a1 + m[2] * a2 + m[3] * a3;
        amps[i1] = m[4] * a0 + m[5] * a1 + m[6] * a2 + m[7] * a3;
        amps[i2] = m[8] * a0 + m[9] * a1 + m[10] * a2 + m[11] * a3;
        amps[i3] = m[12] * a0 + m[13] * a1 + m[14] * a2 + m[15] * a3;
    }
}

void
apply2qDiagRange(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
                 std::size_t q_lo, const Complex d[4],
                 std::size_t quad_begin, std::size_t quad_end)
{
    const std::size_t p_hi = n_qubits - 1 - q_hi;
    const std::size_t p_lo = n_qubits - 1 - q_lo;
    const std::size_t m_hi = std::size_t{1} << p_hi;
    const std::size_t m_lo = std::size_t{1} << p_lo;
    const std::size_t first = p_hi < p_lo ? p_hi : p_lo;
    const std::size_t second = p_hi < p_lo ? p_lo : p_hi;

    for (std::size_t g = quad_begin; g < quad_end; ++g) {
        const std::size_t base =
            insertZeroBit(insertZeroBit(g, first), second);
        amps[base] *= d[0];
        amps[base | m_lo] *= d[1];
        amps[base | m_hi] *= d[2];
        amps[base | m_hi | m_lo] *= d[3];
    }
}

// Batched SoA references: the serial scalar kernels above, replayed on
// every lane of the trajectory-major layout (lane t of amplitude i at
// re[i * batch + t]). Lane t is bit-identical to running the serial
// scalar kernel on statevector t alone.

void
apply1qBatch(double *re, double *im, std::size_t n_qubits,
             std::size_t batch, std::size_t qubit, const Complex m[4])
{
    const std::size_t pairs = (std::size_t{1} << n_qubits) >> 1;
    const std::size_t pos = n_qubits - 1 - qubit;
    const std::size_t stride = (std::size_t{1} << pos) * batch;
    for (std::size_t p = 0; p < pairs; ++p) {
        const std::size_t o0 = insertZeroBit(p, pos) * batch;
        const std::size_t o1 = o0 + stride;
        for (std::size_t t = 0; t < batch; ++t) {
            const Complex a0 = laneAmp(re, im, o0 + t);
            const Complex a1 = laneAmp(re, im, o1 + t);
            setLane(re, im, o0 + t, m[0] * a0 + m[1] * a1);
            setLane(re, im, o1 + t, m[2] * a0 + m[3] * a1);
        }
    }
}

void
apply1qDiagBatch(double *re, double *im, std::size_t n_qubits,
                 std::size_t batch, std::size_t qubit, Complex d0,
                 Complex d1)
{
    const std::size_t pairs = (std::size_t{1} << n_qubits) >> 1;
    const std::size_t pos = n_qubits - 1 - qubit;
    const std::size_t stride = (std::size_t{1} << pos) * batch;
    for (std::size_t p = 0; p < pairs; ++p) {
        const std::size_t o0 = insertZeroBit(p, pos) * batch;
        const std::size_t o1 = o0 + stride;
        for (std::size_t t = 0; t < batch; ++t) {
            setLane(re, im, o0 + t, laneAmp(re, im, o0 + t) * d0);
            setLane(re, im, o1 + t, laneAmp(re, im, o1 + t) * d1);
        }
    }
}

void
applyPauliBatch(double *re, double *im, std::size_t n_qubits,
                std::size_t batch, std::size_t qubit,
                std::size_t pauli_index)
{
    const std::size_t pairs = (std::size_t{1} << n_qubits) >> 1;
    const std::size_t pos = n_qubits - 1 - qubit;
    const std::size_t stride = (std::size_t{1} << pos) * batch;
    for (std::size_t p = 0; p < pairs; ++p) {
        const std::size_t o0 = insertZeroBit(p, pos) * batch;
        const std::size_t o1 = o0 + stride;
        switch (pauli_index) {
          case 1: // X: swap the pair.
            for (std::size_t t = 0; t < batch; ++t) {
                std::swap(re[o0 + t], re[o1 + t]);
                std::swap(im[o0 + t], im[o1 + t]);
            }
            break;
          case 2: // Y = [[0, -i], [i, 0]].
            for (std::size_t t = 0; t < batch; ++t) {
                const Complex a0 = laneAmp(re, im, o0 + t);
                const Complex a1 = laneAmp(re, im, o1 + t);
                setLane(re, im, o0 + t,
                        Complex{a1.imag(), -a1.real()}); // -i a1
                setLane(re, im, o1 + t,
                        Complex{-a0.imag(), a0.real()}); //  i a0
            }
            break;
          case 3: // Z: negate the |1> half of each pair.
            for (std::size_t t = 0; t < batch; ++t) {
                re[o1 + t] = -re[o1 + t];
                im[o1 + t] = -im[o1 + t];
            }
            break;
          default:
            throw std::invalid_argument(
                "applyPauliBatch: index must be 1..3");
        }
    }
}

void
apply2qBatch(double *re, double *im, std::size_t n_qubits,
             std::size_t batch, std::size_t q_hi, std::size_t q_lo,
             const Complex m[16])
{
    const std::size_t quads = (std::size_t{1} << n_qubits) >> 2;
    const std::size_t p_hi = n_qubits - 1 - q_hi;
    const std::size_t p_lo = n_qubits - 1 - q_lo;
    const std::size_t o_hi = (std::size_t{1} << p_hi) * batch;
    const std::size_t o_lo = (std::size_t{1} << p_lo) * batch;
    const std::size_t first = p_hi < p_lo ? p_hi : p_lo;
    const std::size_t second = p_hi < p_lo ? p_lo : p_hi;
    for (std::size_t g = 0; g < quads; ++g) {
        const std::size_t b0 =
            insertZeroBit(insertZeroBit(g, first), second) * batch;
        const std::size_t b1 = b0 + o_lo;
        const std::size_t b2 = b0 + o_hi;
        const std::size_t b3 = b0 + o_hi + o_lo;
        for (std::size_t t = 0; t < batch; ++t) {
            const Complex a0 = laneAmp(re, im, b0 + t);
            const Complex a1 = laneAmp(re, im, b1 + t);
            const Complex a2 = laneAmp(re, im, b2 + t);
            const Complex a3 = laneAmp(re, im, b3 + t);
            setLane(re, im, b0 + t,
                    m[0] * a0 + m[1] * a1 + m[2] * a2 + m[3] * a3);
            setLane(re, im, b1 + t,
                    m[4] * a0 + m[5] * a1 + m[6] * a2 + m[7] * a3);
            setLane(re, im, b2 + t,
                    m[8] * a0 + m[9] * a1 + m[10] * a2 + m[11] * a3);
            setLane(re, im, b3 + t,
                    m[12] * a0 + m[13] * a1 + m[14] * a2 + m[15] * a3);
        }
    }
}

void
apply2qDiagBatch(double *re, double *im, std::size_t n_qubits,
                 std::size_t batch, std::size_t q_hi, std::size_t q_lo,
                 const Complex d[4])
{
    const std::size_t quads = (std::size_t{1} << n_qubits) >> 2;
    const std::size_t p_hi = n_qubits - 1 - q_hi;
    const std::size_t p_lo = n_qubits - 1 - q_lo;
    const std::size_t o_hi = (std::size_t{1} << p_hi) * batch;
    const std::size_t o_lo = (std::size_t{1} << p_lo) * batch;
    const std::size_t first = p_hi < p_lo ? p_hi : p_lo;
    const std::size_t second = p_hi < p_lo ? p_lo : p_hi;
    for (std::size_t g = 0; g < quads; ++g) {
        const std::size_t b0 =
            insertZeroBit(insertZeroBit(g, first), second) * batch;
        for (std::size_t t = 0; t < batch; ++t) {
            setLane(re, im, b0 + t, laneAmp(re, im, b0 + t) * d[0]);
            setLane(re, im, b0 + o_lo + t,
                    laneAmp(re, im, b0 + o_lo + t) * d[1]);
            setLane(re, im, b0 + o_hi + t,
                    laneAmp(re, im, b0 + o_hi + t) * d[2]);
            setLane(re, im, b0 + o_hi + o_lo + t,
                    laneAmp(re, im, b0 + o_hi + o_lo + t) * d[3]);
        }
    }
}

void
applyDenseBatch(double *re, double *im, std::size_t n_qubits,
                std::size_t batch, const Matrix &op,
                const std::vector<std::size_t> &qubits)
{
    const std::size_t k = qubits.size();
    const std::size_t gdim = std::size_t{1} << k;
    const std::size_t groups = (std::size_t{1} << n_qubits) >> k;

    std::vector<std::size_t> pos(k);
    for (std::size_t b = 0; b < k; ++b)
        pos[b] = n_qubits - 1 - qubits[b];
    std::vector<std::size_t> sorted = pos;
    std::sort(sorted.begin(), sorted.end());

    std::vector<Complex> in(gdim), out(gdim);
    std::vector<std::size_t> idx(gdim);
    for (std::size_t grp = 0; grp < groups; ++grp) {
        std::size_t base = grp;
        for (std::size_t p : sorted)
            base = insertZeroBit(base, p);
        for (std::size_t g = 0; g < gdim; ++g) {
            std::size_t address = base;
            for (std::size_t b = 0; b < k; ++b)
                if ((g >> (k - 1 - b)) & 1)
                    address |= std::size_t{1} << pos[b];
            idx[g] = address * batch;
        }
        for (std::size_t t = 0; t < batch; ++t) {
            for (std::size_t g = 0; g < gdim; ++g)
                in[g] = laneAmp(re, im, idx[g] + t);
            for (std::size_t r = 0; r < gdim; ++r) {
                Complex s = 0.0;
                for (std::size_t c = 0; c < gdim; ++c)
                    s += op(r, c) * in[c];
                out[r] = s;
            }
            for (std::size_t g = 0; g < gdim; ++g)
                setLane(re, im, idx[g] + t, out[g]);
        }
    }
}

} // namespace scalar

// ---------------------------------------------------------------------
// Shared dense (k-qubit) implementation: gather/scatter dominated, no
// SIMD, so every backend's KernelTable points at it — one definition
// serves all tables and the public sim::applyDense* wrappers.
// ---------------------------------------------------------------------

namespace detail {

void
applyDenseRangeShared(Complex *amps, std::size_t n_qubits,
                      const Matrix &op,
                      const std::vector<std::size_t> &qubits,
                      std::size_t group_begin, std::size_t group_end)
{
    const std::size_t k = qubits.size();
    const std::size_t gdim = std::size_t{1} << k;

    std::vector<std::size_t> pos(k);
    for (std::size_t b = 0; b < k; ++b)
        pos[b] = n_qubits - 1 - qubits[b];
    // Expanding the group counter through ascending bit positions
    // yields the group's all-zeros base; bases ascend with the counter.
    std::vector<std::size_t> sorted = pos;
    std::sort(sorted.begin(), sorted.end());

    std::vector<Complex> in(gdim), out(gdim);
    std::vector<std::size_t> idx(gdim);
    for (std::size_t grp = group_begin; grp < group_end; ++grp) {
        std::size_t base = grp;
        for (std::size_t p : sorted)
            base = insertZeroBit(base, p);
        for (std::size_t g = 0; g < gdim; ++g) {
            std::size_t address = base;
            for (std::size_t b = 0; b < k; ++b)
                if ((g >> (k - 1 - b)) & 1)
                    address |= std::size_t{1} << pos[b];
            idx[g] = address;
            in[g] = amps[address];
        }
        for (std::size_t r = 0; r < gdim; ++r) {
            Complex s = 0.0;
            for (std::size_t c = 0; c < gdim; ++c)
                s += op(r, c) * in[c];
            out[r] = s;
        }
        for (std::size_t g = 0; g < gdim; ++g)
            amps[idx[g]] = out[g];
    }
}

} // namespace detail

} // namespace sim
} // namespace crisc
