#include "ccg/linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "ccg/common/expect.hpp"
#include "ccg/common/rng.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/stage.hpp"
#include "ccg/parallel/parallel.hpp"
#include "ccg/simd/simd.hpp"

namespace ccg {

namespace {

/// Applies the (p, q) rotation, p < q, to rows p/q of `a` outside the 2x2
/// pivot block (contiguous — simd::rotate_pair is element-wise exact), to
/// columns p/q of `a` (strided — scalar), and to rows p/q of `vt` (the
/// eigenvector matrix stored TRANSPOSED precisely so its rotation touches
/// two contiguous rows instead of two strided columns).
void rotate_offblock(Matrix& a, Matrix& vt, std::size_t p, std::size_t q,
                     double c, double s) {
  const std::size_t n = a.rows();
  simd::rotate_pair(&vt(p, 0), &vt(q, 0), c, s, n);

  double* row_p = &a(p, 0);
  double* row_q = &a(q, 0);
  simd::rotate_pair(row_p, row_q, c, s, p);
  simd::rotate_pair(row_p + p + 1, row_q + p + 1, c, s, q - p - 1);
  simd::rotate_pair(row_p + q + 1, row_q + q + 1, c, s, n - q - 1);

  // Column updates stay scalar: stride-n access defeats vector loads, and
  // the element arithmetic is identical either way.
  for (std::size_t k = 0; k < n; ++k) {
    if (k == p || k == q) continue;
    const double akp = a(k, p);
    const double akq = a(k, q);
    a(k, p) = c * akp - s * akq;
    a(k, q) = s * akp + c * akq;
  }
}

/// The first k eigenpairs of a full decomposition.
EigenDecomposition leading(EigenDecomposition full, std::size_t k) {
  const std::size_t n = full.vectors.rows();
  EigenDecomposition out;
  out.values.assign(full.values.begin(), full.values.begin() + k);
  out.vectors = Matrix(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) out.vectors(i, j) = full.vectors(i, j);
  }
  return out;
}

// --- top_k_eigen --------------------------------------------------------------

/// Stopping bar: every top-k Ritz residual |M v − θ v| <= kTolerance·|θ₁|.
constexpr double kTolerance = 1e-10;
/// Far above any well-separated cut (k8s, n≈373: ~40 iterations; kquery,
/// n≈1400: a few hundred) and still far cheaper than dense Jacobi there.
constexpr int kMaxIterations = 3000;
/// Extra block columns beyond k when 2k is small: the convergence rate of
/// Ritz pair j is |λ_{p+1} / λ_j|, so the block needs headroom past k.
constexpr std::size_t kMinOversample = 8;
/// The p x p Ritz problems are solved far below any useful outer
/// tolerance, so the small solve's own error never holds a residual up.
constexpr double kRitzTolerance = 1e-14;
/// A Gram–Schmidt column keeping less than this fraction of its norm is
/// numerically dependent on its predecessors and is replaced.
constexpr double kDropTolerance = 1e-8;
/// Row-block height of the M·Q product — fixed, so the chunk geometry
/// depends on n alone.
constexpr std::size_t kRowBlock = 32;
constexpr std::uint64_t kStartSeed = 0x5EED'70CEull;

/// M's nonzeros row by row (CSR): communication-graph adjacency matrices
/// are a few percent dense, and M·Q only needs these.
struct SparseRows {
  std::vector<std::size_t> offsets{0};
  std::vector<std::uint32_t> cols;
  std::vector<double> values;

  explicit SparseRows(const Matrix& m) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        if (m(i, j) == 0.0) continue;
        cols.push_back(static_cast<std::uint32_t>(j));
        values.push_back(m(i, j));
      }
      offsets.push_back(cols.size());
    }
  }
};

const double* row(const Matrix& m, std::size_t r) {
  return m.data().data() + r * m.cols();
}

void fill_random(double* v, std::size_t n, Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform01() - 0.5;
}

/// Orthonormalizes the rows of `block` in order with two modified
/// Gram–Schmidt passes. A row that collapses (zero, or dependent on its
/// predecessors) is replaced by a fresh pseudo-random row; rows < cols
/// leaves room for it.
void orthonormalize_rows(Matrix& block, Rng& rng) {
  const std::size_t n = block.cols();
  for (std::size_t c = 0; c < block.rows(); ++c) {
    double* v = &block(c, 0);
    for (int attempt = 0;; ++attempt) {
      CCG_EXPECT(attempt < 8);
      const double before = std::sqrt(simd::dot(v, v, n));
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t j = 0; j < c; ++j) {
          const double* u = &block(j, 0);
          simd::rank1_update(v, u, -simd::dot(u, v, n), n);
        }
      }
      const double norm = std::sqrt(simd::dot(v, v, n));
      if (norm > kDropTolerance * before) {
        for (std::size_t i = 0; i < n; ++i) v[i] /= norm;
        break;
      }
      fill_random(v, n, rng);
    }
  }
}

/// z ← (M·Q)ᵀ with q = Qᵀ: z(c, i) = Σ_j M(i, j)·q(c, j). Rows of M are
/// independent and each entry is one canonical-geometry simd::gather_dot,
/// so the pooled product is byte-identical at any thread count and tier.
void multiply(const SparseRows& m, const Matrix& q, Matrix& z) {
  const std::size_t p = q.rows();
  parallel::parallel_for(q.cols(), kRowBlock, [&](std::size_t begin,
                                                  std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t off = m.offsets[i];
      const std::size_t len = m.offsets[i + 1] - off;
      for (std::size_t c = 0; c < p; ++c) {
        z(c, i) = simd::gather_dot(row(q, c), m.cols.data() + off,
                                   m.values.data() + off, len);
      }
    }
  });
}

/// Row j of `out` ← Σ_c w(c, j)·row c of `in`, for j < rows.
void combine_rows(const Matrix& w, const Matrix& in, std::size_t rows,
                  Matrix& out) {
  const std::size_t n = in.cols();
  for (std::size_t j = 0; j < rows; ++j) {
    double* dst = &out(j, 0);
    std::fill(dst, dst + n, 0.0);
    for (std::size_t c = 0; c < in.rows(); ++c) {
      simd::rank1_update(dst, row(in, c), w(c, j), n);
    }
  }
}

}  // namespace

EigenDecomposition jacobi_eigen(const Matrix& input, double tolerance,
                                int max_sweeps) {
  obs::Stage stage(obs::stage::kJacobiEigen);
  CCG_EXPECT(input.square());
  CCG_EXPECT(input.is_symmetric(1e-6 * (1.0 + input.frobenius())));
  const std::size_t n = input.rows();

  Matrix a = input;                 // working copy, driven to diagonal
  Matrix vt = Matrix::identity(n);  // accumulated rotations, TRANSPOSED:
                                    // row j of vt is eigenvector column j

  const double frob = std::max(a.frobenius(), 1e-300);
  const double threshold = tolerance * frob;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    // simd::max_abs over each row tail is exact at any vector width.
    double off = 0.0;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      off = std::max(off, simd::max_abs(&a(p, p + 1), n - p - 1));
    }
    if (off <= threshold) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= threshold * 1e-3) continue;

        // Classical Jacobi rotation annihilating a(p,q).
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        rotate_offblock(a, vt, p, q, c, s);

        // The 2x2 pivot block: column update at k = p, q, then row update
        // at k = p, q.
        {
          const double akp = a(p, p), akq = a(p, q);
          a(p, p) = c * akp - s * akq;
          a(p, q) = s * akp + c * akq;
        }
        {
          const double akp = a(q, p), akq = a(q, q);
          a(q, p) = c * akp - s * akq;
          a(q, q) = s * akp + c * akq;
        }
        {
          const double apk = a(p, p), aqk = a(q, p);
          a(p, p) = c * apk - s * aqk;
          a(q, p) = s * apk + c * aqk;
        }
        {
          const double apk = a(p, q), aqk = a(q, q);
          a(p, q) = c * apk - s * aqk;
          a(q, q) = s * apk + c * aqk;
        }
      }
    }
  }

  // Extract and sort by descending |eigenvalue| — the order PCA truncates in.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = a(i, i);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return std::abs(diag[x]) > std::abs(diag[y]);
  });

  EigenDecomposition out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = diag[order[j]];
    for (std::size_t i = 0; i < n; ++i) {
      out.vectors(i, j) = vt(order[j], i);
    }
  }
  return out;
}

EigenDecomposition top_k_eigen(const Matrix& m, std::size_t k) {
  obs::Stage stage(obs::stage::kTopKEigen);
  CCG_EXPECT(m.square());
  const std::size_t n = m.rows();
  CCG_EXPECT(k <= n);
  const std::size_t p = std::max(2 * k, k + kMinOversample);
  // A block as wide as the matrix is the matrix; a zero matrix has no
  // dominant subspace to iterate towards, and Jacobi's order for it is the
  // canonical one.
  if (p >= n || m.abs_sum() == 0.0) return leading(jacobi_eigen(m), k);
  CCG_EXPECT(m.is_symmetric(1e-6 * (1.0 + m.frobenius())));

  static obs::Histogram& iterations_hist = obs::Registry::global().histogram(
      "ccg.linalg.topk.iterations", {.first_bound = 1.0, .growth = 2.0,
                                     .buckets = 16});
  static obs::Counter& fallbacks =
      obs::Registry::global().counter("ccg.linalg.topk.fallbacks");

  const SparseRows rows(m);
  Rng rng(kStartSeed);
  // Every block is stored transposed: row c is block column c.
  Matrix q(p, n);
  for (std::size_t c = 0; c < p; ++c) fill_random(&q(c, 0), n, rng);
  orthonormalize_rows(q, rng);
  Matrix z(p, n);       // (M·Q)ᵀ
  Matrix ritz(k, n);    // top-k Ritz vectors
  Matrix mritz(p, n);   // M times every Ritz vector: the next block
  Matrix t(p, p);
  std::vector<double> r(n);

  double worst = 0.0;
  double scale = 0.0;
  for (int iter = 1; iter <= kMaxIterations; ++iter) {
    multiply(rows, q, z);
    // Rayleigh–Ritz: T = QᵀMQ, filled from one triangle so it is exactly
    // symmetric.
    for (std::size_t a = 0; a < p; ++a) {
      for (std::size_t b = a; b < p; ++b) {
        t(a, b) = t(b, a) = simd::dot(&q(a, 0), &z(b, 0), n);
      }
    }
    const EigenDecomposition small = jacobi_eigen(t, kRitzTolerance);
    combine_rows(small.vectors, q, k, ritz);
    combine_rows(small.vectors, z, p, mritz);

    // Residual |M v − θ v| of each of the top-k Ritz pairs.
    scale = std::abs(small.values[0]);
    worst = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      std::copy_n(&mritz(j, 0), n, r.begin());
      simd::rank1_update(r.data(), &ritz(j, 0), -small.values[j], n);
      worst = std::max(worst, std::sqrt(simd::dot(r.data(), r.data(), n)));
    }
    if (worst <= kTolerance * scale) {
      iterations_hist.record(static_cast<double>(iter));
      EigenDecomposition out;
      out.values.assign(small.values.begin(), small.values.begin() + k);
      out.vectors = ritz.transpose();
      return out;
    }
    std::swap(q, mritz);
    orthonormalize_rows(q, rng);
  }

  iterations_hist.record(static_cast<double>(kMaxIterations));
  fallbacks.add();
  obs::log_warn("linalg: top_k_eigen hit its iteration cap; using dense Jacobi",
                {obs::field("n", n), obs::field("k", k),
                 obs::field("iterations", kMaxIterations),
                 obs::field("relative_residual", worst / scale)});
  return leading(jacobi_eigen(m), k);
}

PowerIterationResult power_iteration(const Matrix& m, int max_iterations,
                                     double tolerance) {
  obs::Stage stage(obs::stage::kPowerIteration);
  CCG_EXPECT(m.square());
  const std::size_t n = m.rows();
  PowerIterationResult result;
  if (n == 0) return result;

  // Deterministic non-degenerate start.
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 1.0 + 0.001 * static_cast<double>(i % 7);
  }

  // Mat-vec rows write disjoint outputs and each row is one canonical-
  // geometry simd::dot (fixed by n alone), so the parallel sweep is
  // byte-identical to the serial one at any tier and thread count; the
  // O(n) norm and Rayleigh reductions are single canonical dots.
  const double* rows = m.data().data();
  const auto matvec = [&](const std::vector<double>& in, std::vector<double>& out) {
    parallel::parallel_for(n, 16, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        out[i] = simd::dot(rows + i * n, in.data(), n);
      }
    });
  };

  double lambda = 0.0;
  std::vector<double> y(n);
  std::vector<double> my(n);
  for (int iter = 0; iter < max_iterations; ++iter) {
    matvec(x, y);
    double norm = std::sqrt(simd::dot(y.data(), y.data(), n));
    if (norm == 0.0) break;  // x in the null space
    for (std::size_t i = 0; i < n; ++i) y[i] /= norm;

    // Rayleigh quotient.
    matvec(y, my);
    const double new_lambda = simd::dot(y.data(), my.data(), n);
    result.iterations = iter + 1;
    x = y;
    if (std::abs(new_lambda - lambda) <= tolerance * (1.0 + std::abs(new_lambda))) {
      lambda = new_lambda;
      result.converged = true;
      break;
    }
    lambda = new_lambda;
  }
  result.value = lambda;
  result.vector = std::move(x);
  return result;
}

}  // namespace ccg
