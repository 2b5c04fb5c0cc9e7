#include "linalg/affine_projector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>

#include "linalg/lanes.hpp"

namespace dopf::linalg {

/// The lane build behind try_build_group: Gram product, Cholesky factor
/// (with the ridge fallback per lane) and assembly of up to W blocks at
/// once, each lane the scalar build of its block.
struct ProjectorLanes {
  template <int W>
  struct Workspace {
    lanes::Buffer<W> a, b, g, ridged, l, trial, col, y, abar, bbar;
  };
  using Workspaces =
      std::tuple<Workspace<1>, Workspace<2>, Workspace<4>, Workspace<8>>;

  /// The Tikhonov-ridge fallback for the lanes `ok` leaves out: ridge
  /// sigma = ridge_rel * max(1, max diag G), doubled up to
  /// max_ridge_doublings times until the ridged Gram matrix factors. A
  /// lane that factors joins `ok` with its factor in ws.l and its sigma in
  /// `ridge`; one that never does keeps the pivot of its last attempt.
  template <int W>
  static void regularize(std::size_t m, const ProjectorOptions& options,
                         Workspace<W>& ws, lanes::Mask<W>& ok,
                         lanes::Vec<W>& ridge, lanes::Pivot* pivots) {
    using V = lanes::Vec<W>;
    using M = lanes::Mask<W>;
    V trying{};
    for (int k = 0; k < W; ++k) {
      double max_diag = 1.0;
      for (std::size_t i = 0; i < m; ++i) {
        max_diag = std::max(max_diag, std::abs(lanes::get(ws.g[i * m + i], k)));
      }
      lanes::set(trying, k, options.ridge_rel * max_diag);
    }
    M pending = ok == M{};
    for (int attempt = 0;
         attempt <= options.max_ridge_doublings && lanes::any(pending);
         ++attempt) {
      ws.ridged = ws.g;
      for (std::size_t i = 0; i < m; ++i) ws.ridged[i * m + i] += trying;
      ws.trial.assign(m * m, V{});
      M factored;
      lanes::Pivot trial_pivots[W];
      lanes::cholesky<W>(ws.ridged.data(), m, options.chol_tol,
                         ws.trial.data(), factored, trial_pivots);
      const M passed = pending & factored;
      for (std::size_t e = 0; e < m * m; ++e) {
        ws.l[e] = lanes::select(passed, ws.trial[e], ws.l[e]);
      }
      ridge = lanes::select(passed, trying, ridge);
      pending = pending & (passed == M{});
      for (int k = 0; k < W; ++k) {
        if (lanes::get(pending, k) != 0) pivots[k] = trial_pivots[k];
      }
      ok = ok | passed;
      trying = lanes::select(pending, trying * 2.0, trying);
    }
  }

  template <int W>
  static void build(const Matrix* const* a, const std::span<const double>* b,
                    std::size_t count, const ProjectorOptions& options,
                    Workspace<W>& ws, std::optional<AffineProjector>* out,
                    ProjectorStatus* status) {
    using V = lanes::Vec<W>;
    using M = lanes::Mask<W>;
    const std::size_t m = a[0]->rows();
    const std::size_t n = a[0]->cols();
    lanes::gather<W>(
        count, m, n,
        [&](std::size_t k, std::size_t i, std::size_t j) {
          return (*a[k])(i, j);
        },
        ws.a);
    lanes::gather<W>(
        count, m, 1,
        [&](std::size_t k, std::size_t i, std::size_t) { return b[k][i]; },
        ws.b);
    ws.g.resize(m * m);
    lanes::gram<W>(ws.a.data(), m, n, ws.g.data());
    ws.l.assign(m * m, V{});
    lanes::Pivot pivots[W];
    M ok;
    lanes::cholesky<W>(ws.g.data(), m, options.chol_tol, ws.l.data(), ok,
                       pivots);

    V ridge{};
    if (!lanes::all(ok) && options.auto_regularize) {
      regularize<W>(m, options, ws, ok, ridge, pivots);
    }

    if (lanes::any(ok)) {
      ws.col.resize(m);
      ws.y.resize(m * n);
      ws.abar.resize(n * n);
      ws.bbar.resize(n);
      lanes::projector_matrix<W>(ws.a.data(), ws.l.data(), m, n, ws.col.data(),
                                 ws.y.data(), ws.abar.data());
      lanes::projector_rhs<W>(ws.a.data(), ws.l.data(), ws.b.data(), m, n,
                              ws.col.data(), ws.bbar.data());
    }
    for (std::size_t k = 0; k < count; ++k) {
      const int lane = static_cast<int>(k);
      status[k] = ProjectorStatus{};
      if (lanes::get(ok, lane) == 0) {
        status[k].pivot_index = pivots[k].index;
        status[k].pivot_value = pivots[k].value;
        continue;
      }
      AffineProjector proj;
      proj.m_ = m;
      proj.ridge_ = lanes::get(ridge, lane);
      proj.abar_ = Matrix(n, n);
      for (std::size_t e = 0; e < n * n; ++e) {
        proj.abar_.data()[e] = lanes::get(ws.abar[e], lane);
      }
      proj.bbar_.resize(n);
      for (std::size_t e = 0; e < n; ++e) {
        proj.bbar_[e] = lanes::get(ws.bbar[e], lane);
      }
      if (options.keep_factorization) {
        Matrix factor(m, m);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j <= i; ++j) {
            factor(i, j) = lanes::get(ws.l[i * m + j], lane);
          }
        }
        proj.factor_ = std::move(factor);
        proj.a_ = *a[k];
      }
      status[k].ok = true;
      status[k].ridge = proj.ridge_;
      out[k] = std::move(proj);
    }
  }
};

std::vector<std::optional<AffineProjector>> AffineProjector::try_build_group(
    std::span<const Matrix* const> a,
    std::span<const std::span<const double>> b,
    const ProjectorOptions& options, std::span<ProjectorStatus> status) {
  if (b.size() != a.size() || status.size() != a.size()) {
    throw std::invalid_argument(
        "AffineProjector::try_build_group: group sizes differ");
  }
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k]->rows() != a[0]->rows() || a[k]->cols() != a[0]->cols()) {
      throw std::invalid_argument(
          "AffineProjector::try_build_group: blocks differ in shape");
    }
    if (a[k]->rows() != b[k].size()) {
      throw std::invalid_argument("AffineProjector: b size must match rows");
    }
  }
  std::vector<std::optional<AffineProjector>> out(a.size());
  if (a.empty()) return out;
  ProjectorLanes::Workspaces ws;
  lanes::for_each_chunk(
      a[0]->rows(), a.size(), [&]<int W>(std::size_t first, std::size_t count) {
        ProjectorLanes::build<W>(
            a.data() + first, b.data() + first, count, options,
            std::get<ProjectorLanes::Workspace<W>>(ws), out.data() + first,
            status.data() + first);
      });
  return out;
}

std::optional<AffineProjector> AffineProjector::try_build(
    const Matrix& a, std::span<const double> b,
    const ProjectorOptions& options, ProjectorStatus* status) {
  const Matrix* blocks[] = {&a};
  const std::span<const double> rhs[] = {b};
  ProjectorStatus local;
  auto built = try_build_group(blocks, rhs, options,
                               std::span<ProjectorStatus>(
                                   status != nullptr ? status : &local, 1));
  return std::move(built[0]);
}

AffineProjector::AffineProjector(const Matrix& a, std::span<const double> b) {
  ProjectorStatus status;
  std::optional<AffineProjector> built = try_build(a, b, {}, &status);
  if (!built) {
    // Gram matrix A A^T is SPD iff A has full row rank.
    throw SingularMatrixError(
        "Cholesky: matrix is not positive definite (pivot " +
        std::to_string(status.pivot_value) + " at " +
        std::to_string(status.pivot_index) + ")");
  }
  *this = std::move(*built);
}

void AffineProjector::rebind_rhs(std::span<const double> b) {
  if (!factor_.has_value()) {
    throw std::logic_error(
        "AffineProjector::rebind_rhs: projector was built without "
        "keep_factorization");
  }
  if (b.size() != m_) {
    throw std::invalid_argument("AffineProjector::rebind_rhs: b size mismatch");
  }
  // The bbar kernel of the build, replayed through the retained factor:
  // bit-identical to a cold build with the same A and this b.
  std::vector<double> scratch(m_);
  lanes::projector_rhs<1>(a_.data().data(), factor_->data().data(), b.data(),
                          m_, dim(), scratch.data(), bbar_.data());
}

std::size_t AffineProjector::heap_bytes() const {
  std::size_t doubles = abar_.data().size() + bbar_.capacity() +
                        a_.data().size();
  if (factor_) doubles += factor_->data().size();
  return doubles * sizeof(double);
}

void AffineProjector::project_into(std::span<const double> y,
                                   std::span<double> out) const {
  // P(y) = -Abar y + bbar  (see header comment).
  const std::size_t n = dim();
  if (y.size() != n || out.size() != n) {
    throw std::invalid_argument("AffineProjector::project: size mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    const auto row = abar_.row(i);
    for (std::size_t j = 0; j < n; ++j) sum += row[j] * y[j];
    out[i] = bbar_[i] - sum;
  }
}

}  // namespace dopf::linalg
