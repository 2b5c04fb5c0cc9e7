#include "linalg/affine_projector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "linalg/lanes.hpp"

namespace dopf::linalg {

namespace {

/// The lane steps behind factor_gram and assemble_projector, W blocks at
/// once, each lane the scalar build of its block.
struct ProjectorLanes {
  template <int W>
  struct Workspace {
    lanes::Buffer<W> a, b, g, ridged, l, trial, col, y, abar, bbar;
  };
  using Workspaces =
      std::tuple<Workspace<1>, Workspace<2>, Workspace<4>, Workspace<8>>;

  /// The Tikhonov-ridge fallback for the lanes `ok` leaves out: ridge
  /// sigma = kRidgeRel * max(1, max diag G), doubled up to
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
      lanes::set(trying, k, kRidgeRel * max_diag);
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
      lanes::cholesky<W>(ws.ridged.data(), m, kCholTol, ws.trial.data(),
                         factored, trial_pivots);
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

  template <int W, class Block>
  static void gather_a(const Block* blocks, std::size_t count,
                       Workspace<W>& ws) {
    lanes::gather<W>(
        count, blocks[0].a->rows(), blocks[0].a->cols(),
        [&](std::size_t k, std::size_t i, std::size_t j) {
          return (*blocks[k].a)(i, j);
        },
        ws.a);
  }

  template <int W>
  static void factor(const GramBlock* blocks, std::size_t count,
                     const ProjectorOptions& options, Workspace<W>& ws) {
    using V = lanes::Vec<W>;
    using M = lanes::Mask<W>;
    const std::size_t m = blocks[0].a->rows();
    gather_a<W>(blocks, count, ws);
    ws.g.resize(m * m);
    lanes::gram<W>(ws.a.data(), m, blocks[0].a->cols(), ws.g.data());
    ws.l.assign(m * m, V{});
    lanes::Pivot pivots[W];
    M ok;
    lanes::cholesky<W>(ws.g.data(), m, kCholTol, ws.l.data(), ok, pivots);

    V ridge{};
    if (!lanes::all(ok) && options.auto_regularize) {
      regularize<W>(m, options, ws, ok, ridge, pivots);
    }

    for (std::size_t k = 0; k < count; ++k) {
      const int lane = static_cast<int>(k);
      ProjectorStatus& status = *blocks[k].status;
      status = ProjectorStatus{};
      if (lanes::get(ok, lane) == 0) {
        status.pivot_index = pivots[k].index;
        status.pivot_value = pivots[k].value;
        continue;
      }
      status.ok = true;
      status.ridge = lanes::get(ridge, lane);
      for (std::size_t e = 0; e < m * m; ++e) {
        blocks[k].factor[e] = lanes::get(ws.l[e], lane);
      }
    }
  }

  template <int W>
  static void assemble(const AssemblyBlock* blocks, std::size_t count,
                       Workspace<W>& ws) {
    const std::size_t m = blocks[0].a->rows();
    const std::size_t n = blocks[0].a->cols();
    gather_a<W>(blocks, count, ws);
    lanes::gather<W>(
        count, m, m,
        [&](std::size_t k, std::size_t i, std::size_t j) {
          return blocks[k].factor[i * m + j];
        },
        ws.l);
    lanes::gather<W>(
        count, m, 1,
        [&](std::size_t k, std::size_t i, std::size_t) {
          return blocks[k].b[i];
        },
        ws.b);
    ws.col.resize(m);
    ws.y.resize(m * n);
    ws.abar.resize(n * n);
    ws.bbar.resize(n);
    lanes::projector_matrix<W>(ws.a.data(), ws.l.data(), m, n, ws.col.data(),
                               ws.y.data(), ws.abar.data());
    lanes::projector_rhs<W>(ws.a.data(), ws.l.data(), ws.b.data(), m, n,
                            ws.col.data(), ws.bbar.data());
    for (std::size_t k = 0; k < count; ++k) {
      const int lane = static_cast<int>(k);
      for (std::size_t e = 0; e < n * n; ++e) {
        blocks[k].abar[e] = lanes::get(ws.abar[e], lane);
      }
      for (std::size_t e = 0; e < n; ++e) {
        blocks[k].bbar[e] = lanes::get(ws.bbar[e], lane);
      }
    }
  }

  /// Run `step` over `blocks` grouped by shape (ascending (m, n), input
  /// order inside a group), in lane chunks of each group.
  template <class Block, class Step>
  static void for_each_chunk(std::span<const Block> blocks, Step&& step) {
    std::vector<std::pair<std::size_t, std::size_t>> shapes;
    for (const Block& block : blocks) {
      shapes.emplace_back(block.a->rows(), block.a->cols());
    }
    std::vector<std::size_t> ends;
    std::vector<Block> sorted;
    for (const std::size_t k : lanes::group_by(shapes, &ends)) {
      sorted.push_back(blocks[k]);
    }
    Workspaces ws;
    std::size_t begin = 0;
    for (const std::size_t end : ends) {
      lanes::for_each_chunk(
          sorted[begin].a->rows(), end - begin,
          [&]<int W>(std::size_t first, std::size_t count) {
            step(sorted.data() + begin + first, count,
                 std::get<Workspace<W>>(ws));
          });
      begin = end;
    }
  }
};

}  // namespace

void factor_gram(std::span<const GramBlock> blocks,
                 const ProjectorOptions& options) {
  ProjectorLanes::for_each_chunk(
      blocks, [&](const GramBlock* chunk, std::size_t count, auto& ws) {
        ProjectorLanes::factor(chunk, count, options, ws);
      });
}

void assemble_projector(std::span<const AssemblyBlock> blocks) {
  ProjectorLanes::for_each_chunk(
      blocks, [](const AssemblyBlock* chunk, std::size_t count, auto& ws) {
        ProjectorLanes::assemble(chunk, count, ws);
      });
}

std::optional<AffineProjector> AffineProjector::try_build(
    const Matrix& a, std::span<const double> b,
    const ProjectorOptions& options, ProjectorStatus* status) {
  if (b.size() != a.rows()) {
    throw std::invalid_argument("AffineProjector: b size must match rows");
  }
  ProjectorStatus local;
  ProjectorStatus& st = status != nullptr ? *status : local;
  std::vector<double> factor(a.rows() * a.rows());
  const GramBlock gram[] = {{&a, factor.data(), &st}};
  factor_gram(gram, options);
  if (!st.ok) return std::nullopt;
  AffineProjector proj;
  proj.m_ = a.rows();
  proj.ridge_ = st.ridge;
  proj.abar_ = Matrix(a.cols(), a.cols());
  proj.bbar_.resize(a.cols());
  const AssemblyBlock block[] = {
      {&a, factor.data(), b, proj.abar_.data().data(), proj.bbar_.data()}};
  assemble_projector(block);
  return proj;
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
