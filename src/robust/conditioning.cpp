#include "robust/conditioning.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <tuple>

#include "linalg/lanes.hpp"

namespace dopf::robust {

using dopf::linalg::Matrix;

namespace {

using dopf::linalg::lanes::Vec;
using dopf::linalg::lanes::Mask;

template <int W>
struct Workspace {
  dopf::linalg::lanes::Buffer<W> a, g, l, v, w;
};
using Workspaces =
    std::tuple<Workspace<1>, Workspace<2>, Workspace<4>, Workspace<8>>;

/// Power iteration of up to W m x m operators in lockstep, from a fixed
/// deterministic start vector: 1 + 0.25 (i % period), not axis-aligned (an
/// eigenvector-orthogonal start would stall), with a mild index-dependent
/// ramp that breaks symmetry. `step(v, w)` writes each operator's image of
/// v into w. Returns per lane ||op v|| for the last unit v, which converges
/// to the largest eigenvalue; good to a few percent after ~50 steps, plenty
/// for an order-of-magnitude verdict. A lane whose norm turns zero or
/// non-finite stops there with 0.0.
template <int W, class Step>
void power_norm(std::size_t m, int iterations, int period, Step&& step,
                Workspace<W>& ws, Vec<W>& result) {
  namespace lanes = dopf::linalg::lanes;
  ws.v.resize(m);
  ws.w.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    ws.v[i] = lanes::splat<W>(1.0 + 0.25 * static_cast<double>(i % period));
  }
  const Vec<W> one = lanes::splat<W>(1.0);
  const Vec<W> inf = lanes::splat<W>(std::numeric_limits<double>::infinity());
  Mask<W> alive = lanes::all_lanes<W>();
  result = Vec<W>{};
  for (int it = 0; it < iterations; ++it) {
    step(ws.v.data(), ws.w.data());
    Vec<W> norm{};
    for (std::size_t i = 0; i < m; ++i) norm += ws.w[i] * ws.w[i];
    norm = lanes::sqrt(norm);
    alive = alive & (norm > Vec<W>{}) & (norm < inf);
    result = lanes::select(alive, norm, Vec<W>{});
    if (!lanes::any(alive)) break;
    const Vec<W> divisor = lanes::select(alive, norm, one);
    for (std::size_t i = 0; i < m; ++i) ws.w[i] /= divisor;
    std::swap(ws.v, ws.w);
  }
}

/// cond(A A^T) of up to W blocks of m rows: the largest eigenvalue by power
/// iteration, the smallest by inverse iteration through the Cholesky
/// factor (lambda_min(G) = 1 / lambda_max(G^-1)); +inf where the factor
/// fails or the estimate is not positive. Blocks narrower than the widest
/// are zero-padded on the right, which leaves their Gram bits unchanged.
template <int W>
void estimate_chunk(const Matrix* const* blocks, std::size_t count,
                    Workspace<W>& ws, double* cond) {
  namespace lanes = dopf::linalg::lanes;
  const std::size_t m = blocks[0]->rows();
  std::size_t n = 0;
  for (std::size_t k = 0; k < count; ++k) n = std::max(n, blocks[k]->cols());
  lanes::gather<W>(
      count, m, n,
      [&](std::size_t k, std::size_t i, std::size_t j) {
        return j < blocks[k]->cols() ? (*blocks[k])(i, j) : 0.0;
      },
      ws.a);
  ws.g.resize(m * m);
  lanes::gram<W>(ws.a.data(), m, n, ws.g.data());
  const Vec<W>* g = ws.g.data();
  Vec<W> lmax;
  power_norm<W>(
      m, kPowerIterations, 7,
      [&](const Vec<W>* v, Vec<W>* w) {
        for (std::size_t i = 0; i < m; ++i) {
          Vec<W> sum{};
          for (std::size_t j = 0; j < m; ++j) sum += g[i * m + j] * v[j];
          w[i] = sum;
        }
      },
      ws, lmax);

  ws.l.assign(m * m, Vec<W>{});
  Mask<W> factored;
  lanes::Pivot pivots[W];
  lanes::cholesky<W>(g, m, dopf::linalg::kCholTol, ws.l.data(), factored,
                     pivots);
  Vec<W> lmin{};
  if (lanes::any(factored)) {
    const Vec<W>* l = ws.l.data();
    Vec<W> inv;
    power_norm<W>(
        m, kPowerIterations, 5,
        [&](const Vec<W>* v, Vec<W>* w) {
          std::copy(v, v + m, w);
          lanes::cholesky_solve<W>(l, m, w);
        },
        ws, inv);
    lmin = lanes::select(inv > Vec<W>{}, lanes::splat<W>(1.0) / inv, Vec<W>{});
  }
  for (std::size_t k = 0; k < count; ++k) {
    const int lane = static_cast<int>(k);
    const double lo = lanes::get(lmin, lane);
    cond[k] = lanes::get(factored, lane) == 0 || !(lo > 0.0)
                  ? std::numeric_limits<double>::infinity()
                  : lanes::get(lmax, lane) / lo;
  }
}

/// cond(A A^T) of every block of `blocks`, which share one row count, in
/// lane chunks (estimate_chunk).
void estimate_group(std::span<const Matrix* const> blocks, Workspaces& ws,
                    double* cond) {
  if (blocks.empty()) return;
  const std::size_t m = blocks[0]->rows();
  if (m == 0) {
    std::fill(cond, cond + blocks.size(), 1.0);
    return;
  }
  dopf::linalg::lanes::for_each_chunk(
      m, blocks.size(), [&]<int W>(std::size_t first, std::size_t count) {
        estimate_chunk<W>(blocks.data() + first, count,
                          std::get<Workspace<W>>(ws), cond + first);
      });
}

/// The verdict on one block from its cond estimate.
BlockConditioning judge(const dopf::opf::Component& comp, double cond) {
  BlockConditioning block;
  block.component = comp.name;
  block.rows = comp.num_rows();
  block.cols = comp.num_vars();
  block.rows_before_reduction = comp.rows_before_reduction;
  block.rank = comp.num_rows();  // full row rank by RREF construction
  if (comp.num_rows() == 0) {
    block.cond = 1.0;
    block.health = BlockHealth::kHealthy;
    return block;
  }

  block.cond = cond;
  if (std::isinf(block.cond)) {
    // Exact factorization failed: the projector does not exist as-is.
    // Probe what the remediation path would do so the report can state the
    // exact perturbation a regularized solve will accept: the ridge of the
    // solver's own factor step (0 when even the ridge fails).
    dopf::linalg::ProjectorOptions probe;
    probe.auto_regularize = true;
    dopf::linalg::ProjectorStatus status;
    std::vector<double> factor(comp.num_rows() * comp.num_rows());
    const dopf::linalg::GramBlock gram[] = {{&comp.a, factor.data(), &status}};
    dopf::linalg::factor_gram(gram, probe);
    block.ridge = status.ridge;
    block.health = BlockHealth::kDegenerate;
    return block;
  }
  if (block.cond >= kCondDegenerate) {
    block.health = BlockHealth::kDegenerate;
  } else if (block.cond >= kCondMarginal) {
    block.health = BlockHealth::kMarginal;
  } else {
    block.health = BlockHealth::kHealthy;
  }
  return block;
}

/// Analyze `comps` in lockstep: grouped by row count (ascending, then in
/// the given order), each group run in lane chunks.
std::vector<BlockConditioning> analyze_components(
    std::span<const dopf::opf::Component* const> comps) {
  std::vector<std::size_t> rows(comps.size());
  for (std::size_t k = 0; k < comps.size(); ++k) rows[k] = comps[k]->a.rows();
  std::vector<std::size_t> ends;
  const std::vector<std::size_t> order =
      dopf::linalg::lanes::group_by(rows, &ends);
  std::vector<const Matrix*> group;
  std::vector<double> group_cond;
  std::vector<double> cond(comps.size());
  Workspaces ws;
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    group.clear();
    for (std::size_t k = begin; k < end; ++k) {
      group.push_back(&comps[order[k]]->a);
    }
    group_cond.resize(group.size());
    estimate_group(group, ws, group_cond.data());
    for (std::size_t k = begin; k < end; ++k) {
      cond[order[k]] = group_cond[k - begin];
    }
    begin = end;
  }
  std::vector<BlockConditioning> blocks;
  blocks.reserve(comps.size());
  for (std::size_t k = 0; k < comps.size(); ++k) {
    blocks.push_back(judge(*comps[k], cond[k]));
  }
  return blocks;
}

}  // namespace

BlockConditioning analyze_component(const dopf::opf::Component& comp) {
  const dopf::opf::Component* comps[] = {&comp};
  return analyze_components(comps).front();
}

std::vector<BlockConditioning> analyze_conditioning(
    const dopf::opf::DistributedProblem& problem) {
  std::vector<const dopf::opf::Component*> comps;
  comps.reserve(problem.components.size());
  for (const auto& comp : problem.components) comps.push_back(&comp);
  return analyze_components(comps);
}

}  // namespace dopf::robust
