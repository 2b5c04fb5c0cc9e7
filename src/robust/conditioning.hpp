#pragma once

#include <string>
#include <vector>

#include "linalg/affine_projector.hpp"
#include "opf/decompose.hpp"

namespace dopf::robust {

/// Classification of one component block's numerical health.
enum class BlockHealth { kHealthy, kMarginal, kDegenerate };

/// Conditioning estimate for one component's equality block A_s (after the
/// RREF preprocessing of Sec. IV-B). `rank` is the numerical row rank the
/// pivoted reduction found; `cond` estimates cond(A_s A_s^T) — the matrix
/// whose Cholesky factorization the closed-form projector (15b)-(15c)
/// stands on. `ridge` is the Tikhonov perturbation the remediation policy
/// would need (0 when the exact factorization succeeds).
struct BlockConditioning {
  std::string component;
  std::size_t rows = 0;                   ///< m_s after reduction
  std::size_t cols = 0;                   ///< n_s
  std::size_t rows_before_reduction = 0;
  std::size_t rank = 0;
  double cond = 1.0;
  double ridge = 0.0;
  BlockHealth health = BlockHealth::kHealthy;
};

/// cond(A_s A_s^T) thresholds for the marginal / degenerate verdicts.
inline constexpr double kCondMarginal = 1e8;
inline constexpr double kCondDegenerate = 1e12;
/// Power-iteration steps for the extreme-eigenvalue estimates. The
/// iteration is deterministic (fixed start vector), so preflight output is
/// reproducible across runs and backends.
inline constexpr int kPowerIterations = 48;

/// Analyze one component block.
BlockConditioning analyze_component(const dopf::opf::Component& comp);

/// Analyze every component of a decomposed problem.
std::vector<BlockConditioning> analyze_conditioning(
    const dopf::opf::DistributedProblem& problem);

}  // namespace dopf::robust
