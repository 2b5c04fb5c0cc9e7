#include "core/solve_model.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace dopf::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void fnv_vec(std::uint64_t& h, const std::vector<T>& v) {
  const std::uint64_t len = v.size();
  fnv_bytes(h, &len, sizeof(len));
  fnv_bytes(h, v.data(), v.size() * sizeof(T));
}

}  // namespace

SolveModel::SolveModel(const dopf::opf::DistributedProblem& problem,
                       dopf::linalg::ProjectorOptions options)
    : problem_(problem), options_(options) {
  // Retention is what makes this a model rather than a one-shot pack: the
  // factors must survive so scenario rebinds can reuse them.
  options_.keep_factorization = true;
  const auto start = std::chrono::steady_clock::now();
  solvers_ = LocalSolvers::precompute(problem_, options_);
  precompute_seconds_ = seconds_since(start);
}

SolveModel::SolveModel(const dopf::opf::DistributedProblem& problem,
                       dopf::linalg::ProjectorOptions options,
                       LocalSolvers solvers)
    : problem_(problem), options_(options), solvers_(std::move(solvers)) {
  options_.keep_factorization = true;
  if (solvers_.projectors.size() != problem_.components.size()) {
    throw std::invalid_argument(
        "SolveModel: solver count does not match component count");
  }
}

std::vector<double> SolveModel::rebind_rhs(std::size_t s,
                                           std::span<const double> b) {
  // The projector's bbar is scratch here: bindings copy the result into
  // their own packs, so a model shared by several bindings stays usable.
  dopf::linalg::AffineProjector& proj = solvers_.projectors[s];
  proj.rebind_rhs(b);
  return std::vector<double>(proj.bbar().begin(), proj.bbar().end());
}

void SolveModel::refresh_component(std::size_t s,
                                   const dopf::opf::Component& comp) {
  if (s >= num_components()) {
    throw std::invalid_argument("SolveModel::refresh_component: bad index");
  }
  if (comp.global != problem_.components[s].global) {
    throw std::invalid_argument(
        "SolveModel::refresh_component: component '" + comp.name +
        "' has a different variable set; that is a different model");
  }
  dopf::linalg::ProjectorStatus status;
  std::optional<dopf::linalg::AffineProjector> proj =
      dopf::linalg::AffineProjector::try_build(comp.a, comp.b, options_,
                                               &status);
  if (!proj) {
    throw dopf::opf::ConditioningError(comp.name, status.pivot_index,
                                       status.pivot_value);
  }
  solvers_.max_ridge = std::max(solvers_.max_ridge, status.ridge);
  solvers_.projectors[s] = std::move(*proj);
  problem_.components[s] = comp;
  ++refactorizations_;
}

std::uint64_t topology_fingerprint(const PackedLocalSolvers& pack) {
  std::uint64_t h = kFnvOffset;
  const std::uint64_t n = pack.num_global();
  fnv_bytes(h, &n, sizeof(n));
  fnv_vec(h, pack.comp_offset);
  // Abar is hashed as the logical row-major blocks it packs (offsets and
  // entries walked through the panels, padding skipped), so the
  // fingerprint does not depend on the panel layout and checkpoints taken
  // against row-major packs keep resuming.
  const std::size_t S = pack.num_components();
  std::uint64_t len = S;
  fnv_bytes(h, &len, sizeof(len));
  std::int64_t row_major_offset = 0;
  for (int ns : pack.comp_nvars) {
    fnv_bytes(h, &row_major_offset, sizeof(row_major_offset));
    row_major_offset += static_cast<std::int64_t>(ns) * ns;
  }
  fnv_vec(h, pack.comp_nvars);
  len = static_cast<std::uint64_t>(row_major_offset);
  fnv_bytes(h, &len, sizeof(len));
  for (std::size_t s = 0; s < S; ++s) {
    const std::size_t ns = static_cast<std::size_t>(pack.comp_nvars[s]);
    for (std::size_t i = 0; i < ns; ++i) {
      for (std::size_t j = 0; j < ns; ++j) {
        const double v = pack.abar_at(s, i, j);
        fnv_bytes(h, &v, sizeof(v));
      }
    }
  }
  fnv_vec(h, pack.global_idx);
  fnv_vec(h, pack.gather_ptr);
  fnv_vec(h, pack.gather_pos);
  return h;
}

std::uint64_t scenario_fingerprint(const PackedLocalSolvers& pack) {
  std::uint64_t h = kFnvOffset;
  fnv_vec(h, pack.bbar);
  fnv_vec(h, pack.c);
  fnv_vec(h, pack.lb);
  fnv_vec(h, pack.ub);
  fnv_vec(h, pack.x0);
  return h;
}

}  // namespace dopf::core
