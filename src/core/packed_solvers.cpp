#include "core/packed_solvers.hpp"

#include <algorithm>
#include <utility>

namespace dopf::core {

using dopf::opf::Component;
using dopf::opf::DistributedProblem;

LocalSolvers LocalSolvers::precompute(
    const DistributedProblem& problem,
    const dopf::linalg::ProjectorOptions& options) {
  LocalSolvers solvers;
  solvers.projectors.reserve(problem.components.size());
  for (const Component& comp : problem.components) {
    dopf::linalg::ProjectorStatus status;
    std::optional<dopf::linalg::AffineProjector> proj =
        dopf::linalg::AffineProjector::try_build(comp.a, comp.b, options,
                                                 &status);
    if (!proj) {
      throw dopf::opf::ConditioningError(comp.name, status.pivot_index,
                                         status.pivot_value);
    }
    solvers.max_ridge = std::max(solvers.max_ridge, status.ridge);
    solvers.projectors.push_back(std::move(*proj));
  }
  return solvers;
}

std::size_t PackedLocalSolvers::bytes() const {
  return sizeof(std::int64_t) * (comp_offset.size() + abar_offset.size() +
                                 gather_ptr.size() + gather_pos.size()) +
         sizeof(int) * (comp_nvars.size() + global_idx.size() +
                        global_order.size()) +
         sizeof(std::size_t) * bucket_end.size() +
         sizeof(double) * (abar.size() + bbar.size() + c.size() + lb.size() +
                           ub.size() + x0.size());
}

void PackedLocalSolvers::set_abar(std::size_t s,
                                  std::span<const double> row_major) {
  const std::size_t n = static_cast<std::size_t>(comp_nvars[s]);
  double* panels = abar.data() + abar_offset[s];
  for (std::size_t i = 0; i < n; ++i) {
    double* panel = panels + i / kPanelRows * kPanelRows * n + i % kPanelRows;
    for (std::size_t j = 0; j < n; ++j) {
      panel[j * kPanelRows] = row_major[i * n + j];
    }
  }
}

PackedLocalSolvers PackedLocalSolvers::build(const DistributedProblem& problem,
                                             const LocalSolvers& solvers) {
  PackedLocalSolvers pack;
  const std::size_t S = problem.components.size();
  pack.comp_offset.reserve(S);
  pack.abar_offset.reserve(S);
  pack.comp_nvars.reserve(S);

  std::size_t abar_total = 0, local_total = 0;
  for (const Component& comp : problem.components) {
    local_total += comp.num_vars();
    abar_total += panel_size(comp.num_vars());
  }
  // Zero fill: the padding rows of each last panel stay zero.
  pack.abar.assign(abar_total, 0.0);
  pack.bbar.reserve(local_total);
  pack.global_idx.reserve(local_total);

  std::int64_t zoff = 0, aoff = 0;
  for (std::size_t s = 0; s < S; ++s) {
    const Component& comp = problem.components[s];
    const auto& proj = solvers.projectors[s];
    const std::size_t ns = comp.num_vars();
    pack.comp_offset.push_back(zoff);
    pack.abar_offset.push_back(aoff);
    pack.comp_nvars.push_back(static_cast<int>(ns));

    pack.set_abar(s, proj.abar().data());
    pack.bbar.insert(pack.bbar.end(), proj.bbar().begin(), proj.bbar().end());
    pack.global_idx.insert(pack.global_idx.end(), comp.global.begin(),
                           comp.global.end());
    zoff += static_cast<std::int64_t>(ns);
    aoff += static_cast<std::int64_t>(panel_size(ns));
  }

  const std::size_t n = problem.num_vars;
  pack.c = problem.c;
  pack.lb = problem.lb;
  pack.ub = problem.ub;
  pack.x0 = problem.x0;
  // Gather lists: z positions per global variable, in ascending z order so
  // per-variable summation matches the component-order scatter bit-for-bit.
  pack.gather_ptr.assign(n + 1, 0);
  for (int g : pack.global_idx) ++pack.gather_ptr[g + 1];
  for (std::size_t i = 0; i < n; ++i) {
    pack.gather_ptr[i + 1] += pack.gather_ptr[i];
  }
  pack.gather_pos.resize(pack.global_idx.size());
  std::vector<std::int64_t> cursor(pack.gather_ptr.begin(),
                                   pack.gather_ptr.end() - 1);
  for (std::size_t pos = 0; pos < pack.global_idx.size(); ++pos) {
    pack.gather_pos[cursor[pack.global_idx[pos]]++] =
        static_cast<std::int64_t>(pos);
  }
  // Global-update schedule: a stable partition of the variables by copy
  // count, so each fixed-degree bucket runs a fixed-trip gather.
  auto degree = [&](std::size_t i) {
    return pack.gather_ptr[i + 1] - pack.gather_ptr[i];
  };
  pack.global_order.reserve(n);
  for (int d = 1; d <= kMaxBucketDegree; ++d) {
    for (std::size_t i = 0; i < n; ++i) {
      if (degree(i) == d) pack.global_order.push_back(static_cast<int>(i));
    }
    pack.bucket_end[d - 1] = pack.global_order.size();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (degree(i) < 1 || degree(i) > kMaxBucketDegree) {
      pack.global_order.push_back(static_cast<int>(i));
    }
  }
  return pack;
}

}  // namespace dopf::core
