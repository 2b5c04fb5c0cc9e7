#include "core/packed_solvers.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "linalg/lanes.hpp"

namespace dopf::core {

using dopf::opf::Component;
using dopf::opf::DistributedProblem;

LocalSolvers LocalSolvers::precompute(
    const DistributedProblem& problem,
    const dopf::linalg::ProjectorOptions& options) {
  // Same-shape blocks are built in lockstep (linalg/lanes.hpp): grouped by
  // (m_s, n_s), ascending, and by s inside a group. Each projector is
  // bit-identical to its block built alone.
  const std::size_t S = problem.components.size();
  std::vector<std::pair<std::size_t, std::size_t>> shapes(S);
  for (std::size_t s = 0; s < S; ++s) {
    const Component& comp = problem.components[s];
    shapes[s] = {comp.a.rows(), comp.a.cols()};
  }
  std::vector<std::size_t> ends;
  const std::vector<std::size_t> order =
      dopf::linalg::lanes::group_by(shapes, &ends);
  std::vector<std::optional<dopf::linalg::AffineProjector>> built(S);
  std::vector<dopf::linalg::ProjectorStatus> status(S);
  std::vector<const dopf::linalg::Matrix*> a;
  std::vector<std::span<const double>> b;
  std::vector<dopf::linalg::ProjectorStatus> group_status;
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    a.clear();
    b.clear();
    for (std::size_t k = begin; k < end; ++k) {
      const Component& comp = problem.components[order[k]];
      a.push_back(&comp.a);
      b.push_back(comp.b);
    }
    group_status.resize(a.size());
    auto group = dopf::linalg::AffineProjector::try_build_group(
        a, b, options, group_status);
    for (std::size_t k = begin; k < end; ++k) {
      built[order[k]] = std::move(group[k - begin]);
      status[order[k]] = group_status[k - begin];
    }
    begin = end;
  }

  LocalSolvers solvers;
  solvers.projectors.reserve(S);
  for (std::size_t s = 0; s < S; ++s) {
    if (!built[s]) {
      throw dopf::opf::ConditioningError(problem.components[s].name,
                                         status[s].pivot_index,
                                         status[s].pivot_value);
    }
    solvers.max_ridge = std::max(solvers.max_ridge, status[s].ridge);
    solvers.projectors.push_back(std::move(*built[s]));
  }
  return solvers;
}

std::size_t PackedLocalSolvers::image_bytes() const {
  return sizeof(std::int64_t) * (comp_offset.size() + abar_offset.size() +
                                 gather_ptr.size() + gather_pos.size()) +
         sizeof(int) * (comp_nvars.size() + global_idx.size() +
                        global_order.size()) +
         sizeof(std::size_t) * bucket_end.size() +
         sizeof(double) * (abar.size() + bbar.size() + c.size() + lb.size() +
                           ub.size() + x0.size());
}

std::size_t PackedLocalSolvers::bytes() const {
  return image_bytes() +
         sizeof(int) * (bucket_pos.size() + local_order.size()) +
         sizeof(std::size_t) * local_group_end.size() +
         sizeof(double) * (sched_c.size() + sched_lb.size() + sched_ub.size());
}

namespace {

void permute(const std::vector<double>& from, const std::vector<int>& order,
             std::vector<double>& to) {
  to.resize(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) to[k] = from[order[k]];
}

}  // namespace

void PackedLocalSolvers::schedule_objective() {
  permute(c, global_order, sched_c);
}

void PackedLocalSolvers::schedule_bounds() {
  permute(lb, global_order, sched_lb);
  permute(ub, global_order, sched_ub);
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
  pack.comp_nvars.reserve(S);

  std::size_t abar_total = 0, local_total = 0;
  for (const Component& comp : problem.components) {
    local_total += comp.num_vars();
    abar_total += panel_size(comp.num_vars());
  }
  pack.bbar.reserve(local_total);
  pack.global_idx.reserve(local_total);

  std::int64_t zoff = 0;
  for (std::size_t s = 0; s < S; ++s) {
    const Component& comp = problem.components[s];
    const auto& proj = solvers.projectors[s];
    pack.comp_offset.push_back(zoff);
    pack.comp_nvars.push_back(static_cast<int>(comp.num_vars()));
    pack.bbar.insert(pack.bbar.end(), proj.bbar().begin(), proj.bbar().end());
    pack.global_idx.insert(pack.global_idx.end(), comp.global.begin(),
                           comp.global.end());
    zoff += static_cast<std::int64_t>(comp.num_vars());
  }

  // Local schedule: a stable sort by n_s, so same-size blocks run through
  // the same fixed-size kernel. The panel store follows it, so a group's
  // blocks are adjacent in memory.
  const std::vector<std::size_t> local_order =
      dopf::linalg::lanes::group_by(pack.comp_nvars, &pack.local_group_end);
  pack.local_order.assign(local_order.begin(), local_order.end());
  // Zero fill: the padding rows of each last panel stay zero.
  pack.abar.assign(abar_total, 0.0);
  pack.abar_offset.assign(S, 0);
  std::int64_t aoff = 0;
  for (int s : pack.local_order) {
    pack.abar_offset[s] = aoff;
    aoff += static_cast<std::int64_t>(panel_size(pack.comp_nvars[s]));
  }
  for (std::size_t s = 0; s < S; ++s) {
    pack.set_abar(s, solvers.projectors[s].abar().data());
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
  // count, so each fixed-degree bucket runs a fixed-trip gather over
  // contiguous positions and contiguous c/lb/ub.
  auto degree = [&](std::size_t i) {
    return pack.gather_ptr[i + 1] - pack.gather_ptr[i];
  };
  pack.global_order.reserve(n);
  for (int d = 1; d <= kMaxBucketDegree; ++d) {
    for (std::size_t i = 0; i < n; ++i) {
      if (degree(i) != d) continue;
      pack.global_order.push_back(static_cast<int>(i));
      for (std::int64_t k = pack.gather_ptr[i]; k < pack.gather_ptr[i + 1];
           ++k) {
        pack.bucket_pos.push_back(static_cast<int>(pack.gather_pos[k]));
      }
    }
    pack.bucket_end[d - 1] = pack.global_order.size();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (degree(i) < 1 || degree(i) > kMaxBucketDegree) {
      pack.global_order.push_back(static_cast<int>(i));
    }
  }
  pack.schedule_objective();
  pack.schedule_bounds();
  return pack;
}

}  // namespace dopf::core
