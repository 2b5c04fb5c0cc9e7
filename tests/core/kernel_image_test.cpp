// The packed kernel image (sub-block Abar image, degree-bucketed global
// schedule, size-scheduled local update, fused dual+residual pass)
// against the scalar row-major kernels it replaced. Those kernels live only
// here, as the reference: every backend must reproduce their x, z, lambda
// and residual sums bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/admm.hpp"
#include "core/backend.hpp"
#include "core/scenario_binding.hpp"
#include "core/solve_model.hpp"
#include "feeders/synthetic.hpp"
#include "opf/decompose.hpp"
#include "runtime/instances.hpp"
#include "runtime/threaded_backend.hpp"
#include "simt/multi_device.hpp"
#include "simt/simt_backend.hpp"

namespace dopf::core {
namespace {

using dopf::opf::DistributedProblem;

constexpr double kRho = 100.0;
constexpr int kIterations = 500;

/// Algorithm 1 with the scalar row-major kernels: one sequential sum per
/// row of Abar_s, one per-variable CSR gather, one dual loop, one linear
/// residual accumulation per kResidualChunk chunk. `alpha` is the
/// over-relaxation factor of AdmmOptions::relaxation.
class RowMajorReference {
 public:
  RowMajorReference(const DistributedProblem& problem, double alpha)
      : alpha_(alpha),
        c_(problem.c),
        lb_(problem.lb),
        ub_(problem.ub),
        gather_(problem.num_vars) {
    for (const auto& comp : problem.components) {
      const auto proj =
          dopf::linalg::AffineProjector::try_build(comp.a, comp.b);
      offset_.push_back(global_idx_.size());
      nvars_.push_back(comp.num_vars());
      abar_.emplace_back(proj->abar().data().begin(),
                         proj->abar().data().end());
      bbar_.insert(bbar_.end(), proj->bbar().begin(), proj->bbar().end());
      global_idx_.insert(global_idx_.end(), comp.global.begin(),
                         comp.global.end());
    }
    for (std::size_t pos = 0; pos < global_idx_.size(); ++pos) {
      gather_[global_idx_[pos]].push_back(pos);
    }
    x_ = problem.x0;
    for (int g : global_idx_) z_.push_back(x_[g]);
    z_prev_ = z_;
    lambda_.assign(z_.size(), 0.0);
  }

  void iterate() {
    for (std::size_t i = 0; i < x_.size(); ++i) {
      double acc = 0.0;
      for (std::size_t pos : gather_[i]) acc += kRho * z_[pos] - lambda_[pos];
      const double deg = static_cast<double>(gather_[i].size());
      const double xhat = (acc - c_[i]) / (kRho * deg);
      x_[i] = std::min(std::max(xhat, lb_[i]), ub_[i]);
    }
    z_.swap(z_prev_);
    std::vector<double> y;
    for (std::size_t s = 0; s < nvars_.size(); ++s) {
      const std::size_t off = offset_[s], ns = nvars_[s];
      y.assign(ns, 0.0);
      for (std::size_t j = 0; j < ns; ++j) {
        y[j] = relaxed(off + j) + lambda_[off + j] / kRho;
      }
      for (std::size_t i = 0; i < ns; ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < ns; ++j) sum += abar_[s][i * ns + j] * y[j];
        z_[off + i] = bbar_[off + i] - sum;
      }
    }
    for (std::size_t pos = 0; pos < z_.size(); ++pos) {
      lambda_[pos] += kRho * (relaxed(pos) - z_[pos]);
    }
  }

  ResidualSums sums() const {
    std::vector<ResidualSums> partials(residual_num_chunks(z_.size()));
    for (std::size_t k = 0; k < partials.size(); ++k) {
      ResidualSums acc;
      const std::size_t end = std::min(z_.size(), (k + 1) * kResidualChunk);
      for (std::size_t pos = k * kResidualChunk; pos < end; ++pos) {
        const double bx = x_[global_idx_[pos]];
        const double d = bx - z_[pos];
        acc.pres2 += d * d;
        acc.bx2 += bx * bx;
        acc.z2 += z_[pos] * z_[pos];
        const double dz = z_[pos] - z_prev_[pos];
        acc.dz2 += dz * dz;
        acc.l2 += lambda_[pos] * lambda_[pos];
      }
      partials[k] = acc;
    }
    return combine_residual_chunks(partials);
  }

  const std::vector<double>& x() const { return x_; }
  const std::vector<double>& z() const { return z_; }
  const std::vector<double>& lambda() const { return lambda_; }
  const std::vector<std::size_t>& nvars() const { return nvars_; }
  const std::vector<std::vector<double>>& abar() const { return abar_; }

 private:
  double relaxed(std::size_t pos) const {
    const double bx = x_[global_idx_[pos]];
    return alpha_ == 1.0 ? bx : alpha_ * bx + (1.0 - alpha_) * z_prev_[pos];
  }

  double alpha_;
  std::vector<double> c_, lb_, ub_;
  std::vector<std::vector<std::size_t>> gather_;
  std::vector<std::size_t> offset_, nvars_;
  std::vector<std::vector<double>> abar_;
  std::vector<double> bbar_;
  std::vector<int> global_idx_;
  std::vector<double> x_, z_, z_prev_, lambda_;
};

/// What a fixed-length run leaves behind: the final iterate and the
/// residual sums after every iteration.
struct Trajectory {
  std::vector<double> x, z, lambda;
  std::vector<ResidualSums> sums;
};

Trajectory reference_run(const DistributedProblem& problem) {
  RowMajorReference ref(problem, 1.0);
  Trajectory out;
  for (int t = 1; t <= kIterations; ++t) {
    ref.iterate();
    out.sums.push_back(ref.sums());
  }
  out.x = ref.x();
  out.z = ref.z();
  out.lambda = ref.lambda();
  return out;
}

/// Drives a backend directly over `pack`; even iterations take the fused
/// dual+residual pass, odd ones the two separate calls.
Trajectory backend_run(const PackedLocalSolvers& pack,
                       ExecutionBackend& backend) {
  std::vector<double> x = pack.x0, z, z_prev, lambda, y;
  for (int g : pack.global_idx) z.push_back(x[g]);
  z_prev = z;
  lambda.assign(z.size(), 0.0);
  y.assign(z.size(), 0.0);
  Trajectory out;
  for (int t = 1; t <= kIterations; ++t) {
    PackedState st;
    st.rho = kRho;
    st.x = x;
    st.z = z;
    st.z_prev = z_prev;
    st.lambda = lambda;
    st.y = y;
    backend.global_update(pack, st);
    z.swap(z_prev);
    st.z = z;
    st.z_prev = z_prev;
    backend.local_update(pack, st);
    if (t % 2 == 0) {
      out.sums.push_back(backend.dual_update_and_residuals(pack, st));
    } else {
      backend.dual_update(pack, st);
      out.sums.push_back(backend.residual_sums(pack, st));
    }
  }
  out.x = x;
  out.z = z;
  out.lambda = lambda;
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const ResidualSums& a, const ResidualSums& b) {
  return std::memcmp(&a, &b, sizeof(ResidualSums)) == 0;
}

void expect_identical(const Trajectory& want, const Trajectory& got) {
  ASSERT_EQ(want.sums.size(), got.sums.size());
  for (std::size_t t = 0; t < want.sums.size(); ++t) {
    ASSERT_TRUE(same_bits(want.sums[t], got.sums[t]))
        << "residual sums differ after iteration " << t + 1;
  }
  EXPECT_TRUE(same_bits(want.x, got.x)) << "x";
  EXPECT_TRUE(same_bits(want.z, got.z)) << "z";
  EXPECT_TRUE(same_bits(want.lambda, got.lambda)) << "lambda";
}

/// A small synthetic feeder whose image holds sub-blocks of odd and even
/// size and constant rows.
DistributedProblem synthetic_problem() {
  dopf::feeders::SyntheticSpec spec;
  spec.num_buses = 40;
  spec.num_leaves = 12;
  spec.num_extra_lines = 2;
  spec.seed = 11;
  return dopf::opf::decompose(dopf::feeders::synthetic_feeder(spec));
}

const DistributedProblem& problem(const std::string& name) {
  static std::map<std::string, DistributedProblem> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache
             .emplace(name, name == "synthetic"
                                ? synthetic_problem()
                                : dopf::runtime::make_instance(name).problem)
             .first;
  }
  return it->second;
}

std::vector<std::unique_ptr<ExecutionBackend>> all_backends() {
  std::vector<std::unique_ptr<ExecutionBackend>> out;
  out.push_back(make_serial_backend());
  for (int threads : {1, 3, 8}) {
    out.push_back(dopf::runtime::make_threaded_backend(threads));
  }
  out.push_back(std::make_unique<dopf::simt::SimtBackend>());
  return out;
}

void check_instance(const std::string& name) {
  const DistributedProblem& p = problem(name);
  SolveModel model(p, {});
  ScenarioBinding binding(model);
  const Trajectory want = reference_run(p);
  for (const auto& backend : all_backends()) {
    SCOPED_TRACE(name + " / " + backend->name());
    expect_identical(want, backend_run(binding.pack(), *backend));
  }
}

TEST(KernelImageTest, Ieee13MatchesRowMajorReference) {
  check_instance("ieee13");
}

TEST(KernelImageTest, Ieee123MatchesRowMajorReference) {
  check_instance("ieee123");
}

TEST(KernelImageTest, Ieee8500MiniMatchesRowMajorReference) {
  check_instance("ieee8500_mini");
}

TEST(KernelImageTest, SyntheticMatchesRowMajorReference) {
  // Odd sizes run the scalar tail row, even ones only two-row lanes.
  const PackedLocalSolvers pack =
      SolveModel(problem("synthetic"), {}).make_pack();
  bool odd = false, even = false;
  for (const SubBlockGroup& g : pack.sub_groups) {
    (g.dim % 2 != 0 ? odd : even) = true;
  }
  EXPECT_TRUE(odd);
  EXPECT_TRUE(even);
  EXPECT_FALSE(pack.const_rows.empty());
  check_instance("synthetic");
}

TEST(KernelImageTest, SubBlockStoreHoldsRowMajorBlocks) {
  const DistributedProblem& p = problem("synthetic");
  SolveModel model(p, {});
  ScenarioBinding binding(model);
  const PackedLocalSolvers& pack = binding.pack();
  const RowMajorReference ref(p, 1.0);
  // Every logical block reads back with its bits, +0.0 outside the
  // sub-blocks.
  std::size_t logical = 0;
  std::vector<double> block;
  for (std::size_t s = 0; s < pack.num_components(); ++s) {
    const std::size_t ns = ref.nvars()[s];
    logical += ns * ns;
    block.assign(ns * ns, 1.0);
    pack.unpack_abar(s, block);
    ASSERT_TRUE(same_bits(block, ref.abar()[s])) << "component " << s;
  }
  // The blocks sit in schedule order, back to back, k^2 entries each.
  std::size_t total = 0, first = 0;
  for (const SubBlockGroup& g : pack.sub_groups) {
    ASSERT_EQ(g.first, first);
    ASSERT_EQ(g.abar, static_cast<std::int64_t>(total));
    const auto k = static_cast<std::size_t>(g.dim);
    total += (g.end - first) * k * k;
    first = g.end;
  }
  EXPECT_EQ(pack.abar.size(), total);
  // The exact zeros between blocks are not stored.
  EXPECT_LT(pack.abar.size(), logical);
}

TEST(KernelImageTest, GlobalScheduleBucketsEveryVariableByDegree) {
  const PackedLocalSolvers pack =
      SolveModel(problem("ieee123"), {}).make_pack();
  const std::size_t n = pack.num_global();
  ASSERT_EQ(pack.global_order.size(), n);
  std::vector<int> seen(n, 0);
  std::size_t begin = 0, bucketed = 0;
  for (int d = 1; d <= PackedLocalSolvers::kMaxBucketDegree; ++d) {
    for (std::size_t k = begin; k < pack.bucket_end[d - 1]; ++k) {
      const int i = pack.global_order[k];
      EXPECT_EQ(pack.gather_ptr[i + 1] - pack.gather_ptr[i], d);
      if (k > begin) EXPECT_LT(pack.global_order[k - 1], i);
      ++seen[i];
    }
    bucketed += pack.bucket_end[d - 1] - begin;
    begin = pack.bucket_end[d - 1];
  }
  for (std::size_t k = begin; k < n; ++k) {
    const int i = pack.global_order[k];
    const auto deg = pack.gather_ptr[i + 1] - pack.gather_ptr[i];
    EXPECT_TRUE(deg < 1 || deg > PackedLocalSolvers::kMaxBucketDegree);
    ++seen[i];
  }
  for (int v : seen) EXPECT_EQ(v, 1);
  // The fixed-trip buckets carry nearly every variable of the feeders.
  EXPECT_GE(static_cast<double>(bucketed), 0.98 * static_cast<double>(n));
}

TEST(KernelImageTest, RefreshedComponentMatchesReference) {
  const DistributedProblem& base = problem("ieee13");
  // A component whose blocks fall in more than one size group.
  const PackedLocalSolvers base_pack = SolveModel(base, {}).make_pack();
  std::size_t target = 0;
  for (;; ++target) {
    std::vector<int> sizes;
    for (int t = base_pack.comp_block_ptr[target];
         t < base_pack.comp_block_ptr[target + 1]; ++t) {
      sizes.push_back(base_pack.group_of(base_pack.comp_blocks[t]).dim);
    }
    if (std::adjacent_find(sizes.begin(), sizes.end(), std::not_equal_to<>()) !=
        sizes.end()) {
      break;
    }
  }
  DistributedProblem edited = base;
  auto& comp = edited.components[target];
  for (std::size_t r = 0; r < comp.a.rows(); ++r) {
    for (std::size_t c = 0; c < comp.a.cols(); ++c) comp.a(r, c) *= 2.0;
  }
  for (double& v : comp.b) v *= 2.0;

  SolveModel model(base, {});
  ScenarioBinding binding(model);
  ASSERT_EQ(binding.rebind(edited).refactorizations, 1);
  const Trajectory want = reference_run(edited);
  for (const auto& backend : all_backends()) {
    SCOPED_TRACE(backend->name());
    expect_identical(want, backend_run(binding.pack(), *backend));
  }
}

/// Makes a backend for the pack of the solver that will run it.
using BackendFactory =
    std::function<std::unique_ptr<ExecutionBackend>(const PackedLocalSolvers&)>;

/// SolverFreeAdmm::solve over a backend against the reference, with the
/// termination check every third iteration (the fused pass runs only
/// there) and over-relaxation `alpha`. Component timers on run the local
/// schedule one block at a time, and the serial and threaded backends must
/// book time on every component; off, the schedule in slices.
void check_solve(const DistributedProblem& p, double alpha,
                 const BackendFactory& make, bool timers) {
  AdmmOptions opt;
  opt.rho = kRho;
  opt.max_iterations = kIterations;
  opt.check_every = 3;
  opt.eps_rel = 0.0;  // never terminate: fixed-length trajectories
  opt.record_component_times = timers;
  opt.relaxation = alpha;
  SolverFreeAdmm admm(p, opt);
  auto backend = make(admm.packed());
  const std::string name = backend->name();
  admm.set_backend(std::move(backend));
  const AdmmResult res = admm.solve();

  RowMajorReference ref(p, alpha);
  std::size_t h = 0;
  for (int t = 1; t <= kIterations; ++t) {
    ref.iterate();
    if (t % opt.check_every != 0) continue;
    ASSERT_LT(h, res.history.size());
    const ResidualSums sums = ref.sums();
    const IterationRecord& rec = res.history[h++];
    EXPECT_EQ(rec.iteration, t);
    ASSERT_EQ(rec.primal_residual, std::sqrt(sums.pres2)) << "t=" << t;
    ASSERT_EQ(rec.dual_residual, kRho * std::sqrt(sums.dz2)) << "t=" << t;
  }
  EXPECT_EQ(h, res.history.size());
  EXPECT_TRUE(same_bits(ref.x(), res.x)) << "x";
  EXPECT_TRUE(same_bits(ref.z(), std::vector<double>(admm.z().begin(),
                                                     admm.z().end())))
      << "z";
  EXPECT_TRUE(same_bits(ref.lambda(),
                        std::vector<double>(admm.lambda().begin(),
                                            admm.lambda().end())))
      << "lambda";
  EXPECT_EQ(res.component_seconds.size(), p.components.size());
  if (timers && (name == "serial" || name == "threaded")) {
    for (std::size_t s = 0; s < res.component_seconds.size(); ++s) {
      EXPECT_GT(res.component_seconds[s], 0.0) << "component " << s;
    }
  }
}

void check_solve_all_backends(const DistributedProblem& p, double alpha) {
  const std::size_t count = all_backends().size();
  for (std::size_t k = 0; k < count; ++k) {
    auto backends = all_backends();
    SCOPED_TRACE(backends[k]->name());
    check_solve(
        p, alpha,
        [&](const PackedLocalSolvers&) { return std::move(backends[k]); },
        true);
  }
}

TEST(KernelImageTest, SolveWithSparseChecksAndTimersMatchesReference) {
  check_solve_all_backends(problem("synthetic"), 1.0);
}

TEST(KernelImageTest, RelaxedSolveMatchesReference) {
  // Over-relaxation runs in the shared kernels, so every backend must
  // reproduce the reference's relaxed trajectory bit for bit.
  check_solve_all_backends(problem("synthetic"), 1.6);
}

TEST(KernelImageTest, UnrelaxedKernelsKeepBxItself) {
  // At alpha == 1 the kernels must not evaluate alpha B x + (1 - alpha)
  // z_prev: that turns B x = -0 into +0 and a NaN z_prev into NaN.
  SolveModel model(problem("ieee13"), {});
  ScenarioBinding binding(model);
  const PackedLocalSolvers& pack = binding.pack();
  const std::size_t total = pack.total_local();
  for (const auto& backend : all_backends()) {
    SCOPED_TRACE(backend->name());
    std::vector<double> x(pack.num_global(), -0.0), z(total, 0.0),
        z_prev(total, std::nan("")), lambda(total, -0.0), y(total, 1.0);
    PackedState st;
    st.rho = kRho;
    st.x = x;
    st.z = z;
    st.z_prev = z_prev;
    st.lambda = lambda;
    st.y = y;
    backend->local_update(pack, st);
    for (double v : y) ASSERT_TRUE(v == 0.0 && std::signbit(v)) << v;
    backend->dual_update(pack, st);
    for (double v : lambda) ASSERT_TRUE(std::isfinite(v)) << v;
    backend->dual_update_and_residuals(pack, st);
    for (double v : lambda) ASSERT_TRUE(std::isfinite(v)) << v;
  }
}

TEST(KernelImageTest, Ieee13FingerprintMatchesCommittedCheckpoint) {
  // tests/golden/ieee13.ckpt records model_fp 4fa556f60c2d954a, hashed
  // from the row-major pack; the sub-block image must hash the same.
  SolveModel model(problem("ieee13"), {});
  ScenarioBinding binding(model);
  EXPECT_EQ(binding.model_fingerprint(), 0x4fa556f60c2d954aull);
}

/// One block of every n_s from 1 to 40, plus two more of each size with a
/// fixed-size kernel (so lockstep pairs and odd tails both run), in a
/// shuffled component order: the size groups interleave. Each block's
/// variables are drawn from a shared pool, so copy counts range from 1 past
/// kMaxBucketDegree. A_s is dense random with about n_s / 3 rows.
DistributedProblem every_size_problem() {
  std::vector<int> sizes(40);
  std::iota(sizes.begin(), sizes.end(), 1);
  for (int n : {4, 6, 8, 9, 10, 12, 18}) sizes.insert(sizes.end(), {n, n});
  std::mt19937 rng(20251019);
  std::shuffle(sizes.begin(), sizes.end(), rng);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);

  constexpr int kPool = 360;
  std::vector<int> pool(kPool);
  std::iota(pool.begin(), pool.end(), 0);
  std::vector<int> relabel(kPool, -1);
  DistributedProblem p;
  for (int n : sizes) {
    std::shuffle(pool.begin(), pool.end(), rng);
    dopf::opf::Component comp;
    comp.name = "block" + std::to_string(p.components.size());
    for (int j = 0; j < n; ++j) {
      int& g = relabel[pool[j]];
      if (g < 0) g = static_cast<int>(p.num_vars++);
      comp.global.push_back(g);
    }
    const std::size_t m = static_cast<std::size_t>((n + 2) / 3);
    comp.a = dopf::linalg::Matrix(m, static_cast<std::size_t>(n));
    for (std::size_t r = 0; r < m; ++r) {
      for (int j = 0; j < n; ++j) comp.a(r, j) = unit(rng);
      comp.b.push_back(unit(rng));
    }
    p.components.push_back(std::move(comp));
  }
  p.copy_count.assign(p.num_vars, 0);
  for (const auto& comp : p.components) {
    for (int g : comp.global) ++p.copy_count[g];
  }
  for (std::size_t i = 0; i < p.num_vars; ++i) {
    p.c.push_back(unit(rng));
    p.lb.push_back(-1.5 + 0.5 * unit(rng));
    p.ub.push_back(1.5 + 0.5 * unit(rng));
    p.x0.push_back(0.5 * unit(rng));
  }
  return p;
}

const DistributedProblem& every_size() {
  static const DistributedProblem p = every_size_problem();
  return p;
}

TEST(KernelScheduleTest, EverySizeMatchesRowMajorReference) {
  const std::vector<std::pair<std::string, BackendFactory>> backends = {
      {"serial",
       [](const PackedLocalSolvers&) { return make_serial_backend(); }},
      {"threaded(1)",
       [](const PackedLocalSolvers&) {
         return dopf::runtime::make_threaded_backend(1);
       }},
      {"threaded(2)",
       [](const PackedLocalSolvers&) {
         return dopf::runtime::make_threaded_backend(2);
       }},
      {"threaded(3)",
       [](const PackedLocalSolvers&) {
         return dopf::runtime::make_threaded_backend(3);
       }},
      {"simt",
       [](const PackedLocalSolvers&) {
         return std::make_unique<dopf::simt::SimtBackend>();
       }},
      {"multigpu(3)",
       [](const PackedLocalSolvers& pack) {
         dopf::simt::MultiGpuOptions options;
         options.num_devices = 3;
         return std::make_unique<dopf::simt::MultiDeviceBackend>(pack,
                                                                 options);
       }},
  };
  for (double alpha : {1.0, 1.6}) {
    for (bool timers : {false, true}) {
      for (const auto& [name, make] : backends) {
        SCOPED_TRACE(name + " alpha=" + std::to_string(alpha) +
                     (timers ? " timers" : ""));
        check_solve(every_size(), alpha, make, timers);
      }
    }
  }
}

/// The sub-block schedule lists every block once, grouped by (k, indexed)
/// ascending, with each component's blocks in comp_blocks; the store
/// follows the schedule.
void expect_local_schedule(const PackedLocalSolvers& pack) {
  std::vector<int> seen(pack.num_blocks(), 0);
  for (int b : pack.comp_blocks) ++seen[b];
  for (int v : seen) EXPECT_EQ(v, 1);
  ASSERT_FALSE(pack.sub_groups.empty());
  std::size_t first = 0;
  std::int64_t offset = 0, rows = 0;
  for (std::size_t g = 0; g < pack.sub_groups.size(); ++g) {
    const SubBlockGroup& group = pack.sub_groups[g];
    ASSERT_EQ(group.first, first);
    ASSERT_LT(first, group.end);
    if (g > 0) {
      const SubBlockGroup& prev = pack.sub_groups[g - 1];
      EXPECT_TRUE(prev.dim < group.dim ||
                  (prev.dim == group.dim && group.indexed && !prev.indexed));
    }
    EXPECT_EQ(group.abar, offset) << "group " << g;
    EXPECT_EQ(group.rows, rows) << "group " << g;
    const auto count = static_cast<std::int64_t>(group.end - first);
    offset += count * group.dim * group.dim;
    rows += count * group.dim;
    first = group.end;
  }
  EXPECT_EQ(static_cast<std::size_t>(offset), pack.abar.size());
  EXPECT_EQ(static_cast<std::size_t>(rows), pack.sub_rows.size());
  EXPECT_EQ(pack.sub_rows.size() + pack.const_rows.size(), pack.total_local());
}

/// Bucket d's positions are the gather_pos lists of its variables at
/// stride d, and sched_c/lb/ub are c/lb/ub in schedule order.
void expect_bucket_major(const PackedLocalSolvers& pack) {
  std::size_t k = 0, at = 0;
  for (int d = 1; d <= PackedLocalSolvers::kMaxBucketDegree; ++d) {
    for (; k < pack.bucket_end[d - 1]; ++k) {
      const int i = pack.global_order[k];
      ASSERT_EQ(pack.gather_ptr[i + 1] - pack.gather_ptr[i], d);
      for (int e = 0; e < d; ++e) {
        ASSERT_LT(at, pack.bucket_pos.size());
        EXPECT_EQ(pack.bucket_pos[at++],
                  pack.gather_pos[pack.gather_ptr[i] + e])
            << "variable " << i;
      }
    }
  }
  EXPECT_EQ(at, pack.bucket_pos.size());
  std::vector<double> c, lb, ub;
  for (int i : pack.global_order) {
    c.push_back(pack.c[i]);
    lb.push_back(pack.lb[i]);
    ub.push_back(pack.ub[i]);
  }
  EXPECT_TRUE(same_bits(c, pack.sched_c)) << "sched_c";
  EXPECT_TRUE(same_bits(lb, pack.sched_lb)) << "sched_lb";
  EXPECT_TRUE(same_bits(ub, pack.sched_ub)) << "sched_ub";
}

TEST(KernelScheduleTest, SchedulesCoverEveryBlockAndCopyOnce) {
  for (const DistributedProblem* p : {&every_size(), &problem("ieee123")}) {
    const PackedLocalSolvers pack = SolveModel(*p, {}).make_pack();
    expect_local_schedule(pack);
    expect_bucket_major(pack);
  }
  // The generator's sizes interleave in component order and every degree
  // bucket, plus the CSR tail, is populated.
  const PackedLocalSolvers pack = SolveModel(every_size(), {}).make_pack();
  // Dense random A_s give dense projectors: one block of each size from 2
  // to 40. The one-variable block, with its one constraint, has Abar = 0:
  // a constant row.
  EXPECT_EQ(pack.sub_groups.size(), 39u);
  EXPECT_EQ(pack.const_rows.size(), 1u);
  EXPECT_FALSE(std::is_sorted(pack.comp_nvars.begin(), pack.comp_nvars.end()));
  std::size_t first = 0;
  for (std::size_t end : pack.bucket_end) {
    EXPECT_LT(first, end);
    first = end;
  }
  EXPECT_LT(first, pack.num_global());
}

TEST(KernelScheduleTest, RebindInsideAGroupMatchesColdBind) {
  const DistributedProblem& base = every_size();
  // The middle block of a three-block fixed-size group, and a generic one.
  std::vector<std::size_t> targets;
  for (int n : {6, 18, 23}) {
    std::vector<std::size_t> group;
    for (std::size_t s = 0; s < base.components.size(); ++s) {
      if (base.components[s].num_vars() == static_cast<std::size_t>(n)) {
        group.push_back(s);
      }
    }
    targets.push_back(group[group.size() / 2]);
  }
  DistributedProblem edited = base;
  for (std::size_t s : targets) {
    edited.components[s].a(0, 0) += 0.5;
    edited.components[s].b[0] -= 0.25;
  }
  for (std::size_t i = 0; i < edited.num_vars; i += 3) {
    edited.c[i] *= -2.0;
    edited.lb[i] -= 0.5;
    edited.ub[i] += 0.25;
  }

  SolveModel model(base, {});
  ScenarioBinding binding(model);
  const RebindStats st = binding.rebind(edited);
  EXPECT_EQ(st.refactorizations, static_cast<int>(targets.size()));
  EXPECT_TRUE(st.objective_changed);
  EXPECT_TRUE(st.bounds_changed);

  const PackedLocalSolvers cold = SolveModel(edited, {}).make_pack();
  const PackedLocalSolvers& warm = binding.pack();
  EXPECT_TRUE(same_bits(cold.abar, warm.abar)) << "abar";
  EXPECT_TRUE(same_bits(cold.bbar, warm.bbar)) << "bbar";
  EXPECT_TRUE(same_bits(cold.c, warm.c)) << "c";
  EXPECT_TRUE(same_bits(cold.sched_c, warm.sched_c)) << "sched_c";
  EXPECT_TRUE(same_bits(cold.sched_lb, warm.sched_lb)) << "sched_lb";
  EXPECT_TRUE(same_bits(cold.sched_ub, warm.sched_ub)) << "sched_ub";
  EXPECT_EQ(cold.sub_rows, warm.sub_rows);
  EXPECT_EQ(cold.const_rows, warm.const_rows);
  EXPECT_EQ(cold.comp_blocks, warm.comp_blocks);
  EXPECT_EQ(cold.sub_groups.size(), warm.sub_groups.size());
  EXPECT_EQ(cold.bucket_pos, warm.bucket_pos);
  expect_bucket_major(warm);

  const Trajectory want = reference_run(edited);
  for (const auto& backend : all_backends()) {
    SCOPED_TRACE(backend->name());
    expect_identical(want, backend_run(warm, *backend));
  }
}

}  // namespace
}  // namespace dopf::core
