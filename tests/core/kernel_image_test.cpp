// The packed kernel image (panel-interleaved Abar, degree-bucketed global
// schedule, fused dual+residual pass) against the scalar row-major kernels
// it replaced. Those kernels live only here, as the reference: every
// backend must reproduce their x, z, lambda and residual sums bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
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
    const LocalSolvers solvers = LocalSolvers::precompute(problem);
    for (std::size_t s = 0; s < problem.components.size(); ++s) {
      const auto& comp = problem.components[s];
      const auto& proj = solvers.projectors[s];
      offset_.push_back(global_idx_.size());
      nvars_.push_back(comp.num_vars());
      abar_.emplace_back(proj.abar().data().begin(), proj.abar().data().end());
      bbar_.insert(bbar_.end(), proj.bbar().begin(), proj.bbar().end());
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

/// A small synthetic feeder whose component sizes leave every remainder
/// modulo the panel height.
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
  std::vector<bool> remainder(kPanelRows, false);
  for (const auto& comp : problem("synthetic").components) {
    remainder[comp.num_vars() % kPanelRows] = true;
  }
  for (std::size_t r = 1; r < kPanelRows; ++r) {
    EXPECT_TRUE(remainder[r]) << "no component with n_s % 4 == " << r;
  }
  check_instance("synthetic");
}

TEST(KernelImageTest, PanelStoreHoldsRowMajorBlocksAndZeroPadding) {
  const DistributedProblem& p = problem("synthetic");
  SolveModel model(p, {});
  ScenarioBinding binding(model);
  const PackedLocalSolvers& pack = binding.pack();
  const RowMajorReference ref(p, 1.0);
  std::size_t total = 0;
  for (std::size_t s = 0; s < pack.num_components(); ++s) {
    const std::size_t ns = ref.nvars()[s];
    ASSERT_EQ(pack.abar_offset[s], static_cast<std::int64_t>(total));
    for (std::size_t i = 0; i < ns; ++i) {
      for (std::size_t j = 0; j < ns; ++j) {
        ASSERT_EQ(pack.abar_at(s, i, j), ref.abar()[s][i * ns + j]);
      }
    }
    const std::size_t rows = PackedLocalSolvers::panel_size(ns) / ns;
    for (std::size_t i = ns; i < rows; ++i) {
      for (std::size_t j = 0; j < ns; ++j) {
        ASSERT_EQ(pack.abar_at(s, i, j), 0.0) << "padding row " << i;
      }
    }
    total += PackedLocalSolvers::panel_size(ns);
  }
  EXPECT_EQ(pack.abar.size(), total);
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
  std::size_t target = 0;
  while (base.components[target].num_vars() % kPanelRows == 0) ++target;
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

/// SolverFreeAdmm::solve over a backend against the reference, with the
/// termination check every third iteration (the fused pass runs only
/// there), component timers on, and over-relaxation `alpha`.
void check_solve(const DistributedProblem& p, double alpha,
                 std::unique_ptr<ExecutionBackend> backend) {
  AdmmOptions opt;
  opt.rho = kRho;
  opt.max_iterations = kIterations;
  opt.check_every = 3;
  opt.eps_rel = 0.0;  // never terminate: fixed-length trajectories
  opt.record_component_times = true;
  opt.relaxation = alpha;
  SolverFreeAdmm admm(p, opt);
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
}

TEST(KernelImageTest, SolveWithSparseChecksAndTimersMatchesReference) {
  const std::size_t count = all_backends().size();
  for (std::size_t k = 0; k < count; ++k) {
    auto backends = all_backends();
    SCOPED_TRACE(backends[k]->name());
    check_solve(problem("synthetic"), 1.0, std::move(backends[k]));
  }
}

TEST(KernelImageTest, RelaxedSolveMatchesReference) {
  // Over-relaxation runs in the shared kernels, so every backend must
  // reproduce the reference's relaxed trajectory bit for bit.
  const std::size_t count = all_backends().size();
  for (std::size_t k = 0; k < count; ++k) {
    auto backends = all_backends();
    SCOPED_TRACE(backends[k]->name());
    check_solve(problem("synthetic"), 1.6, std::move(backends[k]));
  }
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
  // from the row-major pack; the panel store must hash the same.
  SolveModel model(problem("ieee13"), {});
  ScenarioBinding binding(model);
  EXPECT_EQ(binding.model_fingerprint(), 0x4fa556f60c2d954aull);
}

}  // namespace
}  // namespace dopf::core
