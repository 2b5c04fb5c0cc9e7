#include "verify/mutation.hpp"

#include <string>
#include <utility>

namespace dopf::verify {

using dopf::core::ExecutionBackend;
using dopf::core::PackedLocalSolvers;
using dopf::core::PackedState;
using dopf::core::ResidualSums;

namespace {

class MutantBackend final : public ExecutionBackend {
 public:
  MutantBackend(std::unique_ptr<ExecutionBackend> inner, MutationSpec spec)
      : inner_(std::move(inner)),
        spec_(spec),
        name_("mutant(" + std::string(inner_->name()) + ")") {}

  const char* name() const override { return name_.c_str(); }

  void global_update(const PackedLocalSolvers& pack,
                     PackedState& state) override {
    inner_->global_update(pack, state);
  }

  void local_update(const PackedLocalSolvers& pack,
                    PackedState& state) override {
    inner_->local_update(pack, state);
    if (++calls_ == spec_.local_update_call && !state.z.empty()) {
      state.z[spec_.z_position % state.z.size()] += spec_.delta;
    }
  }

  void dual_update(const PackedLocalSolvers& pack,
                   PackedState& state) override {
    inner_->dual_update(pack, state);
  }

  ResidualSums residual_sums(const PackedLocalSolvers& pack,
                             const PackedState& state) override {
    return inner_->residual_sums(pack, state);
  }

  // The per-iteration hooks pass through, so a wrapped multigpu backend
  // keeps its fault processing, rewinds and simulated timing.
  dopf::core::IterationStart begin_iteration(int t) override {
    return inner_->begin_iteration(t);
  }
  bool can_rewind() const override { return inner_->can_rewind(); }
  void report_simulated_timing(
      dopf::core::TimingBreakdown& timing) const override {
    inner_->report_simulated_timing(timing);
  }
  std::string fault_report() const override { return inner_->fault_report(); }

 private:
  std::unique_ptr<ExecutionBackend> inner_;
  MutationSpec spec_;
  std::string name_;
  int calls_ = 0;
};

}  // namespace

std::unique_ptr<ExecutionBackend> make_mutant_backend(
    std::unique_ptr<ExecutionBackend> inner, const MutationSpec& spec) {
  return std::make_unique<MutantBackend>(std::move(inner), spec);
}

}  // namespace dopf::verify
