#pragma once

#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "opf/model.hpp"

namespace dopf::opf {

/// Thrown when a component block is numerically unusable: its Gram matrix
/// `A_s A_s^T` is not SPD within tolerance, so the closed-form projector
/// (15b)-(15c) does not exist. Carries component provenance so the failure
/// is actionable at the feeder level instead of surfacing as a NaN (or a
/// bare SingularMatrixError) deep inside the solver precompute.
class ConditioningError : public ModelError {
 public:
  ConditioningError(std::string component, std::size_t pivot_index,
                    double pivot_value);

  const std::string& component() const noexcept { return component_; }
  std::size_t pivot_index() const noexcept { return pivot_index_; }
  double pivot_value() const noexcept { return pivot_value_; }

 private:
  std::string component_;
  std::size_t pivot_index_ = 0;
  double pivot_value_ = 0.0;
};

/// One component subproblem s of the distributed model (9):
/// local feasible set  { x_s : A_s x_s = b_s }  plus the consensus map B_s.
///
/// Because each row of B_s selects exactly one global variable and a
/// component never copies the same global variable twice, B_s is stored as
/// the index vector `global` (local j  <->  global variable global[j]).
struct Component {
  std::string name;
  dopf::linalg::Matrix a;   ///< A_s, full row rank after preprocessing
  std::vector<double> b;    ///< b_s
  std::vector<int> global;  ///< B_s: local index -> global index
  std::size_t rows_before_reduction = 0;

  std::size_t num_rows() const { return a.rows(); }     // m_s
  std::size_t num_vars() const { return global.size(); }  // n_s
};

/// The component-wise distributed OPF (9): global objective/bounds plus the
/// per-component equality blocks. Produced by decompose().
struct DistributedProblem {
  std::size_t num_vars = 0;
  std::vector<double> c;
  std::vector<double> lb;
  std::vector<double> ub;
  std::vector<double> x0;
  std::vector<Component> components;
  /// copy_count[i] = sum_s |I_si| of (13): how many components hold a copy
  /// of global variable i. Always >= 1.
  std::vector<int> copy_count;

  std::size_t num_components() const { return components.size(); }
  /// Total local dimension sum_s n_s (the length of z in (17)).
  std::size_t total_local_vars() const;
};

struct DecomposeOptions {
  /// Merge each degree-1 bus (except the feeder head, bus 0) with its only
  /// incident line, as in Sec. V-A of the paper.
  bool merge_leaves = true;
  /// Row-reduce each A_s to full row rank (Sec. IV-B). Disabling this is
  /// only useful for the ablation benchmark; the solver requires full row
  /// rank and will throw on rank-deficient components.
  bool row_reduce = true;
  /// Scale every raw constraint row to unit infinity norm before the row
  /// reduction (preflight remediation for mixed-unit feeder data). Exact:
  /// the solution set of each A_s x = b_s is unchanged, but the relative
  /// pivot tolerance and the Gram conditioning both improve. Off by
  /// default so existing runs stay bit-identical.
  bool equilibrate_rows = false;
};

/// Split the model into per-component subproblems. Throws ModelError if a
/// component's equations are inconsistent or some variable would be covered
/// by no component.
DistributedProblem decompose(const dopf::network::Network& net,
                             const OpfModel& model,
                             const DecomposeOptions& options = {});

/// Convenience: build_model + decompose.
DistributedProblem decompose(const dopf::network::Network& net,
                             const DecomposeOptions& options = {});

}  // namespace dopf::opf
