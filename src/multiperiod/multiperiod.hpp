#pragma once

#include <array>
#include <vector>

#include "network/network.hpp"
#include "opf/decompose.hpp"
#include "opf/model.hpp"

/// Multi-period distributed OPF with energy storage.
///
/// Extension beyond the paper's single-period evaluation: its component-wise
/// consensus formulation accommodates *time-coupled* components naturally
/// (the setting of the paper's ref [15], "distributed multi-period
/// three-phase OPF"). Each period contributes a full copy of the
/// single-period model (9); each storage device contributes one extra
/// component whose equality block links its state of charge across periods
/// and whose consensus copies tie into every period's bus balance. The
/// result is an ordinary DistributedProblem, solvable unchanged by
/// core::SolverFreeAdmm on any execution backend (serial, threaded, simt,
/// multigpu).
namespace dopf::multiperiod {

/// A grid-connected battery attached to a bus. Charging and discharging are
/// separate per-phase variables (so the round-trip efficiency stays linear:
/// it is applied on the charge side); the network sees their sum as an
/// injection.
struct Storage {
  std::string name;
  int bus = -1;
  dopf::network::PhaseSet phases = dopf::network::PhaseSet::abc();
  double charge_max = 0.5;     ///< per-phase charging limit (power units)
  double discharge_max = 0.5;  ///< per-phase discharging limit
  double energy_max = 2.0;     ///< usable capacity (power units x hours)
  double energy_init = 1.0;    ///< state of charge at t = 0
  double efficiency = 0.9;     ///< round-trip, applied on the charge side
  /// Require the final state of charge to be >= energy_init
  /// (sustainability over the horizon).
  bool sustain = true;
};

struct MultiPeriodSpec {
  int periods = 24;
  double period_hours = 1.0;
  /// Per-period multiplier applied to every load's reference power
  /// (size == periods; defaults to all-ones).
  std::vector<double> load_scale;
  /// Per-period marginal price of substation energy (size == periods;
  /// defaults to all-ones). Price spread is what makes storage useful.
  std::vector<double> price;
  std::vector<Storage> storages;
};

/// Index bookkeeping for one storage device in the stacked problem.
struct StorageVars {
  /// Global index of the state of charge e_t, per period.
  std::vector<int> soc;
  /// Global indices of the charging power (<= 0) per period and phase
  /// (-1 where the phase is absent).
  std::vector<std::array<int, 3>> charge;
  /// Global indices of the discharging power (>= 0) per period and phase.
  std::vector<std::array<int, 3>> discharge;
};

/// The stacked multi-period problem plus the maps needed to interpret its
/// solution.
struct MultiPeriodProblem {
  dopf::opf::DistributedProblem problem;
  int periods = 0;
  double period_hours = 1.0;
  /// Global-variable offset of each period's block.
  std::vector<std::size_t> period_offset;
  /// Per-period single-period models (loads scaled, storage injections
  /// added as generators) for residual checks / SolutionView.
  std::vector<dopf::opf::OpfModel> period_models;
  /// Per-period networks matching period_models.
  std::vector<dopf::network::Network> period_nets;
  std::vector<StorageVars> storage_vars;
  /// Generator ids (charge, discharge) of storage device k inside every
  /// period net.
  std::vector<std::pair<int, int>> storage_gen_ids;

  /// State of charge of storage k after period t (0-based), from a solved x.
  double soc(std::span<const double> x, std::size_t k, int t) const {
    return x[storage_vars[k].soc[t]];
  }
  /// Net injection of storage k in period t summed over phases.
  double net_injection(std::span<const double> x, std::size_t k, int t) const;
};

/// Stack `spec.periods` copies of the network's OPF, wire in the storage
/// devices, and decompose. Throws ModelError / invalid_argument on
/// inconsistent specs.
MultiPeriodProblem build_multiperiod(const dopf::network::Network& net,
                                     const MultiPeriodSpec& spec,
                                     const dopf::opf::DecomposeOptions&
                                         decompose_options = {});

}  // namespace dopf::multiperiod
