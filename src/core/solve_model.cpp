#include "core/solve_model.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "linalg/lanes.hpp"
#include "verify/codec.hpp"

namespace dopf::core {

using dopf::linalg::AssemblyBlock;
using dopf::linalg::GramBlock;
using dopf::linalg::ProjectorStatus;
using dopf::opf::Component;
using dopf::opf::DistributedProblem;
namespace lanes = dopf::linalg::lanes;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

using dopf::verify::fnv1a;

template <typename T>
void fnv_vec(std::uint64_t& h, const std::vector<T>& v) {
  const std::uint64_t len = v.size();
  fnv1a(h, &len, sizeof(len));
  fnv1a(h, v.data(), v.size() * sizeof(T));
}

template <typename T>
std::size_t heap_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

std::size_t heap_bytes(const std::string& s) {
  // Heap storage only once the string outgrows its inline buffer.
  return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
}

/// Every assembly reads b_s[i] for each row i of A_s.
void check_rhs_size(const Component& comp) {
  if (comp.b.size() != comp.a.rows()) {
    throw std::invalid_argument("SolveModel: component '" + comp.name +
                                "' has b size " +
                                std::to_string(comp.b.size()) + " but " +
                                std::to_string(comp.a.rows()) + " rows");
  }
}

}  // namespace

SolveModel::SolveModel(const DistributedProblem& problem,
                       dopf::linalg::ProjectorOptions options)
    : problem_(problem), options_(options) {
  const auto start = std::chrono::steady_clock::now();
  factor_offset_.assign(num_components() + 1, 0);
  for (std::size_t s = 0; s < num_components(); ++s) {
    check_rhs_size(problem_.components[s]);
    const std::size_t m = problem_.components[s].a.rows();
    factor_offset_[s + 1] = factor_offset_[s] + m * m;
  }
  factors_.assign(factor_offset_.back(), 0.0);
  std::vector<ProjectorStatus> status(num_components());
  std::vector<GramBlock> blocks;
  for (std::size_t s = 0; s < num_components(); ++s) {
    blocks.push_back({&problem_.components[s].a,
                      factors_.data() + factor_offset_[s], &status[s]});
  }
  factor_gram(blocks, options_);
  for (std::size_t s = 0; s < num_components(); ++s) {
    if (!status[s].ok) {
      throw dopf::opf::ConditioningError(problem_.components[s].name,
                                         status[s].pivot_index,
                                         status[s].pivot_value);
    }
    max_ridge_ = std::max(max_ridge_, status[s].ridge);
  }
  precompute_seconds_ = seconds_since(start);
}

std::size_t SolveModel::bytes() const {
  std::size_t n = sizeof(*this) + heap_bytes(problem_.c) +
                  heap_bytes(problem_.lb) + heap_bytes(problem_.ub) +
                  heap_bytes(problem_.x0) + heap_bytes(problem_.copy_count) +
                  heap_bytes(problem_.components);
  for (const Component& comp : problem_.components) {
    n += heap_bytes(comp.name) + comp.a.data().size() * sizeof(double) +
         heap_bytes(comp.b) + heap_bytes(comp.global);
  }
  return n + heap_bytes(factors_) + heap_bytes(factor_offset_);
}

PackedLocalSolvers SolveModel::make_pack() const {
  std::size_t dense_size = 0, local_size = 0;
  for (const Component& comp : problem_.components) {
    dense_size += comp.num_vars() * comp.num_vars();
    local_size += comp.num_vars();
  }
  std::vector<double> dense(dense_size), bbar(local_size);
  std::vector<AssemblyBlock> blocks;
  std::vector<std::span<const double>> abar;
  double* d = dense.data();
  double* z = bbar.data();
  for (std::size_t s = 0; s < num_components(); ++s) {
    const Component& comp = problem_.components[s];
    const std::size_t n = comp.num_vars();
    blocks.push_back({&comp.a, factor(s), comp.b, d, z});
    abar.emplace_back(d, n * n);
    d += n * n;
    z += n;
  }
  assemble_projector(blocks);
  return PackedLocalSolvers::build(problem_, abar, std::move(bbar));
}

void SolveModel::assemble(std::size_t s, std::span<double> abar,
                          std::span<double> bbar) const {
  const Component& comp = problem_.components[s];
  const AssemblyBlock block[] = {
      {&comp.a, factor(s), comp.b, abar.data(), bbar.data()}};
  assemble_projector(block);
}

void SolveModel::rebind_rhs(std::size_t s, std::span<const double> b,
                            std::span<double> bbar) const {
  const Component& comp = problem_.components[s];
  const std::size_t m = comp.a.rows();
  const std::size_t n = comp.a.cols();
  if (b.size() != m || bbar.size() != n) {
    throw std::invalid_argument("SolveModel::rebind_rhs: size mismatch");
  }
  // The bbar kernel of the assembly, replayed through the stored factor.
  std::vector<double> x(m);
  lanes::projector_rhs<1>(comp.a.data().data(), factor(s), b.data(), m, n,
                          x.data(), bbar.data());
}

void SolveModel::refresh_component(std::size_t s, const Component& comp) {
  if (s >= num_components()) {
    throw std::invalid_argument("SolveModel::refresh_component: bad index");
  }
  if (comp.global != problem_.components[s].global) {
    throw std::invalid_argument(
        "SolveModel::refresh_component: component '" + comp.name +
        "' has a different variable set; that is a different model");
  }
  check_rhs_size(comp);
  std::vector<double> l(comp.a.rows() * comp.a.rows());
  ProjectorStatus status;
  const GramBlock block[] = {{&comp.a, l.data(), &status}};
  factor_gram(block, options_);
  if (!status.ok) {
    throw dopf::opf::ConditioningError(comp.name, status.pivot_index,
                                       status.pivot_value);
  }
  max_ridge_ = std::max(max_ridge_, status.ridge);
  // L_s replaces its slot; an edit that changes m_s moves later factors.
  const std::size_t old_size = factor_offset_[s + 1] - factor_offset_[s];
  const auto at =
      factors_.begin() + static_cast<std::ptrdiff_t>(factor_offset_[s]);
  factors_.insert(
      factors_.erase(at, at + static_cast<std::ptrdiff_t>(old_size)),
      l.begin(), l.end());
  for (std::size_t t = s + 1; t < factor_offset_.size(); ++t) {
    factor_offset_[t] = factor_offset_[t] + l.size() - old_size;
  }
  problem_.components[s] = comp;
  ++refactorizations_;
}

std::uint64_t topology_fingerprint(const PackedLocalSolvers& pack) {
  std::uint64_t h = dopf::verify::kFingerprintSeed;
  const std::uint64_t n = pack.num_global();
  fnv1a(h, &n, sizeof(n));
  fnv_vec(h, pack.comp_offset);
  // Abar is hashed as the logical row-major blocks it packs (offsets, then
  // every entry, +0.0 outside the sub-blocks), so the fingerprint does not
  // depend on the image layout and checkpoints taken against row-major
  // packs keep resuming.
  const std::size_t S = pack.num_components();
  std::uint64_t len = S;
  fnv1a(h, &len, sizeof(len));
  std::int64_t row_major_offset = 0;
  for (int ns : pack.comp_nvars) {
    fnv1a(h, &row_major_offset, sizeof(row_major_offset));
    row_major_offset += static_cast<std::int64_t>(ns) * ns;
  }
  fnv_vec(h, pack.comp_nvars);
  len = static_cast<std::uint64_t>(row_major_offset);
  fnv1a(h, &len, sizeof(len));
  std::vector<double> block;
  for (std::size_t s = 0; s < S; ++s) {
    const auto ns = static_cast<std::size_t>(pack.comp_nvars[s]);
    block.resize(ns * ns);
    pack.unpack_abar(s, block);
    fnv1a(h, block.data(), block.size() * sizeof(double));
  }
  fnv_vec(h, pack.global_idx);
  fnv_vec(h, pack.gather_ptr);
  fnv_vec(h, pack.gather_pos);
  return h;
}

std::uint64_t scenario_fingerprint(const PackedLocalSolvers& pack) {
  std::uint64_t h = dopf::verify::kFingerprintSeed;
  fnv_vec(h, pack.bbar);
  fnv_vec(h, pack.c);
  fnv_vec(h, pack.lb);
  fnv_vec(h, pack.ub);
  fnv_vec(h, pack.x0);
  return h;
}

}  // namespace dopf::core
