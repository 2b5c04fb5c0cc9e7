/// Reproduces Table IV: distribution of the component subproblem sizes
/// m_s x n_s (rows/cols of A_s in (9)) across all S components.
///
/// The headline property: subproblems stay tiny everywhere, and the
/// 8500-class instance has the *smallest* mean sizes (single-phase
/// secondaries dominate) — which is why the one-block-per-component GPU
/// mapping thrives there.
///
/// A companion table shows what the local update (15) actually multiplies:
/// each Abar_s splits into independent sub-blocks (the connected components
/// of its stored pattern) plus constant rows, and the packed image stores
/// and multiplies only the sub-blocks (core::PackedLocalSolvers).

#include <cmath>
#include <map>

#include "bench/common.hpp"
#include "core/solve_model.hpp"
#include "opf/stats.hpp"

namespace {

/// Sub-blocks by size (indexed = rows not contiguous in z), constant rows,
/// exact zeros, and the dense versus image multiply-adds and Abar bytes.
void print_image(const std::string& name,
                 const dopf::opf::DistributedProblem& problem) {
  const dopf::core::PackedLocalSolvers pack =
      dopf::core::SolveModel(problem, {}).make_pack();
  std::map<int, std::pair<int, int>> sizes;  // k -> (blocks, indexed)
  for (const dopf::core::SubBlockGroup& g : pack.sub_groups) {
    auto& [blocks, indexed] = sizes[g.dim];
    blocks += static_cast<int>(g.end - g.first);
    if (g.indexed) indexed += static_cast<int>(g.end - g.first);
  }
  std::size_t dense = 0;
  for (int ns : pack.comp_nvars) dense += static_cast<std::size_t>(ns) * ns;
  std::size_t zeros = 0;
  std::vector<double> block;
  for (std::size_t s = 0; s < pack.num_components(); ++s) {
    const auto ns = static_cast<std::size_t>(pack.comp_nvars[s]);
    block.resize(ns * ns);
    pack.unpack_abar(s, block);
    for (double v : block) zeros += (v == 0.0 && !std::signbit(v)) ? 1 : 0;
  }
  const std::size_t image = pack.abar.size();
  const std::size_t image_bytes =
      sizeof(double) * image +
      sizeof(int) * (pack.sub_rows.size() + pack.const_rows.size()) +
      sizeof(dopf::core::SubBlockGroup) * pack.sub_groups.size();
  std::printf("%-14s sub-blocks %zu (%zu positions), constant rows %zu of "
              "%zu\n",
              name.c_str(), pack.num_blocks(), pack.sub_rows.size(),
              pack.const_rows.size(), pack.total_local());
  std::printf("%-14s size:blocks(indexed)", "");
  for (const auto& [k, count] : sizes) {
    std::printf(" %d:%d", k, count.first);
    if (count.second > 0) std::printf("(%d)", count.second);
  }
  std::printf("\n%-14s exact +0.0 entries %zu of %zu (%.1f%%)\n", "", zeros,
              dense, 100.0 * static_cast<double>(zeros) /
                         static_cast<double>(dense));
  std::printf("%-14s multiply-adds dense %zu, image %zu (%.2fx fewer)\n", "",
              dense, image,
              static_cast<double>(dense) / static_cast<double>(image));
  std::printf("%-14s Abar bytes dense %zu, image %zu (store + row lists)\n",
              "", sizeof(double) * dense, image_bytes);
}

}  // namespace

int main() {
  dopf::bench::header("Table IV", "component subproblem size distribution");
  std::printf("%-14s %-4s %6s %6s %8s %8s %10s\n", "instance", "dim", "min",
              "max", "mean", "stdev", "sum");
  std::vector<dopf::runtime::Instance> instances;
  for (const std::string& name : dopf::bench::instance_names()) {
    const auto& inst =
        instances.emplace_back(dopf::runtime::make_instance(name));
    const auto stats = dopf::opf::subproblem_stats(inst.problem);
    std::printf("%-14s %-4s %6zu %6zu %8.2f %8.2f %10zu\n", name.c_str(),
                "m_s", stats.rows.min, stats.rows.max, stats.rows.mean,
                stats.rows.stdev, stats.rows.sum);
    std::printf("%-14s %-4s %6zu %6zu %8.2f %8.2f %10zu\n", name.c_str(),
                "n_s", stats.cols.min, stats.cols.max, stats.cols.mean,
                stats.cols.stdev, stats.cols.sum);
  }
  std::printf(
      "\npaper means: ieee13 m 9.08 / n 16.1;  ieee123 m 7.34 / n 13.16;  "
      "ieee8500 m 3.44 / n 6.69\n");

  std::printf("\nsub-block image of Abar_s (what the local update "
              "multiplies):\n");
  for (const dopf::runtime::Instance& inst : instances) {
    print_image(inst.name, inst.problem);
  }
  return 0;
}
