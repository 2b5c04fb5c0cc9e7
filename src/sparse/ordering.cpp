#include "sparse/ordering.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace dopf::sparse {

namespace {

/// Symmetrized adjacency (pattern of A + A^T, excluding the diagonal).
std::vector<std::vector<int>> build_adjacency(const CsrMatrix& a) {
  const std::size_t n = a.rows();
  std::vector<std::vector<int>> adj(n);
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::int64_t k = rp[i]; k < rp[i + 1]; ++k) {
      const int j = static_cast<int>(ci[k]);
      if (static_cast<std::size_t>(j) == i) continue;
      adj[i].push_back(j);
      adj[j].push_back(static_cast<int>(i));
    }
  }
  for (auto& row : adj) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return adj;
}

}  // namespace

std::vector<int> reverse_cuthill_mckee(const CsrMatrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("reverse_cuthill_mckee: matrix must be square");
  }
  const std::size_t n = a.rows();
  const auto adj = build_adjacency(a);

  std::vector<int> degree(n);
  for (std::size_t i = 0; i < n; ++i) degree[i] = static_cast<int>(adj[i].size());

  std::vector<bool> visited(n, false);
  std::vector<int> order;
  order.reserve(n);

  // Process each connected component from a minimum-degree start node
  // (a cheap peripheral-node heuristic).
  for (std::size_t pass = 0; pass < n; ++pass) {
    if (order.size() == n) break;
    int start = -1;
    int best_deg = static_cast<int>(n) + 1;
    for (std::size_t i = 0; i < n; ++i) {
      if (!visited[i] && degree[i] < best_deg) {
        best_deg = degree[i];
        start = static_cast<int>(i);
      }
    }
    if (start < 0) break;

    std::queue<int> frontier;
    frontier.push(start);
    visited[start] = true;
    std::vector<int> neighbors;
    while (!frontier.empty()) {
      const int u = frontier.front();
      frontier.pop();
      order.push_back(u);
      neighbors.clear();
      for (int v : adj[u]) {
        if (!visited[v]) {
          visited[v] = true;
          neighbors.push_back(v);
        }
      }
      std::sort(neighbors.begin(), neighbors.end(),
                [&](int x, int y) { return degree[x] < degree[y]; });
      for (int v : neighbors) frontier.push(v);
    }
  }

  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<int> invert_permutation(std::span<const int> perm) {
  std::vector<int> inv(perm.size());
  for (std::size_t k = 0; k < perm.size(); ++k) {
    inv[perm[k]] = static_cast<int>(k);
  }
  return inv;
}

}  // namespace dopf::sparse
