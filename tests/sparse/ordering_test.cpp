#include "sparse/ordering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace dopf::sparse {
namespace {

CsrMatrix path_graph_laplacian(std::size_t n) {
  std::vector<Triplet> trips;
  for (std::size_t i = 0; i < n; ++i) {
    trips.push_back({static_cast<std::int64_t>(i),
                     static_cast<std::int64_t>(i), 2.0});
    if (i + 1 < n) {
      trips.push_back({static_cast<std::int64_t>(i),
                       static_cast<std::int64_t>(i + 1), -1.0});
      trips.push_back({static_cast<std::int64_t>(i + 1),
                       static_cast<std::int64_t>(i), -1.0});
    }
  }
  return CsrMatrix::from_triplets(n, n, trips);
}

TEST(OrderingTest, RcmReturnsValidPermutation) {
  const CsrMatrix a = path_graph_laplacian(10);
  const std::vector<int> perm = reverse_cuthill_mckee(a);
  ASSERT_EQ(perm.size(), 10u);
  std::vector<int> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(OrderingTest, InvertPermutationRoundTrips) {
  const std::vector<int> perm = {2, 0, 3, 1};
  const std::vector<int> inv = invert_permutation(perm);
  for (std::size_t k = 0; k < perm.size(); ++k) {
    EXPECT_EQ(inv[perm[k]], static_cast<int>(k));
  }
}

TEST(OrderingTest, RcmKeepsPathBandwidthSmall) {
  // A path graph in a scrambled labeling has large bandwidth; RCM must
  // recover bandwidth 1.
  const std::size_t n = 31;
  std::vector<Triplet> trips;
  auto scramble = [n](std::size_t i) { return (i * 17) % n; };
  for (std::size_t i = 0; i < n; ++i) {
    trips.push_back({static_cast<std::int64_t>(scramble(i)),
                     static_cast<std::int64_t>(scramble(i)), 2.0});
    if (i + 1 < n) {
      trips.push_back({static_cast<std::int64_t>(scramble(i)),
                       static_cast<std::int64_t>(scramble(i + 1)), -1.0});
      trips.push_back({static_cast<std::int64_t>(scramble(i + 1)),
                       static_cast<std::int64_t>(scramble(i)), -1.0});
    }
  }
  const CsrMatrix a = CsrMatrix::from_triplets(n, n, trips);
  const std::vector<int> perm = reverse_cuthill_mckee(a);
  // Bandwidth of P A P^T: entry (i, j) moves to (iperm[i], iperm[j]).
  const std::vector<int> iperm = invert_permutation(perm);
  std::int64_t bandwidth = 0;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::int64_t k = rp[i]; k < rp[i + 1]; ++k) {
      bandwidth = std::max<std::int64_t>(bandwidth,
                                         std::abs(iperm[i] - iperm[ci[k]]));
    }
  }
  EXPECT_LE(bandwidth, 2);
}

TEST(OrderingTest, DisconnectedComponentsAreAllVisited) {
  std::vector<Triplet> trips = {{0, 1, 1.0}, {1, 0, 1.0}, {2, 3, 1.0},
                                {3, 2, 1.0}, {0, 0, 1.0}, {1, 1, 1.0},
                                {2, 2, 1.0}, {3, 3, 1.0}, {4, 4, 1.0}};
  const CsrMatrix a = CsrMatrix::from_triplets(5, 5, trips);
  const std::vector<int> perm = reverse_cuthill_mckee(a);
  std::vector<int> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(OrderingTest, NonSquareThrows) {
  const CsrMatrix a(2, 3);
  EXPECT_THROW(reverse_cuthill_mckee(a), std::invalid_argument);
}

}  // namespace
}  // namespace dopf::sparse
