#include "sparse/csr.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <vector>

#include "csr_entry.hpp"

namespace dopf::sparse {
namespace {

using dopf::testing::entry;

TEST(CsrTest, FromTripletsSortsAndSumsDuplicates) {
  const std::vector<Triplet> trips = {
      {1, 2, 1.0}, {0, 1, 2.0}, {1, 2, 3.0}, {1, 0, -1.0}};
  const CsrMatrix m = CsrMatrix::from_triplets(2, 3, trips);
  EXPECT_EQ(m.values().size(), 3u);
  EXPECT_EQ(entry(m, 0, 1), 2.0);
  EXPECT_EQ(entry(m, 1, 2), 4.0);
  EXPECT_EQ(entry(m, 1, 0), -1.0);
  EXPECT_EQ(entry(m, 0, 0), 0.0);
}

TEST(CsrTest, DuplicatesCancellingToZeroAreDropped) {
  const std::vector<Triplet> trips = {{0, 0, 1.0}, {0, 0, -1.0}};
  const CsrMatrix m = CsrMatrix::from_triplets(1, 1, trips);
  EXPECT_EQ(m.values().size(), 0u);
}

TEST(CsrTest, OutOfRangeTripletThrows) {
  const std::vector<Triplet> trips = {{0, 5, 1.0}};
  EXPECT_THROW(CsrMatrix::from_triplets(2, 3, trips), std::out_of_range);
}

TEST(CsrTest, IdentityActsAsIdentity) {
  const std::vector<Triplet> diag = {
      {0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}, {3, 3, 1.0}};
  const CsrMatrix id = CsrMatrix::from_triplets(4, 4, diag);
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> y(4, -1.0);
  id.multiply(x, y);
  EXPECT_EQ(y, x);
}

TEST(CsrTest, MultiplyAlphaBeta) {
  const std::vector<Triplet> trips = {{0, 0, 2.0}, {1, 1, 3.0}};
  const CsrMatrix m = CsrMatrix::from_triplets(2, 2, trips);
  const std::vector<double> x = {1.0, 1.0};
  std::vector<double> y = {10.0, 10.0};
  m.multiply(x, y, 2.0, 0.5);  // y = 2 A x + 0.5 y
  EXPECT_EQ(y[0], 9.0);
  EXPECT_EQ(y[1], 11.0);
}

TEST(CsrTest, MultiplyTransposeMatchesExplicitTranspose) {
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<Triplet> trips;
  for (int k = 0; k < 40; ++k) {
    trips.push_back({rng() % 7, rng() % 9, dist(rng)});
  }
  std::vector<Triplet> swapped;
  for (const Triplet& t : trips) swapped.push_back({t.col, t.row, t.value});
  const CsrMatrix m = CsrMatrix::from_triplets(7, 9, trips);
  const CsrMatrix mt = CsrMatrix::from_triplets(9, 7, swapped);
  std::vector<double> x(7);
  for (double& v : x) v = dist(rng);
  std::vector<double> y1(9, 0.0), y2(9, 0.0);
  m.multiply_transpose(x, y1);
  mt.multiply(x, y2);
  for (int j = 0; j < 9; ++j) EXPECT_NEAR(y1[j], y2[j], 1e-13);
}

TEST(CsrTest, MultiplySizeMismatchThrows) {
  const CsrMatrix m(2, 3);
  std::vector<double> x(2, 0.0), y(2, 0.0);
  EXPECT_THROW(m.multiply(x, y), std::invalid_argument);
}

TEST(CsrTest, EmptyMatrixMultiplyGivesZero) {
  const CsrMatrix m(3, 4);
  const std::vector<double> x(4, 1.0);
  std::vector<double> y(3, 9.0);
  m.multiply(x, y);
  for (double v : y) EXPECT_EQ(v, 0.0);
}

TEST(CsrTest, DropTolRemovesSmallEntries) {
  const std::vector<Triplet> trips = {{0, 0, 1e-14}, {0, 1, 1.0}};
  const CsrMatrix m = CsrMatrix::from_triplets(1, 2, trips, 1e-12);
  EXPECT_EQ(m.values().size(), 1u);
  EXPECT_EQ(entry(m, 0, 1), 1.0);
}

}  // namespace
}  // namespace dopf::sparse
