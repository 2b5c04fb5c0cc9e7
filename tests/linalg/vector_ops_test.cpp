#include "linalg/vector_ops.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/packed_kernels.hpp"

namespace dopf::linalg {
namespace {

TEST(VectorOpsTest, DotAndNorms) {
  const std::vector<double> x = {3.0, 4.0};
  const std::vector<double> y = {1.0, -1.0};
  EXPECT_DOUBLE_EQ(dot(x, y), -1.0);
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(y), 1.0);
}

TEST(VectorOpsTest, DotSizeMismatchThrows) {
  const std::vector<double> x = {1.0};
  const std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW(dot(x, y), std::invalid_argument);
}

// The box clip of the global update (13)/(18), clip((acc - c) / (rho deg),
// lb, ub), here with c = 0 and rho deg = 1.
std::vector<double> clip(const std::vector<double>& x,
                         const std::vector<double>& lo,
                         const std::vector<double>& hi) {
  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = dopf::core::kernels::global_value(x[i], 0.0, lo[i], hi[i], 1.0);
  }
  return out;
}

TEST(VectorOpsTest, ClipProjectsIntoBox) {
  const std::vector<double> lo = {0.0, 0.0, 0.0};
  const std::vector<double> hi = {1.0, 1.0, 1.0};
  const std::vector<double> x = clip({-2.0, 0.5, 7.0}, lo, hi);
  EXPECT_EQ(x[0], 0.0);
  EXPECT_EQ(x[1], 0.5);
  EXPECT_EQ(x[2], 1.0);
}

TEST(VectorOpsTest, ClipWithInfiniteBoundsIsIdentity) {
  const std::vector<double> lo = {-kInfinity, -kInfinity};
  const std::vector<double> hi = {kInfinity, kInfinity};
  const std::vector<double> x = clip({-1e10, 1e10}, lo, hi);
  EXPECT_EQ(x[0], -1e10);
  EXPECT_EQ(x[1], 1e10);
}

TEST(VectorOpsTest, IsUnboundedSentinels) {
  EXPECT_TRUE(is_unbounded(kInfinity));
  EXPECT_TRUE(is_unbounded(-kInfinity));
  EXPECT_TRUE(is_unbounded(kInfinity * 2));
  EXPECT_FALSE(is_unbounded(1e6));
  EXPECT_FALSE(is_unbounded(0.0));
  EXPECT_FALSE(is_unbounded(-1e6));
}

}  // namespace
}  // namespace dopf::linalg
