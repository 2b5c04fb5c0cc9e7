#pragma once

#include <limits>
#include <span>

/// BLAS-1 style reductions on contiguous double ranges, and the finite
/// stand-in for an absent bound. The per-iteration updates of Algorithm 1
/// do not come through here: they are the packed kernels of
/// core/packed_kernels.hpp.
namespace dopf::linalg {

/// Value used to represent "no bound". Chosen finite so bound arithmetic
/// (midpoints, clips) stays well-defined; anything >= kInfinity/2 is treated
/// as unbounded by callers that care.
inline constexpr double kInfinity = 1e30;

/// True if a bound value means "unbounded" on its side.
inline bool is_unbounded(double bound) {
  return bound >= kInfinity / 2 || bound <= -kInfinity / 2;
}

double dot(std::span<const double> x, std::span<const double> y);
double norm2(std::span<const double> x);
double norm_inf(std::span<const double> x);

}  // namespace dopf::linalg
