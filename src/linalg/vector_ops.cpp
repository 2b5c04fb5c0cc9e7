#include "linalg/vector_ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dopf::linalg {

namespace {
void check_same(std::size_t a, std::size_t b, const char* msg) {
  if (a != b) throw std::invalid_argument(msg);
}
}  // namespace

double dot(std::span<const double> x, std::span<const double> y) {
  check_same(x.size(), y.size(), "dot: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

double norm_inf(std::span<const double> x) {
  double m = 0.0;
  for (double v : x) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace dopf::linalg
