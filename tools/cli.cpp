#include "cli.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dopf::cli {

void bad_integer(std::string_view text, std::string_view what,
                 const std::string& lo, const std::string& hi) {
  throw UsageError("bad integer value '" + std::string(text) + "' for " +
                   std::string(what) + " (want [" + lo + ", " + hi + "])");
}

Args::Args(int argc, char** argv, int first)
    : argc_(argc), argv_(argv), index_(first - 1) {}

bool Args::next() {
  index_ += value_taken_ ? 2 : 1;
  value_taken_ = false;
  if (index_ >= argc_) return false;
  flag_ = argv_[index_];
  if (flag_ == "--help" || flag_ == "-h") throw UsageError("");
  return true;
}

const char* Args::value() {
  if (index_ + 1 >= argc_) throw UsageError(flag_ + " expects a value");
  value_taken_ = true;
  return argv_[index_ + 1];
}

void Args::unknown() const { throw UsageError("unknown option " + flag_); }

double Args::real(bool (*admissible)(double), const char* want) {
  const char* text = value();
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || !admissible(v)) {
    throw UsageError("bad value '" + std::string(text) + "' for " + flag_ +
                     " (want a finite real " + want + ")");
  }
  return v;
}

dopf::robust::PreflightMode Args::preflight() {
  try {
    return dopf::robust::parse_mode(value());
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
}

void check(std::initializer_list<Conflict> table) {
  for (const Conflict& row : table) {
    if (row.violated) throw UsageError(row.message);
  }
}

int refuse(const char* argv0, const UsageError& error, const char* usage) {
  if (*error.what() != '\0') {
    std::fprintf(stderr, "%s: %s\n", argv0, error.what());
  }
  std::fprintf(stderr, "usage: %s%s", argv0, usage);
  return 1;
}

}  // namespace dopf::cli
