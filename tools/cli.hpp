#pragma once

// The command-line readers dopf_solve, dopf_verify, dopf_client and
// dopf_serve share: one argv cursor, one integer and one real reader, one
// fault-plan reader for every plane, one --preflight reader and one
// conflict check. Every reader throws UsageError; each tool's main catches
// it once and refuses the command line through refuse().

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "robust/preflight.hpp"
#include "runtime/fault.hpp"

namespace dopf::cli {

/// A command line the tool refuses: an unknown flag, a missing, malformed
/// or out-of-range value, or two flags that conflict. An empty message
/// (--help) asks for the usage text alone.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The usage error "bad integer value '<text>' for <what> (want [lo, hi])".
[[noreturn]] void bad_integer(std::string_view text, std::string_view what,
                              const std::string& lo, const std::string& hi);

/// `text` as a plain decimal integer of type T in [lo, hi]: a sign on an
/// unsigned type, a fraction, trailing text or a value outside [lo, hi] or
/// T is refused, never wrapped. Built on runtime::read_integer (int) and
/// runtime::read_unsigned (unsigned types).
template <class T>
T integer(std::string_view text, std::string_view what, T lo,
          T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_same_v<T, int> || std::is_unsigned_v<T>);
  std::optional<T> value;
  if constexpr (std::is_same_v<T, int>) {
    value = dopf::runtime::read_integer(text, lo, hi);
  } else if (const auto v = dopf::runtime::read_unsigned(text);
             v && *v >= lo && *v <= hi) {
    value = static_cast<T>(*v);
  }
  if (!value) bad_integer(text, what, std::to_string(lo), std::to_string(hi));
  return *value;
}

/// The argv cursor: steps from flag to flag and hands out each flag's value
/// through the typed readers, which name the flag in their errors.
class Args {
 public:
  /// Reads argv[first..argc).
  Args(int argc, char** argv, int first = 1);

  /// Steps to the next argument; false when none is left. "--help" and
  /// "-h" throw an empty UsageError.
  bool next();
  /// The current argument.
  const std::string& flag() const { return flag_; }
  /// The current flag's value (the same one on every call); throws
  /// "<flag> expects a value" when the command line ends first.
  const char* value();
  /// Throws "unknown option <flag>".
  [[noreturn]] void unknown() const;

  /// The value as an integer of type T in [lo, hi] (cli::integer).
  template <class T>
  T integer(T lo, T hi = std::numeric_limits<T>::max()) {
    return cli::integer<T>(value(), flag_, lo, hi);
  }
  /// The value as a finite real that `admissible` accepts; `want` names
  /// the rule in the error ("> 0", "in (0, 2)").
  double real(bool (*admissible)(double), const char* want);
  /// The value as a fault plan of any plane (runtime::FaultPlan,
  /// FsFaultPlan, serve::ServeFaultPlan, serve::CrashFaultPlan).
  template <class Plan>
  Plan plan() {
    try {
      return Plan::parse(value());
    } catch (const dopf::runtime::FaultError& e) {
      throw UsageError(e.what());
    }
  }
  /// The value as a --preflight mode (robust::parse_mode).
  dopf::robust::PreflightMode preflight();

 private:
  int argc_;
  char** argv_;
  int index_;
  bool value_taken_ = false;
  std::string flag_;
};

/// One row of a tool's conflict table: a command line that sets `violated`
/// is refused with `message`.
struct Conflict {
  bool violated;
  const char* message;
};

/// Throws UsageError with the message of the first violated row.
void check(std::initializer_list<Conflict> table);

/// Prints "<argv0>: <message>" (unless the message is empty) and
/// "usage: <argv0><usage>" to stderr, and returns 1, the usage exit code.
int refuse(const char* argv0, const UsageError& error, const char* usage);

}  // namespace dopf::cli
