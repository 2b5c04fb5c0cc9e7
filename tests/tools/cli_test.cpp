#include "cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/admm.hpp"
#include "serve/fault.hpp"
#include "serve/supervisor.hpp"
#include "simt/backend_builder.hpp"

namespace dopf::cli {
namespace {

/// An argv over `words` ("tool" first), kept alive with its strings.
class Argv {
 public:
  explicit Argv(std::vector<std::string> words) : words_(std::move(words)) {
    for (std::string& w : words_) ptrs_.push_back(w.data());
  }
  Args args() { return Args(static_cast<int>(ptrs_.size()), ptrs_.data()); }

 private:
  std::vector<std::string> words_;
  std::vector<char*> ptrs_;
};

/// The UsageError message `read` throws ("" when it throws none).
template <class F>
std::string refusal(F read) {
  try {
    read();
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(CliIntegerTest, BoundsAreInclusive) {
  EXPECT_EQ(integer<int>("0", "--n", 0, 10), 0);
  EXPECT_EQ(integer<int>("10", "--n", 0, 10), 10);
  EXPECT_EQ(integer<int>("-3", "--n", -3, 10), -3);
  EXPECT_EQ(refusal([] { integer<int>("11", "--n", 0, 10); }),
            "bad integer value '11' for --n (want [0, 10])");
  EXPECT_NE(refusal([] { integer<int>("-1", "--n", 0, 10); }), "");
  EXPECT_EQ(integer<std::uint32_t>("4294967295", "--n", 0), 4294967295u);
  EXPECT_EQ(integer<std::uint64_t>("18446744073709551615", "--n", 0),
            18446744073709551615ull);
  EXPECT_NE(
      refusal([] { integer<std::uint64_t>("18446744073709551616", "--n", 0); }),
      "");
  EXPECT_NE(refusal([] { integer<std::uint32_t>("0", "--n", 1); }), "");
}

TEST(CliIntegerTest, ValuesPastTheTypeAreRefusedNotWrapped) {
  // strtol + static_cast turned 4294967296 into 0 and 4294967297 into 1.
  for (const char* text : {"4294967296", "4294967297"}) {
    EXPECT_EQ(refusal([&] { integer<int>(text, "--n", 1); }),
              std::string("bad integer value '") + text +
                  "' for --n (want [1, 2147483647])");
    EXPECT_NE(refusal([&] { integer<std::uint32_t>(text, "--n", 0); }), "");
  }
  EXPECT_NE(refusal([] { integer<int>("2147483648", "--n", 0); }), "");
}

TEST(CliIntegerTest, NegativeIntoUnsignedIsRefused) {
  EXPECT_EQ(refusal([] { integer<std::uint64_t>("-1", "--id", 0); }),
            "bad integer value '-1' for --id (want [0, 18446744073709551615])");
  EXPECT_NE(refusal([] { integer<std::uint32_t>("-1", "--n", 0); }), "");
  EXPECT_NE(refusal([] { integer<std::size_t>("-0", "--n", 0); }), "");
}

TEST(CliIntegerTest, OnlyWholeDecimalTokens) {
  for (const char* text :
       {"", "1abc", " 1", "1 ", "+1", "1.0", "1e3", "0x10", "nan"}) {
    EXPECT_NE(refusal([&] { integer<int>(text, "--n", 0); }), "") << text;
    EXPECT_NE(refusal([&] { integer<std::uint64_t>(text, "--n", 0); }), "")
        << text;
  }
}

TEST(CliArgsTest, CursorStepsOverValues) {
  Argv argv({"tool", "--a", "7", "--flag", "input", "--b", "--c"});
  Args args = argv.args();
  ASSERT_TRUE(args.next());
  EXPECT_EQ(args.flag(), "--a");
  EXPECT_EQ(args.integer(0), 7);
  EXPECT_STREQ(args.value(), "7");  // the same value on every call
  ASSERT_TRUE(args.next());
  EXPECT_EQ(args.flag(), "--flag");  // no value taken: the next is a flag
  ASSERT_TRUE(args.next());
  EXPECT_EQ(args.flag(), "input");
  ASSERT_TRUE(args.next());
  EXPECT_STREQ(args.value(), "--c");  // a value may look like a flag
  EXPECT_FALSE(args.next());
}

TEST(CliArgsTest, MissingValueHelpAndUnknownFlag) {
  Argv missing({"tool", "--rho"});
  Args args = missing.args();
  ASSERT_TRUE(args.next());
  EXPECT_EQ(refusal([&] { args.value(); }), "--rho expects a value");

  Argv help({"tool", "--help"});
  Args h = help.args();
  bool refused = false;
  try {
    h.next();
  } catch (const UsageError& e) {
    refused = true;
    EXPECT_STREQ(e.what(), "");  // usage text only
  }
  EXPECT_TRUE(refused);

  Argv unknown({"tool", "--frobnicate"});
  Args u = unknown.args();
  ASSERT_TRUE(u.next());
  EXPECT_EQ(refusal([&] { u.unknown(); }), "unknown option --frobnicate");
}

TEST(CliArgsTest, WorkersBound) {
  // dopf_serve reads --workers as integer(1): a value that wrapped to 0 or
  // 1 through a 32-bit cast is refused in-process, so no test has to start
  // a server that might spawn that many workers.
  for (const char* text : {"4294967296", "4294967297", "0", "-1"}) {
    Argv argv({"dopf_serve", "--workers", text});
    Args args = argv.args();
    ASSERT_TRUE(args.next());
    EXPECT_NE(refusal([&] { args.integer(1); }), "") << text;
  }
  Argv one({"dopf_serve", "--workers", "1"});
  Args args = one.args();
  ASSERT_TRUE(args.next());
  EXPECT_EQ(args.integer(1), 1);
}

TEST(CliArgsTest, RealsAreFiniteAndAdmissible) {
  auto read = [](const char* text) {
    Argv argv({"tool", "--rho", text});
    Args args = argv.args();
    args.next();
    return args.real(dopf::core::admissible_parameter, "> 0");
  };
  EXPECT_EQ(read("100"), 100.0);
  EXPECT_EQ(read("1e308"), 1e308);  // pinned as a divergence, exit 3
  for (const char* text :
       {"nan", "inf", "-inf", "1e400", "0", "-5", "1abc", "", "1 "}) {
    EXPECT_NE(refusal([&] { read(text); }), "") << text;
  }
  EXPECT_EQ(refusal([&] { read("nan"); }),
            "bad value 'nan' for --rho (want a finite real > 0)");
}

TEST(CliArgsTest, SolveParameterRuleIsServeRule) {
  for (double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(dopf::core::admissible_parameter(bad));
    dopf::serve::SolveRequest req;
    req.feeder = "builtin:ieee13";
    req.rho = bad;
    EXPECT_THROW(dopf::serve::validate_request(req),
                 dopf::serve::BadRequestError);
    req.rho = 100.0;
    req.eps_rel = bad;
    try {
      dopf::serve::validate_request(req);
      ADD_FAILURE() << "eps_rel " << bad << " accepted";
    } catch (const dopf::serve::BadRequestError& e) {
      EXPECT_STREQ(e.what(), "eps_rel must be finite and > 0");
    }
  }
  EXPECT_TRUE(dopf::core::admissible_parameter(1e-300));
}

template <class Plan>
std::string plan_refusal(const char* spec) {
  Argv argv({"tool", "--faults", spec});
  Args args = argv.args();
  args.next();
  return refusal([&] { (void)args.plan<Plan>(); });
}

TEST(CliArgsTest, FaultPlanOfEveryPlane) {
  EXPECT_EQ(plan_refusal<dopf::runtime::FaultPlan>("kill:device=1,iter=137"),
            "");
  EXPECT_NE(plan_refusal<dopf::runtime::FaultPlan>("explode:device=0,iter=1"),
            "");
  EXPECT_EQ(plan_refusal<dopf::runtime::FsFaultPlan>("enospc:op=3,times=2"),
            "");
  EXPECT_NE(plan_refusal<dopf::runtime::FsFaultPlan>("explode:op=1"), "");
  EXPECT_EQ(plan_refusal<dopf::serve::ServeFaultPlan>("delay:op=1,ms=80"), "");
  EXPECT_NE(plan_refusal<dopf::serve::ServeFaultPlan>("explode:op=1"), "");
  EXPECT_EQ(plan_refusal<dopf::serve::CrashFaultPlan>("signal:request=2"), "");
  EXPECT_NE(plan_refusal<dopf::serve::CrashFaultPlan>("explode:request=1"),
            "");
}

TEST(CliArgsTest, PreflightMode) {
  auto read = [](const char* text) {
    Argv argv({"tool", "--preflight", text});
    Args args = argv.args();
    args.next();
    return args.preflight();
  };
  EXPECT_FALSE(read("off").has_value());
  EXPECT_EQ(read("strict"), dopf::robust::PreflightPolicy::kStrict);
  EXPECT_NE(refusal([&] { read("bogus"); }), "");
}

TEST(CliConflictTest, FirstViolatedRowWins) {
  EXPECT_EQ(refusal([] { check({{false, "a"}, {false, "b"}}); }), "");
  EXPECT_EQ(refusal([] { check({{false, "a"}, {true, "b"}, {true, "c"}}); }),
            "b");
  dopf::simt::BackendSpec spec;
  spec.degrade = true;
  EXPECT_TRUE(dopf::simt::breaks_multigpu_only(spec));
  spec.name = "multigpu";
  EXPECT_FALSE(dopf::simt::breaks_multigpu_only(spec));
}

TEST(CliConflictTest, RefusalPrintsMessageThenUsage) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(refuse("tool", UsageError("bad"), " [options]\n"), 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "tool: bad\nusage: tool [options]\n");
  testing::internal::CaptureStderr();
  EXPECT_EQ(refuse("tool", UsageError(""), " [options]\n"), 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "usage: tool [options]\n");
}

}  // namespace
}  // namespace dopf::cli
