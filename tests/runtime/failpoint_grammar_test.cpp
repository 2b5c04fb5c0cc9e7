/// Property test of the failpoint grammar all four fault flags share
/// (runtime/fault.hpp), in the style of tests/serve/wire_fuzz_test.cpp:
/// every spec string the tests and tool scripts use, plus thousands of
/// seeded mutations of them (byte flips, truncations, spliced separators
/// and spliced entries), goes through all four parsers. Each input must
/// either throw the one typed FaultError, or give a plan whose printed
/// events (spec_string) re-parse to the same string — never another
/// exception, a crash, or a plan that prints something it would not read
/// back.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "runtime/fault.hpp"
#include "serve/fault.hpp"
#include "serve/supervisor.hpp"

namespace dopf::runtime {
namespace {

using dopf::serve::CrashFaultPlan;
using dopf::serve::ServeFaultPlan;

/// A plan as its spec string: every event's to_string(), `;`-joined.
template <class Plan>
std::string print(const Plan& plan) {
  return spec_string(plan.events);
}

/// Every spec string in tests/ and tools/, valid and malformed, of every
/// plane (each input is fed to all four parsers).
const std::vector<std::string>& corpus() {
  static const std::vector<std::string> specs = {
      // --faults
      "kill:device=1,iter=137; drop:device=2,iter=10,count=2;"
      "corrupt:device=0,iter=5,scale=32;"
      "straggle:device=3,iter=7,until=20,factor=8",
      "corrupt:device=1,iter=3;straggle:device=0,iter=9",
      "kill:device=1,iter=7",
      "kill:device=1,iter=120",
      "kill:device=1,iter=137",
      "kill:device=0,iter=1",
      "kill:device=0,iter=40",
      "kill:device=1,iter=20",
      "kill:device=1,iter=60",
      "kill:device=2,iter=120",
      "kill:device=1,iter=30;kill:device=2,iter=50",
      "drop:device=1,iter=5;kill:device=7,iter=120",
      "drop:device=2,iter=4,count=2;drop:device=2,from=3,until=4",
      "drop:device=2,iter=4,count=2;kill:device=0,iter=9;drop:device=2,iter=4",
      "drop:device=1,iter=4;drop:device=2,iter=4",
      "drop:device=2,iter=4;corrupt:device=2,iter=4",
      "drop:device=2,iter=4",
      "drop:device=2,from=30",
      "drop:device=2,iter=35,count=9",
      "drop:device=0,iter=3,count=3",
      "drop:device=2,iter=3,count=2",
      "drop:device=1,iter=15,count=2;straggle:device=2,iter=10,until=40,factor=8",
      "drop:device=1,from=10;corrupt:device=0,from=5,scale=4",
      "corrupt:device=0,iter=9,scale=64",
      "corrupt:device=1,iter=25,scale=64",
      "corrupt:device=1,iter=100,scale=64",
      "straggle:device=1,from=30,factor=8;drop:device=2,from=200,until=250",
      "straggle:device=1,iter=5,until=10,factor=3;"
      "straggle:device=1,iter=8,until=12,factor=2",
      "straggle:device=1,from=30,factor=64",
      "straggle:device=1,from=30,until=120,factor=64",
      "straggle:device=2,from=40,until=50,factor=64",
      "straggle:device=1,iter=5,factor=4",
      "straggle:device=2,iter=10,until=200,factor=6;drop:device=1,iter=40,count=2",
      "explode:device=0,iter=1",
      "kill device=0",
      "kill:device=0",
      "kill:iter=5",
      "kill:device=0,iter=abc",
      "kill:device=0,iter=0",
      "kill:device=-1,iter=5",
      "kill:device=0,iter=5,bogus=1",
      "kill:device=0,iter=1x",
      "kill:device=1.5,iter=3",
      "drop:device=0,iter=5,count=0",
      "drop:device=2,iter=4,from=4",
      "kill:device=2,from=4",
      // --io-faults
      "enospc:op=3,times=2,path=day.ckpt; short:op=5,bytes=64; crash:op=7",
      "enospc:op=1,times=2",
      "enospc:op=1,times=99",
      "enospc:op=2,times=2",
      "enospc:op=2,path=target",
      "enospc:op=2,times=2,path=t.ckpt",
      "enospc:op=1,times=99,path=enospc.ckpt",
      "short:op=1,times=99,bytes=4",
      "short:op=2,times=99,bytes=32,path=short.ckpt",
      "rename:op=1,times=99",
      "rename:op=4,times=99,path=rename.ckpt",
      "crash:op=2",
      "crash:op=1,path=crash.ckpt",
      "crash:op=3,path=crash.ckpt",
      "crash:op=3,path=fallback.ckpt",
      "corrupt-read:op=1",
      "corrupt-read:op=1,path=fallback.ckpt",
      "bogus:op=1",
      "enospc:times=2",
      "enospc:op=0",
      "enospc:op=x",
      "enospc:op=2.7",
      "enospc:op=4294967297",
      "enospc:op=2,times=2147483647",
      "crash:op=1,times=3",
      "enospc:op=1;enospc:op=1",
      "explode:op=1",
      // --serve-faults
      "drop:op=1;corrupt:op=2,times=3,frame=response;"
      "truncate:op=4,bytes=7,frame=reject;delay:op=5,ms=80,frame=pong",
      "drop:op=1,times=2,frame=response",
      "corrupt:op=2,times=2,frame=response",
      "truncate:op=1,frame=response;truncate:op=4,frame=response",
      "delay:op=2,ms=250,frame=response;drop:op=5,frame=response",
      "delay:op=2,ms=100,frame=response",
      "drop:op=2,frame=response",
      "drop:op=1,frame=response;delay:op=3",
      "corrupt:op=2,times=2",
      "drop:op=2;drop:op=2,frame=response",
      "drop:op=2;corrupt:op=2",
      "drop",
      "drop:times=2",
      "drop:op=0",
      "drop:op=x",
      "drop:op=1,times=0",
      "drop:op=1,bogus=2",
      "drop:op=1,frame=request",
      "truncate:op=1,bytes=-1",
      "delay:op=1,ms=99999",
      "drop:op=2.7",
      "drop:op=4294967297",
      "drop:op=2;drop:op=2",
      "drop:op=2,frame=response;drop:op=2,frame=response",
      "drop:op=2,times=2147483647",
      // --crash-faults
      "signal:request=2;exit:request=5",
      "signal:request=2",
      "exit:request=5,times=3;hang:request=7",
      "signal:request=2;exit:request=5,times=3",
      "signal:request=2,times=2;exit:request=5",
      "hang:request=2",
      "signal:request=1,times=2",
      "exit:request=1",
      "explode:request=1",
      "signal",
      "signal:request=0",
      "signal:request=-3",
      "signal:request=1,times=0",
      "signal:request=x",
      "signal:bogus=1",
      "signal:request=1;signal:request=1",
      "signal:request=1.5",
      "signal:request=4294967297",
      "hang:request=2,times=2147483647",
      // empty plans
      "",
      "  ; ;  ",
      ";;",
  };
  return specs;
}

/// Seeded mutation: one to three byte flips, truncations, spliced
/// separators, or a spliced corpus entry.
std::string mutate(const std::string& spec, std::mt19937_64& rng) {
  std::string out = spec;
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int k = 0; k < edits; ++k) {
    const std::size_t pos = rng() % (out.size() + 1);
    switch (rng() % 4) {
      case 0:  // byte flip
        if (!out.empty()) {
          out[pos % out.size()] ^= static_cast<char>(1 + rng() % 255);
        }
        break;
      case 1:  // truncation
        out.resize(pos);
        break;
      case 2:  // spliced separator
        out.insert(pos, 1, ";,="[rng() % 3]);
        break;
      default:  // spliced entry
        out.insert(pos, ";" + corpus()[rng() % corpus().size()]);
        break;
    }
  }
  return out;
}

/// The property, for one parser: a typed rejection, or a plan whose printed
/// form reads back as itself. Returns true when the input was accepted.
template <class Plan>
bool accepts_and_round_trips(const std::string& input, const char* plane) {
  std::string printed;
  try {
    printed = print(Plan::parse(input));
  } catch (const FaultError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << plane << ": '" << input << "' raised an untyped "
                  << typeid(e).name() << ": " << e.what();
    return false;
  }
  try {
    EXPECT_EQ(print(Plan::parse(printed)), printed)
        << plane << ": '" << input << "' printed as '" << printed << "'";
  } catch (const std::exception& e) {
    ADD_FAILURE() << plane << ": '" << input << "' printed as '" << printed
                  << "', which does not parse: " << e.what();
  }
  return true;
}

struct Accepted {
  int faults = 0, io = 0, serve = 0, crash = 0;
};

Accepted check_all_planes(const std::string& input) {
  Accepted a;
  a.faults = accepts_and_round_trips<FaultPlan>(input, "--faults");
  a.io = accepts_and_round_trips<FsFaultPlan>(input, "--io-faults");
  a.serve = accepts_and_round_trips<ServeFaultPlan>(input, "--serve-faults");
  a.crash = accepts_and_round_trips<CrashFaultPlan>(input, "--crash-faults");
  return a;
}

TEST(FailpointGrammarTest, CorpusThrowsTypedOrRoundTrips) {
  Accepted total;
  for (const std::string& spec : corpus()) {
    const Accepted a = check_all_planes(spec);
    total.faults += a.faults;
    total.io += a.io;
    total.serve += a.serve;
    total.crash += a.crash;
  }
  // The property is vacuous for a plane that accepts nothing.
  EXPECT_GT(total.faults, 20);
  EXPECT_GT(total.io, 15);
  EXPECT_GT(total.serve, 10);
  EXPECT_GT(total.crash, 8);
}

TEST(FailpointGrammarTest, SeededMutationsThrowTypedOrRoundTrip) {
  std::mt19937_64 rng(20250807);
  Accepted total;
  int inputs = 0;
  for (int round = 0; round < 40; ++round) {
    for (const std::string& spec : corpus()) {
      const Accepted a = check_all_planes(mutate(spec, rng));
      total.faults += a.faults;
      total.io += a.io;
      total.serve += a.serve;
      total.crash += a.crash;
      ++inputs;
    }
  }
  EXPECT_GT(inputs, 4000);
  EXPECT_GT(total.faults, 100);
  EXPECT_GT(total.io, 100);
  EXPECT_GT(total.serve, 100);
  EXPECT_GT(total.crash, 100);
}

template <class Plan>
void expect_rejected(const std::string& spec, const std::string& key) {
  try {
    const std::string printed = print(Plan::parse(spec));
    ADD_FAILURE() << "'" << spec << "' accepted as '" << printed << "'";
  } catch (const FaultError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(key), std::string::npos) << what;
    EXPECT_NE(what.find(spec), std::string::npos) << what;
  }
}

TEST(FailpointGrammarTest, KeysAKindDoesNotReadAreRejected) {
  // Each kind accepts only the keys it reads, so printing never drops
  // one: these used to parse and print without the key.
  expect_rejected<FaultPlan>("drop:device=1,iter=4,until=9,count=2", "until");
  expect_rejected<FaultPlan>("corrupt:device=0,iter=5,until=9", "until");
  expect_rejected<FaultPlan>("kill:device=0,iter=5,until=9", "until");
  expect_rejected<FaultPlan>("kill:device=0,iter=5,count=2", "count");
  expect_rejected<FaultPlan>("kill:device=0,iter=5,factor=2", "factor");
  expect_rejected<FaultPlan>("kill:device=2,from=4", "from");
  expect_rejected<FaultPlan>("drop:device=0,iter=5,scale=2", "scale");
  expect_rejected<FaultPlan>("corrupt:device=0,iter=5,count=2", "count");
  expect_rejected<FaultPlan>("straggle:device=0,iter=5,count=3", "count");
  expect_rejected<FsFaultPlan>("enospc:op=1,bytes=5", "bytes");
  expect_rejected<FsFaultPlan>("rename:op=1,bytes=5", "bytes");
  expect_rejected<FsFaultPlan>("corrupt-read:op=1,bytes=5", "bytes");
  expect_rejected<ServeFaultPlan>("drop:op=1,ms=5", "ms");
  expect_rejected<ServeFaultPlan>("corrupt:op=1,bytes=5", "bytes");
  expect_rejected<ServeFaultPlan>("truncate:op=1,ms=5", "ms");
  expect_rejected<ServeFaultPlan>("delay:op=1,bytes=3", "bytes");

  // The keys a kind does read still parse, aliases included.
  EXPECT_EQ(print(FaultPlan::parse("drop:device=1,from=4,until=9,count=2")),
            "drop:device=1,from=4,count=2,until=9");
  EXPECT_EQ(
      print(FaultPlan::parse("corrupt:device=1,from=3,until=9,factor=2")),
      "corrupt:device=1,from=3,scale=2,until=9");
  EXPECT_EQ(
      print(FaultPlan::parse("straggle:device=1,iter=3,until=9,scale=2")),
      "straggle:device=1,iter=3,until=9,factor=2");
  EXPECT_EQ(print(FsFaultPlan::parse("short:op=2,bytes=32,path=a")),
            "short:op=2,bytes=32,path=a");
  EXPECT_EQ(print(ServeFaultPlan::parse("delay:op=5,ms=80,frame=pong")),
            "delay:op=5,ms=80,frame=pong");
}

TEST(FailpointGrammarTest, WhitespaceAroundTokensIsTrimmed) {
  EXPECT_EQ(print(ServeFaultPlan::parse(" drop : op = 2 ; ")), "drop:op=2");
  EXPECT_EQ(print(FsFaultPlan::parse(" enospc : op = 2 ; ")), "enospc:op=2");
}

}  // namespace
}  // namespace dopf::runtime
