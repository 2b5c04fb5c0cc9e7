/// Torn-file fuzzing: every byte-prefix of a checkpoint must surface as a
/// typed CheckpointError — never a crash, hang, or silently partial restore.
/// This is the load-side contract behind the A/B fallback: a slot torn at
/// ANY byte is rejected with a diagnostic, so CheckpointStore::load can
/// always tell a good generation from a half-written one.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "runtime/checkpoint.hpp"

#ifndef DOPF_GOLDEN_DIR
#error "DOPF_GOLDEN_DIR must point at tests/golden"
#endif

namespace dopf::runtime {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TruncationFuzzTest, EveryCheckpointPrefixRaisesTypedError) {
  const std::string golden = read_file(std::string(DOPF_GOLDEN_DIR) +
                                       "/ieee13.ckpt");
  ASSERT_GT(golden.size(), 1000u) << "golden checkpoint missing?";

  // The full file must parse (the fuzz loop below proves nothing if the
  // corpus itself is stale). So must the prefix missing only the trailing
  // newline: every bit of state and the full CRC are present, so rejecting
  // it would be a false positive, not robustness.
  ASSERT_EQ(golden.back(), '\n');
  for (const std::size_t len : {golden.size(), golden.size() - 1}) {
    std::istringstream full(golden.substr(0, len));
    const AdmmCheckpoint ck = read_checkpoint(full);
    EXPECT_FALSE(ck.x.empty());
  }

  for (std::size_t len = 0; len + 1 < golden.size(); ++len) {
    std::istringstream in(golden.substr(0, len));
    try {
      read_checkpoint(in);
      FAIL() << "prefix of " << len << " bytes parsed as a valid checkpoint";
    } catch (const CheckpointError&) {
      // expected: typed rejection
    } catch (const std::exception& e) {
      FAIL() << "prefix of " << len << " bytes raised untyped "
             << typeid(e).name() << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace dopf::runtime
