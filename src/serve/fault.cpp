#include "serve/fault.hpp"

#include <iterator>
#include <sstream>
#include <utility>

namespace dopf::serve {
namespace {

using dopf::runtime::SpecEntry;

constexpr const char* kKeys[] = {"op", "times", "frame"};
constexpr const char* kTruncateKeys[] = {"op", "times", "bytes", "frame"};
constexpr const char* kDelayKeys[] = {"op", "times", "ms", "frame"};
constexpr dopf::runtime::SpecKind kKinds[] = {{"drop", kKeys},
                                              {"corrupt", kKeys},
                                              {"truncate", kTruncateKeys},
                                              {"delay", kDelayKeys}};
constexpr const char* kRequired[] = {"op"};
constexpr dopf::runtime::SpecGrammar kGrammar{
    "serve fault spec", kKinds, kRequired, "kind, op and frame filter"};

/// `frame=` filter names, by frame op.
constexpr std::pair<const char*, Op> kFrames[] = {
    {"response", Op::kSolveResponse}, {"reject", Op::kReject},
    {"pong", Op::kPong}};

std::uint8_t parse_frame_filter(const SpecEntry& e) {
  if (!e.has("frame")) return 0;
  const std::string name = e.text("frame");
  for (const auto& [frame, op] : kFrames) {
    if (name == frame) return static_cast<std::uint8_t>(op);
  }
  e.fail("unknown frame filter '" + name + "' (response|reject|pong)");
}

}  // namespace

std::string ServeFailpoint::to_string() const {
  std::ostringstream out;
  out << kKinds[static_cast<int>(kind)].name << ":op=" << op;
  if (times != 1) out << ",times=" << times;
  if (kind == Kind::kTruncate && bytes != 0) out << ",bytes=" << bytes;
  if (kind == Kind::kDelay) out << ",ms=" << delay_ms;
  for (const auto& [name, frame] : kFrames) {
    if (frame_op == static_cast<std::uint8_t>(frame)) out << ",frame=" << name;
  }
  return out.str();
}

ServeFaultPlan ServeFaultPlan::parse(const std::string& spec) {
  const auto build = [](const SpecEntry& e) {
    ServeFailpoint ev;
    ev.kind = static_cast<ServeFailpoint::Kind>(e.kind());
    ev.op = e.integer("op", 1);
    ev.times = e.integer("times", 1);
    ev.bytes = static_cast<std::size_t>(e.integer("bytes", 0, 0));
    ev.delay_ms = e.integer("ms", 50, 0, 60000);
    ev.frame_op = parse_frame_filter(e);
    return ev;
  };
  return {dopf::runtime::parse_spec(
      spec, kGrammar, build,
      [](const ServeFailpoint& a, const ServeFailpoint& b) {
        return a.kind == b.kind && a.op == b.op && a.frame_op == b.frame_op;
      })};
}

ServeFaultInjector::ServeFaultInjector(ServeFaultPlan plan)
    : plan_(std::move(plan)), schedule_(std::size(kKinds)) {
  for (const ServeFailpoint& ev : plan_.events) {
    schedule_.add(ev.op, ev.times, static_cast<int>(ev.kind));
  }
}

const ServeFailpoint* ServeFaultInjector::on_send(Op op) {
  const int hit = schedule_.advance([&](std::size_t i) {
    const std::uint8_t filter = plan_.events[i].frame_op;
    return filter == 0 || filter == static_cast<std::uint8_t>(op);
  });
  return hit < 0 ? nullptr : &plan_.events[static_cast<std::size_t>(hit)];
}

ServeFaultInjector::Counts ServeFaultInjector::counts() const {
  using Kind = ServeFailpoint::Kind;
  auto fired = [&](Kind k) { return schedule_.fired(static_cast<int>(k)); };
  return {fired(Kind::kDrop), fired(Kind::kCorrupt), fired(Kind::kTruncate),
          fired(Kind::kDelay)};
}

bool apply_failpoint(const ServeFailpoint& fp, std::string* frame,
                     bool* close_after) {
  switch (fp.kind) {
    case ServeFailpoint::Kind::kDrop:
      return false;
    case ServeFailpoint::Kind::kCorrupt: {
      // Flip one bit inside the CRC-guarded region (op byte onward); the
      // receiver's CRC check must catch it. Deterministic position: the
      // middle of the frame body.
      const std::size_t lo = 4;  // skip the magic: a bad magic is a
                                 // different (also covered) failure shape
      const std::size_t pos = lo + (frame->size() - lo) / 2;
      (*frame)[pos] = static_cast<char>((*frame)[pos] ^ 0x01);
      return true;
    }
    case ServeFailpoint::Kind::kTruncate: {
      std::size_t keep = fp.bytes != 0 ? fp.bytes : frame->size() / 2;
      if (keep >= frame->size()) keep = frame->size() - 1;
      frame->resize(keep);
      // A torn frame desynchronizes the stream; the sender closes the
      // connection right after, like a real torn TCP write at process death.
      if (close_after != nullptr) *close_after = true;
      return true;
    }
    case ServeFailpoint::Kind::kDelay:
      return true;  // the sleep is the sender's job
  }
  return true;
}

}  // namespace dopf::serve
