#include "stream/profile.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "network/phase.hpp"

namespace dopf::stream {

using dopf::network::Network;
using dopf::network::Phase;
using dopf::runtime::ScenarioOverride;

namespace {

[[noreturn]] void fail(int line_no, const std::string& message) {
  throw ProfileError("profile line " + std::to_string(line_no) + ": " +
                     message);
}

double parse_number(const std::string& token, int line_no, const char* what) {
  std::istringstream ss(token);
  double v = 0.0;
  char trailing = 0;
  if (!(ss >> v) || ss >> trailing || !std::isfinite(v)) {
    fail(line_no, std::string("bad ") + what + " '" + token + "'");
  }
  return v;
}

int parse_count(const std::string& token, int line_no, const char* what) {
  const double v = parse_number(token, line_no, what);
  if (v <= 0.0 || v != std::floor(v)) {
    fail(line_no,
         std::string(what) + " must be a positive integer, got '" + token +
             "'");
  }
  return static_cast<int>(v);
}

SwitchEvent parse_switch(const std::vector<std::string>& tokens,
                         int line_no) {
  if (tokens.size() < 3) {
    fail(line_no,
         "expected: switch <line> open|close|impedance-scale [<factor>]");
  }
  SwitchEvent ev;
  ev.line = tokens[1];
  ev.line_no = line_no;
  if (tokens[2] == "open" || tokens[2] == "close") {
    if (tokens.size() != 3) {
      fail(line_no, "expected: switch <line> " + tokens[2]);
    }
    ev.kind = tokens[2] == "open" ? SwitchEvent::Kind::kOpen
                                  : SwitchEvent::Kind::kClose;
  } else if (tokens[2] == "impedance-scale") {
    if (tokens.size() != 4) {
      fail(line_no, "expected: switch <line> impedance-scale <factor>");
    }
    ev.kind = SwitchEvent::Kind::kImpedanceScale;
    ev.factor = parse_number(tokens[3], line_no, "impedance factor");
    if (ev.factor <= 0.0) {
      fail(line_no, "impedance factor must be positive, got '" + tokens[3] +
                        "'");
    }
  } else {
    fail(line_no, "unknown switch action '" + tokens[2] + "'");
  }
  return ev;
}

void reject_duplicate_switch(const std::vector<SwitchEvent>& seen,
                             const SwitchEvent& ev, int step) {
  for (const SwitchEvent& prev : seen) {
    if (prev.line == ev.line) {
      fail(ev.line_no, "duplicate switch event for line '" + ev.line +
                           "' in step " + std::to_string(step) +
                           " (first on line " + std::to_string(prev.line_no) +
                           ")");
    }
  }
}

}  // namespace

const ProfileBlock* StreamProfile::block_for(int step) const {
  const ProfileBlock* active = nullptr;
  for (const ProfileBlock& block : blocks) {
    if (block.step > step) break;
    active = &block;
  }
  return active;
}

StreamProfile parse_profile(std::istream& in) {
  StreamProfile profile;
  bool have_steps = false, have_name = false, have_dt = false;
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream ss(raw);
    std::vector<std::string> tokens;
    std::string t;
    while (ss >> t) tokens.push_back(t);
    if (tokens.empty()) continue;

    if (tokens[0] == "profile") {
      if (have_name) fail(line_no, "duplicate 'profile' directive");
      if (tokens.size() != 2) fail(line_no, "expected: profile <name>");
      profile.name = tokens[1];
      have_name = true;
    } else if (tokens[0] == "steps") {
      if (have_steps) fail(line_no, "duplicate 'steps' directive");
      if (tokens.size() != 2) fail(line_no, "expected: steps <count>");
      profile.num_steps = parse_count(tokens[1], line_no, "step count");
      have_steps = true;
    } else if (tokens[0] == "dt") {
      if (have_dt) fail(line_no, "duplicate 'dt' directive");
      if (tokens.size() != 2) fail(line_no, "expected: dt <seconds>");
      profile.dt_seconds = parse_number(tokens[1], line_no, "dt");
      if (profile.dt_seconds <= 0.0) fail(line_no, "dt must be positive");
      have_dt = true;
    } else if (tokens[0] == "step") {
      if (!have_steps) fail(line_no, "'step' before 'steps <count>'");
      if (tokens.size() != 2) fail(line_no, "expected: step <index>");
      const double v = parse_number(tokens[1], line_no, "step index");
      if (v < 0.0 || v != std::floor(v)) {
        fail(line_no, "step index must be a non-negative integer");
      }
      const int step = static_cast<int>(v);
      if (step >= profile.num_steps) {
        fail(line_no, "step " + std::to_string(step) +
                          " out of range (steps " +
                          std::to_string(profile.num_steps) + ")");
      }
      if (!profile.blocks.empty() && step <= profile.blocks.back().step) {
        fail(line_no, "step " + std::to_string(step) +
                          " not increasing (previous block is step " +
                          std::to_string(profile.blocks.back().step) +
                          " on line " +
                          std::to_string(profile.blocks.back().line_no) + ")");
      }
      profile.blocks.push_back(ProfileBlock{step, {}, {}, line_no});
    } else if (tokens[0] == "load" || tokens[0] == "gen") {
      if (profile.blocks.empty()) {
        fail(line_no, "override outside a 'step' block");
      }
      ProfileBlock& block = profile.blocks.back();
      try {
        const ScenarioOverride ov =
            dopf::runtime::parse_scenario_override(tokens, line_no);
        dopf::runtime::reject_duplicate_override(
            block.overrides, ov, "step " + std::to_string(block.step));
        block.overrides.push_back(ov);
      } catch (const dopf::runtime::ScenarioError& e) {
        throw ProfileError(e.what());
      }
    } else if (tokens[0] == "switch") {
      if (profile.blocks.empty()) {
        fail(line_no, "switch event outside a 'step' block");
      }
      ProfileBlock& block = profile.blocks.back();
      const SwitchEvent ev = parse_switch(tokens, line_no);
      reject_duplicate_switch(block.switches, ev, block.step);
      block.switches.push_back(ev);
    } else {
      fail(line_no, "unknown directive '" + tokens[0] + "'");
    }
  }
  if (!have_steps) throw ProfileError("profile: missing 'steps <count>'");
  return profile;
}

StreamProfile load_profile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ProfileError("cannot open profile file: " + path);
  return parse_profile(in);
}

StreamProfile profile_from_scenarios(
    const std::vector<dopf::runtime::Scenario>& scenarios) {
  StreamProfile profile;
  profile.name = "sweep";
  profile.num_steps = static_cast<int>(scenarios.size()) + 1;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    ProfileBlock block;
    block.step = static_cast<int>(i) + 1;
    block.overrides = scenarios[i].overrides;
    profile.blocks.push_back(std::move(block));
  }
  return profile;
}

Network network_at_step(const Network& base, const StreamProfile& profile,
                        int step) {
  if (step < 0 || step >= profile.num_steps) {
    throw ProfileError("step " + std::to_string(step) +
                       " out of range (steps " +
                       std::to_string(profile.num_steps) + ")");
  }
  const ProfileBlock* block = profile.block_for(step);
  if (block == nullptr) return base;

  Network net = base;
  if (!block->overrides.empty()) {
    try {
      net = dopf::runtime::apply_scenario(
          net, dopf::runtime::Scenario{
                   profile.name + "@" + std::to_string(step),
                   block->overrides});
    } catch (const dopf::runtime::ScenarioError& e) {
      throw ProfileError("step " + std::to_string(step) + ": " + e.what());
    }
  }
  for (const SwitchEvent& ev : block->switches) {
    int line_id = -1;
    for (const auto& line : net.lines()) {
      if (line.name == ev.line) {
        line_id = line.id;
        break;
      }
    }
    if (line_id < 0) {
      throw ProfileError("step " + std::to_string(step) +
                         ": no line named '" + ev.line + "'");
    }
    auto& line = net.line_mutable(line_id);
    if (ev.kind == SwitchEvent::Kind::kClose) {
      // Blocks are absolute against base, so a closed switch is simply the
      // base line record the copy already carries; the marker documents
      // intent in hand-written profiles.
      continue;
    }
    const double scale = ev.kind == SwitchEvent::Kind::kOpen
                             ? kOpenImpedanceScale
                             : ev.factor;
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        line.r(i, j) *= scale;
        line.x(i, j) *= scale;
      }
    }
    if (ev.kind == SwitchEvent::Kind::kOpen) {
      line.flow_limit =
          dopf::network::PerPhase<double>::uniform(kOpenFlowLimit);
    }
  }
  net.validate();
  return net;
}

}  // namespace dopf::stream
