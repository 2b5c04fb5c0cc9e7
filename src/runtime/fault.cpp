#include "runtime/fault.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <sstream>

namespace dopf::runtime {

namespace {

constexpr std::string_view kSpace = " \t";

std::string_view trim(std::string_view s) {
  const auto b = s.find_first_not_of(kSpace);
  if (b == std::string_view::npos) return {};
  return s.substr(b, s.find_last_not_of(kSpace) - b + 1);
}

/// The one spec tokenizer: `sep`-separated pieces, trimmed, empties dropped.
std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  for (std::size_t begin = 0; begin <= s.size();) {
    std::size_t end = s.find(sep, begin);
    if (end == std::string_view::npos) end = s.size();
    const std::string_view piece = trim(s.substr(begin, end - begin));
    if (!piece.empty()) out.push_back(piece);
    begin = end + 1;
  }
  return out;
}

std::string alternatives(std::span<const char* const> names) {
  std::string out;
  for (const char* name : names) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

std::string alternatives(std::span<const SpecKind> kinds) {
  std::vector<const char*> names;
  for (const SpecKind& kind : kinds) names.push_back(kind.name);
  return alternatives(names);
}

bool contains(std::span<const char* const> names, std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

int kind_index(std::span<const SpecKind> kinds, std::string_view name) {
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    if (name == kinds[i].name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

SpecEntry::SpecEntry(const SpecGrammar& grammar, std::string_view text)
    : grammar_(&grammar), text_(text) {
  const auto colon = text.find(':');
  if (colon == std::string_view::npos) fail("missing ':'");
  const std::string_view kind = trim(text.substr(0, colon));
  kind_ = kind_index(grammar.kinds, kind);
  if (kind_ < 0) {
    fail("unknown kind '" + std::string(kind) + "' (" +
         alternatives(grammar.kinds) + ")");
  }
  const SpecKind& row = grammar.kinds[static_cast<std::size_t>(kind_)];
  for (const std::string_view field : split(text.substr(colon + 1), ',')) {
    const auto eq = field.find('=');
    if (eq == std::string_view::npos) {
      fail("expected key=value, got '" + std::string(field) + "'");
    }
    const std::string_view key = trim(field.substr(0, eq));
    if (!contains(row.keys, key)) {
      fail("unknown key '" + std::string(key) + "' for " + row.name + " (" +
           alternatives(row.keys) + ")");
    }
    if (has(key)) fail("repeats key '" + std::string(key) + "'");
    fields_.emplace_back(std::string(key), std::string(trim(field.substr(eq + 1))));
  }
  for (const char* key : grammar.required) {
    if (!has(key)) fail(std::string("needs ") + key + "=");
  }
}

const std::string* SpecEntry::find(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool SpecEntry::has(std::string_view key) const { return find(key) != nullptr; }

std::optional<int> read_integer(std::string_view text, int lo, int hi) {
  long long value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || value < lo ||
      value > hi) {
    return std::nullopt;
  }
  return static_cast<int>(value);
}

std::optional<std::uint64_t> read_unsigned(std::string_view text) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

int SpecEntry::integer(std::string_view key, int fallback, int lo,
                       int hi) const {
  const std::string* v = find(key);
  if (v == nullptr) return fallback;
  const std::optional<int> value = read_integer(*v, lo, hi);
  if (!value) {
    fail(std::string(key) + " needs an integer in [" + std::to_string(lo) +
         ", " + std::to_string(hi) + "], got '" + std::string(*v) + "'");
  }
  return *value;
}

double SpecEntry::real(std::string_view key, double fallback) const {
  const std::string* v = find(key);
  if (v == nullptr) return fallback;
  const std::string& token = *v;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (token.empty() || *end != '\0' || !std::isfinite(value)) {
    fail(std::string(key) + " needs a finite number, got '" + token + "'");
  }
  return value;
}

std::string SpecEntry::text(std::string_view key) const {
  const std::string* v = find(key);
  return v == nullptr ? std::string() : *v;
}

void SpecEntry::fail(const std::string& what) const {
  throw FaultError(std::string(grammar_->prefix) + ": " + what + " in '" +
                   text_ + "'");
}

std::vector<SpecEntry> split_spec(const std::string& spec,
                                  const SpecGrammar& grammar) {
  std::vector<SpecEntry> entries;
  for (const std::string_view text : split(spec, ';')) {
    entries.emplace_back(grammar, text);
  }
  return entries;
}

void OrdinalSchedule::add(int first, int times, int kind) {
  Window w;
  w.first = first;
  w.end = static_cast<std::int64_t>(first) + times;
  w.kind = kind;
  windows_.push_back(w);
}

int OrdinalSchedule::fired(int kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(fired_[static_cast<std::size_t>(kind)]);
}

namespace {

// `until` bounds a persistent (from=) window; on a one-shot drop or
// corrupt it is rejected below. `scale` and `factor` name the same value.
constexpr const char* kKillKeys[] = {"device", "iter"};
constexpr const char* kDropKeys[] = {"device", "iter", "from", "until",
                                     "count"};
constexpr const char* kScaledKeys[] = {"device", "iter",  "from",
                                       "until",  "scale", "factor"};
constexpr SpecKind kFaultKinds[] = {{"kill", kKillKeys},
                                    {"drop", kDropKeys},
                                    {"corrupt", kScaledKeys},
                                    {"straggle", kScaledKeys}};
constexpr const char* kFaultRequired[] = {"device"};
constexpr SpecGrammar kFaultGrammar{"fault spec", kFaultKinds, kFaultRequired,
                                    "kind, device and iteration"};

}  // namespace

bool FaultEvent::active_at(int t) const {
  if (persistent || kind == Kind::kStraggle) {
    return t >= iteration && t <= until;
  }
  return t == iteration;
}

std::string FaultEvent::to_string() const {
  std::ostringstream out;
  out << kFaultKinds[static_cast<int>(kind)].name << ":device=" << device
      << (persistent ? ",from=" : ",iter=") << iteration;
  if (kind == Kind::kDropMessage && count != 1) out << ",count=" << count;
  if (kind == Kind::kCorruptMessage) out << ",scale=" << factor;
  if (persistent && until != std::numeric_limits<int>::max()) {
    out << ",until=" << until;
  }
  if (kind == Kind::kStraggle) {
    if (!persistent && until > iteration) out << ",until=" << until;
    out << ",factor=" << factor;
  }
  return out.str();
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  const auto build = [](const SpecEntry& e) {
    FaultEvent ev;
    ev.kind = static_cast<FaultEvent::Kind>(e.kind());
    if (e.has("iter") == e.has("from")) {
      e.fail("needs exactly one of iter= and from=");
    }
    if (e.has("scale") && e.has("factor")) {
      e.fail("needs at most one of scale= and factor=");
    }
    ev.persistent = e.has("from");
    if (e.has("until") && !ev.persistent &&
        ev.kind != FaultEvent::Kind::kStraggle) {
      e.fail("until= needs from= (a one-shot event fires at iter= only)");
    }
    ev.device = static_cast<std::size_t>(e.integer("device", 0, 0));
    ev.iteration = e.integer(ev.persistent ? "from" : "iter", 1);
    // A persistent event without until= recurs open-endedly.
    ev.until = std::max(
        ev.iteration,
        e.integer("until", ev.persistent ? std::numeric_limits<int>::max()
                                         : ev.iteration));
    ev.count = e.integer("count", 1);
    const double default_factor =
        ev.kind == FaultEvent::Kind::kCorruptMessage ? 16.0   // scale
        : ev.kind == FaultEvent::Kind::kStraggle     ? 4.0    // slowdown
                                                     : 0.0;
    ev.factor = e.real(e.has("scale") ? "scale" : "factor", default_factor);
    return ev;
  };
  return {parse_spec(spec, kFaultGrammar, build,
                     [](const FaultEvent& a, const FaultEvent& b) {
                       return a.kind == b.kind && a.device == b.device &&
                              a.iteration == b.iteration;
                     })};
}

std::string FaultPlan::to_string() const { return spec_string(events); }

double retry_cost_seconds(const RecoveryPolicy& policy, const CommModel& comm,
                          std::size_t message_bytes, int failures) {
  double seconds = 0.0;
  double timeout = policy.retry_timeout_s;
  for (int attempt = 0; attempt < failures; ++attempt) {
    seconds += timeout + comm.message_seconds(message_bytes);
    timeout *= policy.backoff_factor;
  }
  return seconds;
}

std::size_t FaultInjector::next(FaultEvent::Kind kind, std::size_t device,
                                int iteration, std::size_t from) const {
  for (std::size_t i = from; i < plan_.events.size(); ++i) {
    const FaultEvent& ev = plan_.events[i];
    if (ev.kind == kind && ev.device == device && ev.active_at(iteration) &&
        !consumed_[i]) {
      return i;
    }
  }
  return plan_.events.size();
}

bool FaultInjector::kill_scheduled(std::size_t device, int iteration) const {
  return next(FaultEvent::Kind::kKillDevice, device, iteration) <
         plan_.events.size();
}

void FaultInjector::consume_kill(std::size_t device, int iteration) {
  const std::size_t i = next(FaultEvent::Kind::kKillDevice, device, iteration);
  if (i < plan_.events.size()) consumed_[i] = 1;
}

int FaultInjector::message_drops(std::size_t device, int iteration) const {
  constexpr auto kDrop = FaultEvent::Kind::kDropMessage;
  int drops = 0;
  for (std::size_t i = next(kDrop, device, iteration); i < plan_.events.size();
       i = next(kDrop, device, iteration, i + 1)) {
    drops += plan_.events[i].count;
  }
  return drops;
}

void FaultInjector::consume_drops(std::size_t device, int iteration) {
  constexpr auto kDrop = FaultEvent::Kind::kDropMessage;
  for (std::size_t i = next(kDrop, device, iteration); i < plan_.events.size();
       i = next(kDrop, device, iteration, i + 1)) {
    consumed_[i] = !plan_.events[i].persistent;
  }
}

const FaultEvent* FaultInjector::corruption(std::size_t device,
                                            int iteration) const {
  const std::size_t i =
      next(FaultEvent::Kind::kCorruptMessage, device, iteration);
  return i < plan_.events.size() ? &plan_.events[i] : nullptr;
}

void FaultInjector::consume_corruption(std::size_t device, int iteration) {
  constexpr auto kCorrupt = FaultEvent::Kind::kCorruptMessage;
  for (std::size_t i = next(kCorrupt, device, iteration);
       i < plan_.events.size(); i = next(kCorrupt, device, iteration, i + 1)) {
    if (!plan_.events[i].persistent) {
      consumed_[i] = 1;
      return;
    }
  }
}

double FaultInjector::straggle_factor(std::size_t device,
                                      int iteration) const {
  constexpr auto kStraggle = FaultEvent::Kind::kStraggle;
  double factor = 1.0;
  for (std::size_t i = next(kStraggle, device, iteration);
       i < plan_.events.size(); i = next(kStraggle, device, iteration, i + 1)) {
    factor *= plan_.events[i].factor;
  }
  return factor;
}

namespace {

constexpr const char* kShortKeys[] = {"op", "times", "bytes", "path"};
constexpr const char* kFsKeys[] = {"op", "times", "path"};
constexpr SpecKind kFsKinds[] = {{"short", kShortKeys},
                                 {"enospc", kFsKeys},
                                 {"rename", kFsKeys},
                                 {"crash", kFsKeys},
                                 {"corrupt-read", kFsKeys}};
constexpr const char* kFsRequired[] = {"op"};
constexpr SpecGrammar kFsGrammar{"io fault spec", kFsKinds, kFsRequired,
                                 "kind, op and path filter"};

}  // namespace

std::string FsFailpoint::to_string() const {
  std::ostringstream out;
  out << kFsKinds[static_cast<int>(kind)].name << ":op=" << op;
  if (times != 1) out << ",times=" << times;
  if (kind == Kind::kShortWrite) out << ",bytes=" << bytes;
  if (!path_contains.empty()) out << ",path=" << path_contains;
  return out.str();
}

FsFaultPlan FsFaultPlan::parse(const std::string& spec) {
  const auto build = [](const SpecEntry& e) {
    FsFailpoint ev;
    ev.kind = static_cast<FsFailpoint::Kind>(e.kind());
    ev.op = e.integer("op", 1);
    ev.times = e.integer("times", 1);
    ev.bytes = static_cast<std::size_t>(e.integer("bytes", 0, 0));
    ev.path_contains = e.text("path");
    if (ev.kind == FsFailpoint::Kind::kCrashAfterTemp && ev.times != 1) {
      e.fail("crash fires once (drop times=)");
    }
    return ev;
  };
  return {parse_spec(spec, kFsGrammar, build,
                     [](const FsFailpoint& a, const FsFailpoint& b) {
                       return a.kind == b.kind && a.op == b.op &&
                              a.path_contains == b.path_contains;
                     })};
}

FsFaultInjector::FsFaultInjector(FsFaultPlan plan)
    : plan_(std::move(plan)), schedule_(std::size(kFsKinds)) {
  for (const FsFailpoint& ev : plan_.events) {
    schedule_.add(ev.op, ev.times, static_cast<int>(ev.kind));
  }
}

const FsFailpoint* FsFaultInjector::advance(const std::string& path,
                                            bool write_side) {
  const int hit = schedule_.advance([&](std::size_t i) {
    const FsFailpoint& ev = plan_.events[i];
    return (ev.kind != FsFailpoint::Kind::kCorruptRead) == write_side &&
           path.find(ev.path_contains) != std::string::npos;
  });
  return hit < 0 ? nullptr : &plan_.events[static_cast<std::size_t>(hit)];
}

const FsFailpoint* FsFaultInjector::on_write_attempt(const std::string& path) {
  return advance(path, /*write_side=*/true);
}

const FsFailpoint* FsFaultInjector::on_read(const std::string& path) {
  return advance(path, /*write_side=*/false);
}

}  // namespace dopf::runtime
