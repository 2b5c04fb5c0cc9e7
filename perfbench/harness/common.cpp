#include "common.hpp"

#include "runtime/threaded_backend.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Record::to_json(const Args& args) const {
  std::ostringstream o;
  o << "{\"workload\":\"" << json_escape(args.workload) << "\",\"seed\":"
    << args.seed << ",\"seconds\":" << json_number(args.seconds)
    << ",\"trace\":" << (args.trace ? 1 : 0)
    << ",\"correct\":" << (correct ? "true" : "false")
    << ",\"attempted\":" << attempted << ",\"failed\":" << failed
    << ",\"gate_failures\":[";
  for (std::size_t i = 0; i < gate_failures.size(); ++i) {
    o << (i ? "," : "") << '"' << json_escape(gate_failures[i]) << '"';
  }
  o << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    o << (first ? "" : ",") << '"' << name << "\":{\"value\":"
      << json_number(m.value) << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  o << "},\"samples\":{";
  first = true;
  for (const auto& [name, n] : samples) {
    o << (first ? "" : ",") << '"' << name << "\":" << n;
    first = false;
  }
  o << "},\"exact_counts\":{";
  first = true;
  for (const auto& [name, n] : exact_counts) {
    o << (first ? "" : ",") << '"' << name << "\":" << n;
    first = false;
  }
  o << "},\"not_exercised\":[";
  for (std::size_t i = 0; i < not_exercised.size(); ++i) {
    o << (i ? "," : "") << '"' << not_exercised[i] << '"';
  }
  o << "],\"trace_file\":\"" << json_escape(trace_file) << "\"}";
  return o.str();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double self_peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int Tracer::open(const char* name, std::int64_t group) {
  if (!enabled_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  if (group < 0 && parent >= 0) group = spans_[parent].group;
  spans_.push_back(Span{name, parent, group, now_ns(), 0});
  const int idx = static_cast<int>(spans_.size() - 1);
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(int idx, const char* rename) {
  if (idx < 0) return;
  spans_[idx].t1 = now_ns();
  if (rename != nullptr) spans_[idx].name = rename;
  // Spans close innermost first; pop through idx so a span left open by an
  // exception cannot capture later siblings as children.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == idx) break;
  }
}

std::vector<std::int64_t> Tracer::child_ns() const {
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) covered[s.parent] += s.t1 - s.t0;
  }
  return covered;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.t1 != 0 && name == s.name) out.push_back((s.t1 - s.t0) * 1e-6);
  }
  return out;
}

std::vector<double> Tracer::self_ms(const std::string& name) const {
  const auto covered = child_ns();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.t1 != 0 && name == s.name) {
      out.push_back((s.t1 - s.t0 - covered[i]) * 1e-6);
    }
  }
  return out;
}

std::vector<std::int64_t> Tracer::groups(const std::string& name) const {
  std::vector<std::int64_t> out;
  for (const Span& s : spans_) {
    if (s.t1 != 0 && name == s.name) out.push_back(s.group);
  }
  return out;
}

void Tracer::write(const std::string& path, const Args& args) const {
  std::ofstream out(path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().t0;
  const auto covered = child_ns();
  out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"time_unit\":\"us\",\"layers\":{";
  // Per-name totals first, so a reader can see where the time went without
  // walking the span list.
  std::map<std::string, std::array<double, 3>> layers;  // count, total, self
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.t1 == 0) continue;
    auto& l = layers[s.name];
    l[0] += 1;
    l[1] += (s.t1 - s.t0) * 1e-3;
    l[2] += (s.t1 - s.t0 - covered[i]) * 1e-3;
  }
  bool first = true;
  for (const auto& [name, l] : layers) {
    out << (first ? "" : ",") << "\n\"" << name << "\":{\"count\":" << l[0]
        << ",\"total_us\":" << json_number(l[1])
        << ",\"self_us\":" << json_number(l[2]) << "}";
    first = false;
  }
  out << "},\n\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "[" << i << ",\"" << s.name << "\","
        << s.parent << "," << s.group << ","
        << json_number((s.t0 - origin) * 1e-3) << ","
        << json_number((s.t1 - origin) * 1e-3) << "]";
  }
  out << "\n],\n\"span_fields\":[\"id\",\"name\",\"parent\",\"group\","
         "\"start_us\",\"end_us\"]}\n";
}

TimedBackend::TimedBackend(Tracer* tracer, bool per_call_spans,
                           KernelSamples* samples,
                           std::vector<std::int64_t>* iteration_marks)
    : inner_(dopf::core::make_serial_backend()),
      tracer_(tracer),
      per_call_spans_(per_call_spans),
      samples_(samples),
      marks_(iteration_marks) {}

namespace {

/// Runs one kernel call, timing it into `samples` (µs, when set) and a
/// span (when `span`).
template <class F>
auto timed_call(Tracer* tracer, bool span, const char* name,
                std::vector<double>* samples, F&& call) {
  struct Done {
    Tracer* tracer;
    int idx;
    std::vector<double>* samples;
    std::int64_t t0;
    ~Done() {
      if (samples != nullptr) samples->push_back((now_ns() - t0) * 1e-3);
      tracer->close(idx);
    }
  } done{tracer, span ? tracer->open(name) : -1, samples, now_ns()};
  return call();
}

}  // namespace

void TimedBackend::global_update(const dopf::core::PackedLocalSolvers& pack,
                                 dopf::core::PackedState& state) {
  if (!tracing()) {
    if (marks_ != nullptr) marks_->push_back(now_ns());
    inner_->global_update(pack, state);
    return;
  }
  timed_call(tracer_, per_call_spans_, "core.global",
             samples_ ? &samples_->global : nullptr,
             [&] { inner_->global_update(pack, state); });
}

void TimedBackend::local_update(const dopf::core::PackedLocalSolvers& pack,
                                dopf::core::PackedState& state) {
  if (!tracing()) {
    inner_->local_update(pack, state);
    return;
  }
  timed_call(tracer_, per_call_spans_, "core.local",
             samples_ ? &samples_->local : nullptr,
             [&] { inner_->local_update(pack, state); });
}

void TimedBackend::dual_update(const dopf::core::PackedLocalSolvers& pack,
                               dopf::core::PackedState& state) {
  if (!tracing()) {
    inner_->dual_update(pack, state);
    return;
  }
  timed_call(tracer_, per_call_spans_, "core.dual",
             samples_ ? &samples_->dual : nullptr,
             [&] { inner_->dual_update(pack, state); });
}

dopf::core::ResidualSums TimedBackend::residual_sums(
    const dopf::core::PackedLocalSolvers& pack,
    const dopf::core::PackedState& state) {
  if (!tracing()) return inner_->residual_sums(pack, state);
  return timed_call(tracer_, per_call_spans_, "core.residual",
                    samples_ ? &samples_->residual : nullptr,
                    [&] { return inner_->residual_sums(pack, state); });
}

KernelCost kernel_cost(const dopf::core::PackedLocalSolvers& p) {
  const double n = static_cast<double>(p.num_global());
  const double L = static_cast<double>(p.total_local());
  const double S = static_cast<double>(p.num_components());
  double sq = 0.0;  // sum of n_s^2: the Abar_s blocks
  for (int ns : p.comp_nvars) sq += static_cast<double>(ns) * ns;
  KernelCost k;
  // gather_ptr, gather_pos, z and lambda gathered, c/lb/ub read, x written.
  k.global_bytes = 8 * (n + 1) + 8 * L + 16 * L + 24 * n + 8 * n;
  // Staging: global_idx, x gathered, lambda read, y written. Projection: y
  // read, Abar_s, bbar read, z written; plus the per-component descriptors.
  k.local_bytes = 4 * L + 8 * L + 8 * L + 8 * L + 8 * L + 8 * sq + 8 * L +
                  8 * L + 20 * S;
  // Staging: one divide and one add per entry; projection: a multiply-add
  // per Abar_s entry and one subtract per row.
  k.local_flops = 2 * L + 2 * sq + L;
  // global_idx, x gathered, z read, lambda read and written.
  k.dual_bytes = 4 * L + 8 * L + 8 * L + 16 * L;
  // global_idx, x gathered, z, z_prev and lambda read.
  k.residual_bytes = 4 * L + 8 * L + 24 * L;
  return k;
}

void measure_threaded_local(const dopf::core::PackedLocalSolvers& pack,
                            double rho, std::span<const double> x,
                            std::span<const double> z,
                            std::span<const double> lambda, int threads,
                            Record& rec) {
  dopf::runtime::ThreadedBackend threaded(threads);
  std::vector<double> xs(x.begin(), x.end()), zs(z.begin(), z.end()),
      z_prev(z.begin(), z.end()), ls(lambda.begin(), lambda.end()),
      y(pack.total_local());
  dopf::core::PackedState state;
  state.rho = rho;
  state.x = xs;
  state.z = zs;
  state.z_prev = z_prev;
  state.lambda = ls;
  state.y = y;
  std::vector<double> us;
  for (int k = 0; k < 200; ++k) {
    const std::int64_t t0 = now_ns();
    threaded.local_update(pack, state);
    us.push_back((now_ns() - t0) * 1e-3);
  }
  rec.set("runtime.threaded_local_us", median(us), "us");
  rec.samples["runtime.threaded_local_us"] = static_cast<long long>(us.size());
  rec.samples["runtime.threads"] = threaded.threads();
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.global_us", "us"},
      {"core.local_us", "us"},
      {"core.dual_us", "us"},
      {"core.residual_us", "us"},
      {"core.global_bytes", "B"},
      {"core.local_bytes", "B"},
      {"core.dual_bytes", "B"},
      {"core.residual_bytes", "B"},
      {"core.local_flops", "flop"},
      {"runtime.threaded_local_us", "us"},
      {"feeders.build_ms", "ms"},
      {"opf.build_model_ms", "ms"},
      {"robust.preflight_ms", "ms"},
      {"core.factorize_ms", "ms"},
      {"core.bind_ms", "ms"},
      {"core.pack_bytes", "B"},
      {"stream.step_build_ms", "ms"},
      {"robust.scenario_preflight_ms", "ms"},
      {"core.rebind_rhs_ms", "ms"},
      {"core.rebind_refactor_ms", "ms"},
      {"core.rhs_rebinds", "count"},
      {"core.refactorizations", "count"},
      {"core.warm_solve_ms", "ms"},
      {"core.warm_iterations", "count"},
      {"runtime.checkpoint_write_ms", "ms"},
      {"runtime.checkpoint_bytes", "B"},
      {"serve.ping_rtt_us", "us"},
      {"serve.wire_codec_us", "us"},
      {"serve.service_ms", "ms"},
      {"serve.request_build_ms", "ms"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_p95_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.refactorizations_per_request", "ratio"},
      {"serve.shed_frac", "ratio"},
      {"serve.worker_restarts", "count"},
      {"bench.gen_lag_p95_ms", "ms"},
      {"bench.trace_overhead_frac", "ratio"},
  };
  return kMetrics;
}

void finish_per_layer(Record& rec) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    auto it = rec.metrics.find(name);
    if (it == rec.metrics.end()) {
      rec.set(name, 0.0, unit);
      rec.not_exercised.push_back(name);
    } else {
      it->second.unit = unit;
    }
  }
  // A traced run reports exactly the per-layer set.
  std::set<std::string> keep;
  for (const auto& m : per_layer_metrics()) keep.insert(m.first);
  for (auto it = rec.metrics.begin(); it != rec.metrics.end();) {
    it = keep.count(it->first) ? std::next(it) : rec.metrics.erase(it);
  }
}

}  // namespace perfbench
