// Shared pieces of the benchmark harness: run arguments, the result record,
// sample statistics, the seeded generator and the in-memory span tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/backend.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;    ///< checkpoints, sockets and the trace file
  std::string serve_bin;  ///< dopf_serve binary (serve-mix only)
  int nproc = 1;
};

/// One workload run's outcome: what the last output line reports, plus the
/// sample counts behind every percentile and the counts that must repeat
/// exactly for one seed.
struct Record {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> gate_failures;
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, long long> samples;
  std::map<std::string, long long> exact_counts;
  std::vector<std::string> not_exercised;
  std::string trace_file;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    gate_failures.push_back(why);
  }
  std::string to_json(const Args& args) const;
};

/// Linear-interpolation percentile (q in [0, 1]); 0 for no samples.
double percentile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

/// Deterministic generator: splitmix64, so the same seed yields the same
/// inputs on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  std::size_t below(std::size_t n) { return next() % n; }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();

/// In-memory span recorder. Spans nest on one thread: each records its name,
/// start, end, the enclosing span and a group id shared by the spans of one
/// step or request. Nothing is written until write() at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Open a span; returns its index, or -1 when tracing is off.
  int open(const char* name, std::int64_t group = -1);
  /// Close span `idx`; `rename` (optional) replaces its name, for spans
  /// whose kind is only known once the call returns.
  void close(int idx, const char* rename = nullptr);

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int64_t group = -1)
        : t_(t), idx_(t.open(name, group)) {}
    ~Scope() { t_.close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_;
  };

  /// Durations (ms) of every closed span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Self time (ms) of every closed span called `name`: its duration minus
  /// the part covered by its child spans.
  std::vector<double> self_ms(const std::string& name) const;
  /// Group id of every closed span called `name`, aligned with durations_ms.
  std::vector<std::int64_t> groups(const std::string& name) const;

  void write(const std::string& path, const Args& args) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t group;
    std::int64_t t0, t1;
  };
  std::vector<std::int64_t> child_ns() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Per-call kernel durations in microseconds, by kernel.
struct KernelSamples {
  std::vector<double> global, local, dual, residual;
};

/// ExecutionBackend decorator around the serial backend. While `tracer` is
/// enabled it times every kernel call: one span per call when
/// `per_call_spans`, and a sample in `samples` when that is set. Otherwise
/// it only stamps the start of each iteration (one clock read per global
/// update) into `iteration_marks`, when that is set.
class TimedBackend final : public dopf::core::ExecutionBackend {
 public:
  TimedBackend(Tracer* tracer, bool per_call_spans, KernelSamples* samples,
               std::vector<std::int64_t>* iteration_marks);

  const char* name() const override { return "serial(timed)"; }
  void global_update(const dopf::core::PackedLocalSolvers& pack,
                     dopf::core::PackedState& state) override;
  void local_update(const dopf::core::PackedLocalSolvers& pack,
                    dopf::core::PackedState& state) override;
  void dual_update(const dopf::core::PackedLocalSolvers& pack,
                   dopf::core::PackedState& state) override;
  dopf::core::ResidualSums residual_sums(
      const dopf::core::PackedLocalSolvers& pack,
      const dopf::core::PackedState& state) override;

 private:
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  std::unique_ptr<dopf::core::ExecutionBackend> inner_;
  Tracer* tracer_;
  bool per_call_spans_;
  KernelSamples* samples_;
  std::vector<std::int64_t>* marks_;
};

/// Bytes each kernel call reads and writes, and local-update flops, computed
/// from the pack's array sizes (compulsory traffic, every array element
/// touched once; cache behaviour is not modelled).
struct KernelCost {
  double global_bytes = 0, local_bytes = 0, dual_bytes = 0,
         residual_bytes = 0, local_flops = 0;
};
KernelCost kernel_cost(const dopf::core::PackedLocalSolvers& pack);

/// runtime.threaded_local_us: median wall time of the threaded backend's
/// local update at `threads` threads on `pack`, from the given iterate.
void measure_threaded_local(const dopf::core::PackedLocalSolvers& pack,
                            double rho, std::span<const double> x,
                            std::span<const double> z,
                            std::span<const double> lambda, int threads,
                            Record& rec);

/// The per-layer metric names every traced run reports, with their units.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fill every per-layer metric the workload did not set with 0 and list it
/// as not exercised.
void finish_per_layer(Record& rec);

void run_cold(const Args& args, Record& rec);
void run_stream(const Args& args, Record& rec);
void run_serve(const Args& args, Record& rec);

}  // namespace perfbench
