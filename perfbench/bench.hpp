// Shared pieces of the wall-clock training benchmark: the span recorder, the
// per-iteration record, the workload session interface and the helpers the
// main program (main.cpp), the workloads (workloads.cpp) and the probes
// (probes.cpp) have in common.
//
// Every layer is timed from outside the runtime, at the calls into its
// public functions; the program under test is never modified.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- spans ------------------------------------------------------------------

/// One traced interval: name, start/end (seconds since the recorder's epoch),
/// the index of the enclosing span (-1 for a root) and the iteration it
/// belongs to (-1 outside the training loop).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int64_t iter = -1;
};

/// In-memory span recorder. Disabled, every call is a branch and nothing is
/// stored, so the untraced timed window pays no recording cost.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span nested in the innermost open one; returns its id (-1 when
  /// disabled).
  int begin(const char* name, int64_t iter);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span named `name`, in record order: its duration
  /// minus the part of it that its child spans cover.
  std::vector<double> self_times(const std::string& name) const;

  /// Write every span as a JSON array; returns false if the file cannot be
  /// written.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, int64_t iter) : t_(t), id_(t.begin(name, iter)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// --- iteration records ------------------------------------------------------

/// What one training iteration reports back to the timing loop.
struct IterRecord {
  double wall_s = 0.0;            ///< wall seconds of the whole step
  double loss = 0.0;
  sn::core::IterationStats stats;     ///< fwd+bwd (or grid aggregate) counters
};

/// Outcome of the live-oracle output check over an iteration prefix.
struct CheckOutcome {
  uint64_t iterations = 0;   ///< prefix iterations compared
  uint64_t failed = 0;       ///< iterations that mismatched or went non-finite
  std::vector<std::string> problems;  ///< one line per mismatch
};

/// Deliberate oracle mismatches for the self-test of the output check.
enum class OracleFault {
  kNone,
  kShiftedData,   ///< oracle trains on the next data seed: losses and weights differ
  kOneUlpWeight,  ///< one oracle weight moved by one ulp: only the weights differ
};

/// Per-kernel replay seconds for one iteration's worth of conv/FC work.
struct KernelTimes {
  double conv_fwd_s = 0.0;
  double conv_bwd_data_s = 0.0;
  double conv_bwd_filter_s = 0.0;
  double fc_s = 0.0;
  double conv_flops = 0.0;  ///< computed (nn::conv_flops), all three passes
};

/// A constructed workload: the system under test, ready to train.
class Session {
 public:
  virtual ~Session() = default;

  /// One timed training iteration.
  virtual IterRecord step(Tracer& tr, int64_t iter) = 0;

  /// Run `iters` iterations on this session and compare losses and weights
  /// bit for bit with a freshly built oracle (kept outside any timed window).
  /// A fault other than kNone is injected only by the benchmark's self-test,
  /// which must then see the check fail.
  virtual CheckOutcome check_prefix(int iters, OracleFault fault) = 0;

  /// Time the conv/FC kernels at this workload's own layer shapes with the
  /// pinned algorithm.
  virtual void replay_kernels(Tracer& tr, int reps, KernelTimes* out) = 0;

  /// Forward layer executions one step schedules before any recompute
  /// replay (the base of recompute.ratio).
  virtual uint64_t forward_steps() const = 0;

  /// Training samples one step consumes.
  virtual int samples_per_step() const = 0;

  /// Device capacity of one device (peak_device_bytes must stay below it).
  virtual uint64_t capacity() const = 0;

  virtual bool grid() const { return false; }
};

/// Build workload `name` for data/weight seed `seed`. Throws
/// std::invalid_argument for an unknown name.
std::unique_ptr<Session> make_session(const std::string& name, uint64_t seed);

/// Table 4 search: deepest ResNet (n1=6, n2=32, n4=6, n3 swept) that trains
/// one simulated iteration under kSuperNeurons on the 12 GB K40c at batch 16.
/// OOM probes are measurements, not failures.
int deepest_resnet_depth();

/// Dynamic workspace at paper scale: one simulated iteration of ResNet-734
/// (n3=200) under kSuperNeurons on the 12 GB K40c at batch 16; the share of
/// its conv steps that got the workspace of their fastest algorithm. Both
/// workloads pin the algorithm, so this probe is where the workspace layer
/// works.
double paper_scale_fast_algo_frac();

/// The self-test of the output check: a matching oracle must pass and each
/// OracleFault must fail it. Returns the process status.
int self_test();

// --- helpers ----------------------------------------------------------------

/// Linearly interpolated percentile of `v` (p in [0, 100]); 0 when empty.
double percentile(std::vector<double> v, double p);

inline double median(const std::vector<double>& v) { return percentile(v, 50.0); }

}  // namespace perfbench
