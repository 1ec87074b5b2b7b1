// Structured event tracing for the virtual-time runtime (ISSUE 7 tentpole).
//
// A TraceRecorder is a per-machine bounded ring of typed spans. Every span
// carries BOTH clocks: virtual begin/end (the sim::Machine timeline every
// schedule decision runs on) and the wall-clock instant the span was
// recorded. Recording never advances virtual time and never changes a
// scheduling decision — with no recorder attached every hook is a single
// relaxed atomic load — so traced and untraced runs are bit-identical
// (pinned by test_trace).
//
// Span taxonomy (SpanKind):
//   kCompute    — one Runtime::exec_step kernel (layer name, fwd/bwd).
//   kH2D/kD2H   — one async DMA copy on the per-direction engine stream.
//   kP2P        — one peer link copy (pipeline activation/gradient, or a
//                 collective hop); carries a flow id when it is a schedule-
//                 level send so the consumer's stall span links back to it.
//   kCollective — one all-reduce bucket's hop chain on a device (submit →
//                 ready), flow-linked to the await that consumes it.
//   kStall      — compute-stream time lost in Machine::wait_event, tagged
//                 with what it waited on (StallSource) and, for flow-linked
//                 waits, the producing span's flow id. A zero-duration stall
//                 is still recorded when it consumes a flow: the arrow must
//                 land even when the data arrived early.
//   kScheduleOp — one schedule-replay op (trainer loop) plus zero-duration
//                 markers like "drain-end" that anchor the analyzer's
//                 exposed-collective accounting.
//   kAlloc      — native cudaMalloc/cudaFree charged to the compute stream.
//
// Flow ids link producer → consumer across devices (Chrome trace s/f
// arrows): flow_id_p2p ties a pipeline send to the receiver's stall,
// flow_id_collective ties a gradient bucket's hop chain to its await.
//
// Thread-safety: schedule-side recording is single-threaded per machine (the
// trainer thread), but DMA worker threads record wall-only per-job copy
// spans concurrently, so both rings are mutex-guarded and the Machine holds
// the recorder behind an atomic pointer (attach happens after engines spawn
// their workers).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sn::obs {

enum class SpanKind : uint8_t {
  kCompute,
  kH2D,
  kD2H,
  kP2P,
  kCollective,
  kStall,
  kScheduleOp,
  kAlloc,
};

/// What a kStall span was waiting on (attribution bucket).
enum class StallSource : uint8_t {
  kNone,
  kTransfer,      ///< offload/prefetch DMA (single-device overlap misses)
  kPipelineRecv,  ///< upstream/downstream activation or gradient (bubble)
  kCollective,    ///< all-reduce hop chain or await (exposed collective)
};

const char* span_kind_name(SpanKind k);
const char* stall_source_name(StallSource s);

/// Name for a dist::SchedulePhase passed as int (0/1/2 → "fill"/"steady"/
/// "drain"; anything else → ""). Lives here so core code can phase-tag spans
/// without depending on the dist layer.
const char* schedule_phase_name(int phase);

// Per-device stream (Chrome tid) layout.
constexpr int kStreamCompute = 0;
constexpr int kStreamD2H = 1;
constexpr int kStreamH2D = 2;
constexpr int kStreamCollective = 3;
constexpr int kStreamSchedule = 4;
constexpr int kStreamP2PBase = 8;  ///< + peer device id

/// Flow id for a schedule-level P2P send: trainer tags are small and unique
/// per (iteration, boundary, microbatch, direction), so (tag, sender) is
/// collision-free. Collective hop sends pass flow 0 — no arrows; their
/// linkage is the bucket flow below.
uint64_t flow_id_p2p(uint64_t tag, int src_device);

/// Flow id for a gradient bucket's all-reduce on one device: `seq` is the
/// communicator's monotone bucket counter, `device` disambiguates ranks
/// (communicator groups own disjoint device sets, so this is globally
/// unique). High bit keeps the namespace disjoint from flow_id_p2p.
uint64_t flow_id_collective(uint64_t seq, int device);

/// Flow id for one peer-staging hop (evict -> peer-store, or the fetch-back):
/// `seq` is the PeerStagingGroup's monotone transfer counter, `device` the
/// sending device. Bit 61 keeps the namespace disjoint from flow_id_p2p
/// (schedule tags stay far below 2^53) and flow_id_collective (bit 62), so
/// trace_report can attribute recovered uplink time to staging arrows.
uint64_t flow_id_peer_stage(uint64_t seq, int device);

struct TraceSpan {
  SpanKind kind = SpanKind::kCompute;
  StallSource stall = StallSource::kNone;
  std::string name;
  std::string phase;       ///< schedule phase ("fill"/"steady"/"drain"), if any
  double vbegin = 0.0;     ///< virtual seconds
  double vend = 0.0;
  double wall = 0.0;       ///< wall seconds at record time (export-optional)
  int device = -1;
  int stream = kStreamCompute;
  int stage = -1;
  int replica = -1;
  int microbatch = -1;
  uint64_t flow_out = 0;   ///< this span produces flow arrows start here
  uint64_t flow_in = 0;    ///< this span consumes flow arrows end here
  uint64_t bytes = 0;
};

/// Wall-clock-only span for one DMA job's memcpy on its worker thread. These
/// live in a separate ring: worker interleaving is nondeterministic, so they
/// are excluded from the deterministic (virtual-clock) export and sorted by
/// (stream, seq) when exported at all.
struct WallChunkSpan {
  int stream = 0;
  uint64_t seq = 0;
  uint64_t bytes = 0;
  double wbegin = 0.0;
  double wend = 0.0;
};

class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 18;

  explicit TraceRecorder(size_t capacity = kDefaultCapacity);

  void set_ids(int device, int stage, int replica);
  int device() const { return device_; }

  // --- schedule-thread context (labels subsequent machine-level spans) ----
  void set_op_context(const std::string& name, const std::string& phase, int microbatch);
  void set_stall_context(StallSource src, const std::string& name, const std::string& phase,
                         int microbatch, uint64_t flow_in);
  void clear_stall_context();

  // --- recording hooks ----------------------------------------------------
  void record_compute(double vbegin, double vend);
  void record_alloc(const char* what, double vbegin, double vend, uint64_t bytes);
  void record_copy(SpanKind kind, int stream, double vbegin, double vend, uint64_t bytes,
                   uint64_t flow_out, const char* name);
  /// One Machine::wait_event. Records a kStall span when time passed OR when
  /// the pending stall context carries a flow to consume; the flow is
  /// one-shot (consumed by the first wait after set_stall_context).
  void record_wait(double vbegin, double vend);
  void record_schedule_op(const std::string& name, double vbegin, double vend,
                          const std::string& phase, int microbatch);
  /// Zero-duration kScheduleOp marker ("drain-end") the analyzer anchors on.
  void record_marker(const char* name, double vtime);
  /// DMA-worker-thread hook, one call per job: wall clock only, separate ring.
  void record_wall_chunk(int stream, uint64_t seq, uint64_t bytes, double wbegin, double wend);

  void clear();
  std::vector<TraceSpan> spans() const;            ///< ring in record order
  std::vector<WallChunkSpan> wall_chunks() const;  ///< sorted (stream, seq)
  /// Spans lost to the capacity cap: schedule spans the ring evicted plus
  /// wall spans the full wall ring refused.
  size_t dropped() const;

  /// Wall seconds since process-local epoch (steady clock).
  static double wall_now();

 private:
  void push(TraceSpan&& s);  // caller holds mu_

  size_t capacity_;
  int device_ = -1;
  int stage_ = -1;
  int replica_ = -1;

  mutable std::mutex mu_;
  std::vector<TraceSpan> ring_;
  size_t head_ = 0;      ///< next write slot once ring_ is full
  size_t dropped_ = 0;

  // op context (kCompute / kAlloc labels)
  std::string op_name_;
  std::string op_phase_;
  int op_microbatch_ = -1;
  // stall context (kStall labels)
  StallSource stall_src_ = StallSource::kNone;
  std::string stall_name_;
  std::string stall_phase_;
  int stall_microbatch_ = -1;
  uint64_t stall_flow_in_ = 0;

  mutable std::mutex wall_mu_;
  std::vector<WallChunkSpan> wall_ring_;
  size_t wall_dropped_ = 0;
};

/// A trace over a device group: owns one recorder per device id. Trainers
/// attach it (machine.set_trace(&session.recorder_for(d))); exporters and
/// the analyzer walk all recorders.
class TraceSession {
 public:
  explicit TraceSession(size_t capacity_per_device = TraceRecorder::kDefaultCapacity)
      : capacity_(capacity_per_device) {}

  TraceRecorder& recorder_for(int device);
  /// Device ids with a recorder, ascending.
  std::vector<int> devices() const;
  const TraceRecorder* recorder(int device) const;
  void clear();

 private:
  size_t capacity_;
  std::map<int, std::unique_ptr<TraceRecorder>> recorders_;
};

}  // namespace sn::obs
