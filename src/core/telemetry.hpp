// Per-step and per-iteration telemetry the benches read.
//
// Fig. 10 plots stepwise memory and live-tensor counts; Table 3 reads
// communication volumes; Fig. 12 reads per-CONV workspace assignments. All
// of that is captured here rather than printf'd, so tests can assert on it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "nn/conv.hpp"

namespace sn::graph {
class Layer;
}

namespace sn::core {

struct StepTelemetry {
  int step = -1;
  const graph::Layer* layer = nullptr;
  bool forward = true;
  int device_id = 0;           ///< cluster device the step ran on (dist/)
  int stage = 0;               ///< pipeline-stage row on the (stage, replica) grid
  int replica = 0;             ///< replica column on the (stage, replica) grid
  /// Column-schedule position (dist/ trainers; -1 off-pipeline): phase is a
  /// dist::SchedulePhase value (0 fill / 1 steady / 2 drain), microbatch the
  /// microbatch index the pass belonged to — so 1F1B's steady state is
  /// visible per step, not just in aggregate bubble time.
  int sched_phase = -1;
  int microbatch = -1;

  uint64_t mem_in_use = 0;     ///< device bytes live right after the kernel
  uint64_t live_tensors = 0;   ///< tensors resident on device at that point
  double clock = 0.0;          ///< virtual time when the step completed

  // Convolution workspace decision (0 / kDirect for non-conv steps).
  nn::ConvAlgo algo = nn::ConvAlgo::kDirect;
  uint64_t ws_assigned = 0;
  uint64_t ws_max_speed = 0;

  // Unified Tensor Pool / TransferEngine state right after the kernel
  // (§3.3.1): host-pool pressure plus cumulative transfer counters, so tests
  // can observe offloads/prefetches completing — including on the DMA thread
  // when the real async engine is active.
  uint64_t host_in_use = 0;          ///< host-pool bytes in use (offloaded tensors
                                     ///< only, in every backend)
  uint64_t host_peak = 0;            ///< host-pool peak bytes so far
  uint64_t d2h_submitted = 0;        ///< cumulative offload submissions
  uint64_t h2d_submitted = 0;        ///< cumulative prefetch/fetch submissions
  uint64_t d2h_completed = 0;        ///< cumulative retired offloads
  uint64_t h2d_completed = 0;        ///< cumulative retired prefetches/fetches
  uint64_t dma_copies = 0;           ///< cumulative memcpys done on DMA worker threads
  uint64_t transfers_in_flight = 0;  ///< pending transfers at step end (both directions)
  // Per-stream DMA-engine occupancy (cumulative virtual seconds each copy
  // engine spent busy): the raw material of the paper's overlap claim —
  // compute_time vs these says how much transfer the schedule hid.
  double d2h_busy_seconds = 0.0;
  double h2d_busy_seconds = 0.0;
  /// Cumulative link seconds this device's P2P sends occupied (pipeline
  /// activation streaming / collective hops; 0 off-cluster).
  double p2p_busy_seconds = 0.0;
  /// Cumulative compute-stream seconds; the delta between consecutive steps
  /// is the compute the overlap figure plots the busy-seconds series against.
  double compute_seconds = 0.0;
};

struct IterationStats {
  double loss = 0.0;
  /// Raw (unnormalized) NLL sum over this runtime's batch. Data-parallel
  /// replicas recombine these pairwise into a global loss that matches a
  /// single-device run bit for bit; means cannot be recombined exactly.
  double loss_sum = 0.0;
  double seconds = 0.0;         ///< virtual wall time of the iteration
  uint64_t peak_mem = 0;        ///< device allocator's high-water mark this iteration
  uint64_t bytes_d2h = 0;
  uint64_t bytes_h2d = 0;
  uint64_t extra_forwards = 0;  ///< recomputation replays
  uint64_t evictions = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t allocs = 0;
  double malloc_seconds = 0.0;  ///< compute time lost to allocator latency
  double stall_seconds = 0.0;   ///< compute time lost waiting on DMA
  uint64_t host_peak = 0;       ///< host-pool peak bytes so far (lifetime high
                                ///< water mark — a peak is monotone, unlike the
                                ///< per-iteration deltas above)
  // Peer-memory staging (zero unless a PeerStagingGroup is attached).
  uint64_t peer_stage_count = 0;  ///< evictions routed into a peer pool over P2P
  uint64_t peer_stage_bytes = 0;  ///< bytes those evictions kept off the D2H uplink
  uint64_t peer_fetch_count = 0;  ///< staged tensors fetched back over P2P
  uint64_t peer_spill_count = 0;  ///< staged tensors the hosting peer spilled to
                                  ///< the owner's host pool under its own pressure
  uint64_t dma_copies = 0;      ///< DMA-worker memcpys this iteration (async engine)
  // Per-stream copy-engine occupancy this iteration (virtual seconds the H2D
  // and D2H engines spent busy). With dual engines their sum can exceed the
  // mixed-traffic span — that surplus is exactly the offload/prefetch
  // overlap the multi-stream engine buys.
  double d2h_seconds = 0.0;
  double h2d_seconds = 0.0;

  // Collective telemetry, filled by dist::HybridParallelTrainer (zero for
  // single-device training).
  uint64_t p2p_bytes = 0;          ///< bytes this device sent over peer links
  double allreduce_seconds = 0.0;  ///< device time inside the gradient all-reduce

  /// All-reduce virtual time NOT hidden behind the pipeline drain: how far
  /// past the grid-wide drain end (the last cell's last backward) the last
  /// row's collective ran, hop sends charged after that backward included
  /// (aggregate stats only; dist::HybridParallelTrainer). Bucketed async
  /// issue shrinks it by overlapping the drain.
  double allreduce_exposed_seconds = 0.0;

  // Pipeline telemetry, filled by dist::HybridParallelTrainer (zero
  // elsewhere).
  double p2p_seconds = 0.0;     ///< link seconds occupied by this device's sends
  double bubble_seconds = 0.0;  ///< compute time stalled waiting on a pipeline
                                ///< neighbor (fill/drain bubbles)
  /// bubble_seconds split by schedule phase (fill / steady / drain), so the
  /// receiver-side waits are attributable: the fill and drain ramps vs the
  /// 1F1B steady state, which should be near bubble-free once warmed up.
  double bubble_fill_seconds = 0.0;
  double bubble_steady_seconds = 0.0;
  double bubble_drain_seconds = 0.0;
};

/// How a field of IterationStats combines when several stats fold into one:
/// a grid cell's forward/backward passes into the cell's iteration, and the
/// cells into the grid aggregate.
enum class StatRule {
  kSum,      ///< additive counters and busy seconds
  kMax,      ///< peaks and critical-path times
  kTrainer,  ///< left alone; the trainer sets it (global loss, collective timing)
};

/// One IterationStats field and its combine rule. Exactly one of the two
/// member pointers is set.
struct StatField {
  const char* name;
  StatRule rule;
  double IterationStats::*real = nullptr;
  uint64_t IterationStats::*count = nullptr;
};

constexpr StatField stat_field(const char* name, double IterationStats::*m, StatRule rule) {
  return {name, rule, m, nullptr};
}
constexpr StatField stat_field(const char* name, uint64_t IterationStats::*m, StatRule rule) {
  return {name, rule, nullptr, m};
}

/// The single declaration of every IterationStats field's combine rule.
/// Fields a grid cell derives from its machine's counters (seconds,
/// stall_seconds, p2p_*, bubble_*) are overwritten after the passes combine;
/// their rule here is the one the grid aggregate uses.
inline constexpr std::array kStatRules{
    stat_field("loss", &IterationStats::loss, StatRule::kTrainer),
    stat_field("loss_sum", &IterationStats::loss_sum, StatRule::kTrainer),
    stat_field("seconds", &IterationStats::seconds, StatRule::kMax),
    stat_field("peak_mem", &IterationStats::peak_mem, StatRule::kMax),
    stat_field("bytes_d2h", &IterationStats::bytes_d2h, StatRule::kSum),
    stat_field("bytes_h2d", &IterationStats::bytes_h2d, StatRule::kSum),
    stat_field("extra_forwards", &IterationStats::extra_forwards, StatRule::kSum),
    stat_field("evictions", &IterationStats::evictions, StatRule::kSum),
    stat_field("cache_hits", &IterationStats::cache_hits, StatRule::kSum),
    stat_field("cache_misses", &IterationStats::cache_misses, StatRule::kSum),
    stat_field("allocs", &IterationStats::allocs, StatRule::kSum),
    stat_field("malloc_seconds", &IterationStats::malloc_seconds, StatRule::kSum),
    stat_field("stall_seconds", &IterationStats::stall_seconds, StatRule::kMax),
    stat_field("host_peak", &IterationStats::host_peak, StatRule::kMax),
    stat_field("peer_stage_count", &IterationStats::peer_stage_count, StatRule::kSum),
    stat_field("peer_stage_bytes", &IterationStats::peer_stage_bytes, StatRule::kSum),
    stat_field("peer_fetch_count", &IterationStats::peer_fetch_count, StatRule::kSum),
    stat_field("peer_spill_count", &IterationStats::peer_spill_count, StatRule::kSum),
    stat_field("dma_copies", &IterationStats::dma_copies, StatRule::kSum),
    stat_field("d2h_seconds", &IterationStats::d2h_seconds, StatRule::kSum),
    stat_field("h2d_seconds", &IterationStats::h2d_seconds, StatRule::kSum),
    stat_field("p2p_bytes", &IterationStats::p2p_bytes, StatRule::kSum),
    stat_field("allreduce_seconds", &IterationStats::allreduce_seconds, StatRule::kTrainer),
    stat_field("allreduce_exposed_seconds", &IterationStats::allreduce_exposed_seconds,
               StatRule::kTrainer),
    stat_field("p2p_seconds", &IterationStats::p2p_seconds, StatRule::kSum),
    stat_field("bubble_seconds", &IterationStats::bubble_seconds, StatRule::kSum),
    stat_field("bubble_fill_seconds", &IterationStats::bubble_fill_seconds, StatRule::kSum),
    stat_field("bubble_steady_seconds", &IterationStats::bubble_steady_seconds, StatRule::kSum),
    stat_field("bubble_drain_seconds", &IterationStats::bubble_drain_seconds, StatRule::kSum),
};

// Every field is 8 bytes, so a field added without a rule breaks this.
static_assert(sizeof(IterationStats) == 8 * kStatRules.size(),
              "every IterationStats field needs an entry in kStatRules");

/// Fold `x` into `acc` by kStatRules.
inline void combine_stats(IterationStats& acc, const IterationStats& x) {
  for (const StatField& f : kStatRules) {
    if (f.rule == StatRule::kTrainer) continue;
    const bool sum = f.rule == StatRule::kSum;
    if (f.real) {
      acc.*f.real = sum ? acc.*f.real + x.*f.real : std::max(acc.*f.real, x.*f.real);
    } else {
      acc.*f.count = sum ? acc.*f.count + x.*f.count : std::max(acc.*f.count, x.*f.count);
    }
  }
}

}  // namespace sn::core
