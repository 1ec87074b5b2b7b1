// dist::Communicator — collective operations over the simulated P2P fabric.
//
// A communicator spans a GROUP: any subset of a cluster's devices (rank i of
// the group lives on device_ids[i]). dist::HybridParallelTrainer builds one
// communicator per pipeline stage over that stage's replica devices, so
// collectives within different stages ride disjoint links.
//
// Two all-reduce algorithms implement the same in-place sum contract:
//
//   * Ring — the classic bandwidth-optimal chunked reduce-scatter (N-1 hops;
//     after it rank r owns the fully reduced chunk (r+1) mod N) followed by a
//     ring all-gather (N-1 hops broadcasting the reduced chunks). Works for
//     any group size; accumulates chunks in rotated rank order, which is
//     deterministic but can differ from the single-device pairwise tree in
//     final-ulp rounding for N >= 4.
//   * Recursive halving-doubling — for power-of-two groups. Reduce-scatter
//     by vector halving with distance DOUBLING (partner = rank ^ 2^t), so
//     step t combines complete sums over aligned rank groups of size 2^t:
//     exactly the binary-counter pairwise tree of util/pairwise.hpp, in
//     ascending rank order. Every combine is a single two-operand IEEE add
//     (commutative), so the result is BIT-IDENTICAL to combining the rank
//     buffers pairwise on one device — which is what extends the "scheduling
//     never changes training results" invariant to 4+-replica training.
//     Same per-rank volume as the ring: 2 * (N-1)/N of the buffer.
//
// The group size picks the algorithm: halving-doubling for power-of-two
// groups, the ring otherwise. Every hop is a TransferEngine::submit_p2p on the SENDING
// rank's engine, so collectives share the tag-based submit/poll/wait layer
// (and its telemetry) with offload/prefetch traffic, and virtual time falls
// out of the link streams: step k+1 chains on step k's arrival through the
// explicit not_before dependency. On the async backend each directed link
// additionally gets its own DMA worker, so neighbor hops drain physically in
// parallel and never queue behind offload/prefetch copies.
#pragma once

#include <cstdint>
#include <vector>

#include "core/transfer_engine.hpp"
#include "sim/cluster.hpp"

namespace sn::dist {

enum class AllreduceAlgo {
  kRing,             ///< chunked ring (groups that are not a power of two)
  kHalvingDoubling,  ///< pairwise-tree-exact (power-of-two groups)
};

const char* allreduce_algo_name(AllreduceAlgo a);

struct AllreduceStats {
  double seconds = 0.0;                ///< slowest rank's time in the collective
  std::vector<double> device_seconds;  ///< per-rank time in the collective
  uint64_t p2p_bytes = 0;              ///< bytes sent per rank (both algos: symmetric)
  uint64_t chunks = 0;                 ///< ring chunks / halving-doubling segments (= ranks)
  AllreduceAlgo algo = AllreduceAlgo::kRing;  ///< algorithm actually run
};

/// An issued-but-not-awaited all-reduce. The summed bytes are already final
/// when all_reduce_async returns (hop memcpys and reduction adds execute at
/// issue, exactly as in the synchronous call); what is deferred is the
/// VIRTUAL completion: no rank's compute stream waits until await(). Ranks
/// therefore keep draining pipeline work while the collective's link/add
/// chain plays out in virtual time — the DDP-style bucket overlap.
struct AllreduceHandle {
  AllreduceStats stats;        ///< bytes/chunks/algo filled at issue;
                               ///< seconds filled at await
  std::vector<double> start;   ///< per-rank virtual time the collective left from
  std::vector<double> ready;   ///< per-rank virtual completion time
  bool done = false;           ///< degenerate (1 rank / 0 elems) or awaited
  uint64_t trace_seq = 0;      ///< bucket sequence (obs flow linkage)
};

class Communicator {
 public:
  /// Rank i lives on cluster device `device_ids[i]` and sends
  /// through `engines[i]` (which must belong to that device). Device ids
  /// must be distinct; they need not be contiguous or sorted — a pipeline
  /// stage's replica group is whatever the grid says it is.
  Communicator(sim::Cluster& cluster, std::vector<int> device_ids,
               std::vector<core::TransferEngine*> engines);

  /// In-place sum all-reduce: after the call every bufs[r][0..elems) holds
  /// the elementwise sum over ranks. bufs[r] may be null when running
  /// unbacked (simulation) — virtual time and telemetry advance, no bytes
  /// move. The group size picks the algorithm (see file comment).
  AllreduceStats allreduce_sum(const std::vector<float*>& bufs, uint64_t elems);

  /// Issue an all-reduce without blocking any rank's compute stream: the
  /// bytes are summed eagerly (bufs hold the result on return) but virtual
  /// completion is deferred to await(). Consecutive async calls on the same
  /// communicator chain: each starts no earlier than the previous one's
  /// per-rank ready time, so per-bucket collectives serialize on the group's
  /// links exactly as the one fused collective would.
  AllreduceHandle all_reduce_async(const std::vector<float*>& bufs, uint64_t elems);

  /// Block every rank's compute stream until `h` completes; fills and
  /// returns the per-rank timing stats. Idempotent per handle.
  AllreduceStats await(AllreduceHandle& h);

  /// Pairwise (rank-ordered) combination of per-replica loss sums; matches
  /// the single-device pairwise loss tree bit for bit for power-of-two
  /// group sizes. Pure host arithmetic — the driver reads losses, devices
  /// do not.
  static double combine_loss_sums(const std::vector<double>& sums);

  int devices() const { return static_cast<int>(devices_.size()); }
  /// Cluster device id of group rank `rank`.
  int device_id(int rank) const { return devices_[static_cast<size_t>(rank)]; }

 private:
  /// Run the hop/add chain of one collective from the per-rank times in
  /// h.start, leaving per-rank completion in h.ready. Physical bytes move at
  /// call time; no machine's compute stream is touched (that is await()'s
  /// job — or the sync wrapper's, immediately).
  void run_ring(const std::vector<float*>& bufs, uint64_t elems, AllreduceHandle& h);
  void run_halving_doubling(const std::vector<float*>& bufs, uint64_t elems,
                            AllreduceHandle& h);

  sim::Machine& mach(int rank) { return cluster_.machine(devices_[static_cast<size_t>(rank)]); }
  /// Elementwise-sum time charged to a rank (read two operands, write one).
  double add_seconds(int rank, uint64_t bytes) {
    return 3.0 * static_cast<double>(bytes) / mach(rank).spec().mem_bw;
  }

  sim::Cluster& cluster_;
  std::vector<int> devices_;  ///< rank -> cluster device id
  std::vector<core::TransferEngine*> engines_;
  std::vector<std::vector<float>> scratch_;  ///< per-rank receive staging
  /// Per-rank ready time of the last async issue: back-to-back buckets chain
  /// on the group's links instead of teleporting to the machines' now().
  std::vector<double> chain_ready_;
  /// Collective hops share each rank's TransferEngine with the trainer's
  /// activation/gradient streams, and a tag collision silently replaces the
  /// older transfer's ticket in the engine's pending map — its landing is
  /// then never awaited. Trainers own the low tag space, so collectives
  /// allocate from a disjoint high range (async buckets overlap the drain
  /// and DO coexist with in-flight P2P streams).
  uint64_t next_tag_ = uint64_t{1} << 48;
  /// Monotone bucket counter: keys the obs collective flow ids (chain span →
  /// await stall) of each issued all-reduce.
  uint64_t bucket_seq_ = 0;
};

}  // namespace sn::dist
