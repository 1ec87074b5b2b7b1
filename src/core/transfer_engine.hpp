// TransferEngine: the uniform submit / poll / wait layer every D2H offload,
// H2D prefetch and P2P collective hop flows through (paper §3.3.1).
//
// The engine separates *when a transfer is decided* (the Unified Tensor
// Pool's policy) from *how its bytes move*. Two backends implement the same
// tag-based API:
//
//   * TransferEngine (base)   — the simulation / synchronous backend. Virtual
//     time advances on the sim::Machine's per-direction DMA streams (and the
//     cluster's per-directed-link streams for P2P); when buffers are backed
//     the memcpy runs inline on the compute thread at submit (exactly the
//     seed's behaviour, and the reference the async engine must match
//     bit-for-bit).
//   * DmaTransferEngine       — a StreamSet of dedicated DMA workers: one
//     thread per direction (H2D, D2H) plus one per directed P2P link, each
//     draining its own FIFO queue, so offload and prefetch traffic overlap
//     each other as well as compute. A worker moves each job with one memcpy
//     straight between the device buffer and its pinned host (or peer)
//     buffer: the pool's pinned memory is the DMA target itself (paper
//     §3.3). Completion *decisions* are still gated on the virtual event,
//     which keeps the schedule deterministic and identical to the
//     synchronous backend; the wall-clock memcpy merely has to have landed
//     by the time the decision point is reached (ensure_landed()).
//
// Transfers are tagged by tensor uid; at most one transfer per (direction,
// tag) is in flight — the same invariant the seed's pending_d2h_/pending_h2d_
// maps enforced, now owned by the engine instead of the Runtime.
#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/machine.hpp"

namespace sn::core {

enum class TransferDir { kD2H, kH2D, kP2P };

/// Counters the pool snapshots into StepTelemetry (and tests assert on).
struct TransferStats {
  uint64_t submitted_d2h = 0;
  uint64_t submitted_h2d = 0;
  uint64_t submitted_p2p = 0;  ///< peer-to-peer sends (dist collectives)
  uint64_t completed_d2h = 0;  ///< retired with a valid result (waited/polled)
  uint64_t completed_h2d = 0;
  uint64_t completed_p2p = 0;
  uint64_t discarded_d2h = 0;  ///< retired with the result thrown away
  uint64_t discarded_h2d = 0;
  uint64_t discarded_p2p = 0;
  uint64_t inline_copies = 0;  ///< memcpys executed on the compute thread
  uint64_t dma_copies = 0;     ///< memcpys executed on DMA worker threads (total)
  // Per-stream breakdown of dma_copies (multi-stream backend; all P2P link
  // workers aggregate into dma_copies_p2p).
  uint64_t dma_copies_d2h = 0;
  uint64_t dma_copies_h2d = 0;
  uint64_t dma_copies_p2p = 0;
};

/// Base class doubles as the simulation / synchronous backend.
///
/// Thread-ownership invariants (per-stream single-writer):
///   * Submit-side bookkeeping — the pending_[] maps, stats_ and every
///     stream's sequence counter — is owned by the thread that constructed
///     the engine (the compute thread). submit / retire / pending queries
///     must all come from it; assert_submit_owner() makes a violation loud
///     in debug builds.
///   * Execution-side state is owned per stream: each DMA worker thread is
///     the only consumer of its own queue and the only thread copying its
///     jobs. The workers never touch pending_[] or another stream's state.
class TransferEngine {
 public:
  /// `pinned` is the host-memory property (pinned vs pageable) charged to the
  /// sim DMA streams; `device_id` identifies the owning device in
  /// multi-device setups.
  TransferEngine(sim::Machine& machine, bool pinned, int device_id = 0);
  virtual ~TransferEngine();

  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  int device_id() const { return device_id_; }

  /// Enqueue a copy of `bytes` for tensor `tag`. `src`/`dst` may be null when
  /// running unbacked (simulation): virtual time still advances, no bytes
  /// move. Exactly one transfer per (dir, tag) may be outstanding.
  /// Returns the sim completion event (tests inspect it; clients use the
  /// tag-based calls below). P2P submissions go through submit_p2p (they
  /// need a peer and an explicit data dependency).
  sim::Event submit(TransferDir dir, uint64_t tag, const void* src, void* dst, uint64_t bytes);

  /// Enqueue a peer-to-peer copy to device `peer` over the cluster link,
  /// starting no earlier than `not_before` (virtual time; collectives chain
  /// hop k+1 on hop k's arrival this way). Tracked under TransferDir::kP2P;
  /// the async backend runs it on the per-link worker for `peer`, so hops on
  /// distinct links drain concurrently. Requires the machine to be a
  /// sim::Cluster member. `flow` tags the recorded span as a flow producer
  /// (obs::flow_id_p2p / obs::flow_id_peer_stage) so the consumer's stall
  /// span links back to it; 0 records no arrow (collective hops). `span_name`
  /// labels the recorded kP2P span ("p2p" for schedule sends; peer staging
  /// passes "peer_stage" / "peer_fetch" so traces attribute the variant).
  sim::Event submit_p2p(uint64_t tag, const void* src, void* dst, uint64_t bytes, int peer,
                        double not_before, uint64_t flow = 0, const char* span_name = "p2p");

  /// Retire the transfer if it has completed in virtual time (blocking, if
  /// needed, until the bytes have physically landed). Returns true when no
  /// transfer for (dir, tag) remains in flight — including "never submitted".
  bool try_retire(TransferDir dir, uint64_t tag);

  /// Stall the compute stream until (dir, tag) completes, then retire it.
  /// No-op when nothing is pending.
  void wait(TransferDir dir, uint64_t tag);

  /// Retire (dir, tag) without charging a virtual-time stall — used when the
  /// tensor is being freed and the result no longer matters. Still blocks
  /// until the owning DMA worker is done touching the buffers (use-after-free
  /// safety); the seed erased the event with no wait, which was only safe
  /// because its copies were inline.
  void discard(TransferDir dir, uint64_t tag);

  /// Block (wall clock only) until the bytes of (dir, tag) have physically
  /// landed, WITHOUT stalling the compute stream and WITHOUT retiring the
  /// transfer. Pipeline receivers use this before reading a P2P landing
  /// site: the RECEIVER's machine gates on the virtual event, so the
  /// sender's clock — which try_retire/wait consult — must not be touched.
  /// No-op when nothing is pending for the tag.
  void await_landing(TransferDir dir, uint64_t tag);

  /// Retire (dir, tag) as COMPLETED once its bytes have landed, without
  /// touching the submitting machine's clock. For transfers whose completion
  /// was already gated on ANOTHER machine's timeline (a peer-staging
  /// fetch-back: the owner waited the virtual event on its own machine), so
  /// neither wait() — which would stall the sender — nor discard() — which
  /// miscounts a consumed result as thrown away — fits. No-op when nothing
  /// is pending.
  void retire_landed(TransferDir dir, uint64_t tag);

  /// Deterministic ETA of a hypothetical D2H copy submitted now: the stream's
  /// backlog head plus the copy's own duration. Fed (with eta_p2p) into the
  /// peer-staging route decision; reads only compute-thread bookkeeping, so
  /// the decision is bit-reproducible.
  double eta_d2h(uint64_t bytes) const;

  /// Deterministic ETA of a hypothetical P2P copy to `peer` submitted now:
  /// the directed link's backlog head plus the transfer duration. Requires
  /// cluster membership.
  double eta_p2p(uint64_t bytes, int peer) const;

  bool pending(TransferDir dir, uint64_t tag) const;
  size_t pending_count(TransferDir dir) const {
    assert_submit_owner();
    return pending_[index(dir)].size();
  }

  /// Snapshot of in-flight tags (stable iteration while retiring).
  std::vector<uint64_t> pending_tags(TransferDir dir) const;

  /// Wait out every in-flight transfer on every stream.
  void drain();

  TransferStats stats() const;

  /// True when copies run on dedicated DMA worker threads.
  virtual bool async_backend() const { return false; }

 protected:
  /// Physical-copy ticket: which stream worker took the job, and the job's
  /// per-stream sequence number. The base backend copies inline at submit,
  /// so its tickets are inert.
  struct Ticket {
    int stream = 0;
    uint64_t seq = 0;
  };

  struct Pending {
    sim::Event event;
    Ticket ticket;
  };

  static size_t index(TransferDir dir) {
    switch (dir) {
      case TransferDir::kD2H: return 0;
      case TransferDir::kH2D: return 1;
      case TransferDir::kP2P: return 2;
    }
    return 0;
  }

  /// pending_[] / stats_ / stream sequence counters are single-threaded by
  /// contract (see class comment); this makes a violation loud in debug
  /// builds instead of a silent race.
  void assert_submit_owner() const {
#ifndef NDEBUG
    assert(std::this_thread::get_id() == owner_ &&
           "TransferEngine submit-side bookkeeping must stay on the constructing "
           "(compute) thread");
#endif
  }

  /// Move the bytes (or hand them to the owning stream's worker). `peer` is
  /// meaningful for kP2P only. Base: inline memcpy on the compute thread.
  virtual Ticket dispatch(TransferDir dir, int peer, const void* src, void* dst, uint64_t bytes);

  /// Block until the copy behind `ticket` has physically landed on its
  /// stream. Base backend copies inline, so everything submitted has landed.
  virtual void ensure_landed(const Ticket& ticket);

  /// Per-stream DMA-thread counters (zeros for the base backend).
  virtual void fill_dma_stats(TransferStats& s) const;

  sim::Machine& machine_;
  bool pinned_;
  int device_id_ = 0;
  std::unordered_map<uint64_t, Pending> pending_[3];  ///< [dir] tag -> op
  TransferStats stats_;
#ifndef NDEBUG
  std::thread::id owner_ = std::this_thread::get_id();
#endif

 private:
  sim::Event track(TransferDir dir, int peer, uint64_t tag, sim::Event e, const void* src,
                   void* dst, uint64_t bytes);
  void retire(TransferDir dir, uint64_t tag, bool discarded);
};

/// Asynchronous backend: a StreamSet of DMA workers — one per direction plus
/// one per P2P peer — each with a FIFO queue, each copying a job with one
/// memcpy on its own thread.
class DmaTransferEngine final : public TransferEngine {
 public:
  /// Starts the two PCIe-direction workers; P2P link workers start lazily at
  /// a link's first submit.
  DmaTransferEngine(sim::Machine& machine, bool pinned, int device_id = 0);
  ~DmaTransferEngine() override;

  bool async_backend() const override { return true; }

 protected:
  Ticket dispatch(TransferDir dir, int peer, const void* src, void* dst,
                  uint64_t bytes) override;
  void ensure_landed(const Ticket& ticket) override;
  void fill_dma_stats(TransferStats& s) const override;

 private:
  struct Job {
    const void* src = nullptr;
    void* dst = nullptr;
    uint64_t bytes = 0;
    uint64_t seq = 0;
  };

  /// One DMA stream: worker thread + queue. Single-writer ownership: the
  /// compute thread pushes jobs and advances next_seq; the worker thread is
  /// the only consumer.
  struct Worker {
    int stream = 0;  ///< ticket stream id (kStreamD2H/kStreamH2D/2+peer)

    // --- submit side (compute thread only) --------------------------------
    uint64_t next_seq = 0;

    // --- queue state (guarded by mu) --------------------------------------
    std::mutex mu;
    std::condition_variable cv;       ///< wakes the worker: job / stop
    std::condition_variable done_cv;  ///< wakes ensure_landed: a job landed
    std::deque<Job> queue;            ///< FIFO: jobs land in submit order
    bool stop = false;
    uint64_t landed = 0;  ///< every seq <= landed has landed

    std::atomic<uint64_t> dma_copies{0};

    std::thread thread;  ///< pops and copies jobs
  };

  static constexpr int kStreamD2H = 0;
  static constexpr int kStreamH2D = 1;

  Worker& worker_for(TransferDir dir, int peer);
  Worker* worker_by_stream(int stream);
  void start_worker(Worker& w);
  void stop_worker(Worker& w);
  void worker_loop(Worker& w);
  void run_job(Worker& w, const Job& job);
  void mark_landed(Worker& w, uint64_t seq);

  Worker dir_workers_[2];  ///< [kStreamD2H, kStreamH2D]
  /// Per-peer P2P link workers, created lazily at first submit (ordered map:
  /// iteration order must be deterministic for shutdown and stats).
  std::map<int, std::unique_ptr<Worker>> p2p_workers_;
};

/// Pick the backend for a runtime configuration: real numerics + async
/// transfers get the DMA worker set; everything else uses the inline/sim
/// backend.
std::unique_ptr<TransferEngine> make_transfer_engine(sim::Machine& machine, bool pinned,
                                                     bool real, bool async_transfers,
                                                     int device_id = 0);

}  // namespace sn::core
