#include "core/transfer_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "obs/trace.hpp"
#include "sim/cluster.hpp"

namespace sn::core {

// ---------------------------------------------------------------------------
// TransferEngine (base = simulation / synchronous backend)

TransferEngine::TransferEngine(sim::Machine& machine, bool pinned, int device_id)
    : machine_(machine), pinned_(pinned), device_id_(device_id) {}

TransferEngine::~TransferEngine() = default;

sim::Event TransferEngine::track(TransferDir dir, int peer, uint64_t tag, sim::Event e,
                                 const void* src, void* dst, uint64_t bytes) {
  Ticket ticket = dispatch(dir, peer, src, dst, bytes);
  pending_[index(dir)][tag] = Pending{e, ticket};
  switch (dir) {
    case TransferDir::kD2H: ++stats_.submitted_d2h; break;
    case TransferDir::kH2D: ++stats_.submitted_h2d; break;
    case TransferDir::kP2P: ++stats_.submitted_p2p; break;
  }
  return e;
}

sim::Event TransferEngine::submit(TransferDir dir, uint64_t tag, const void* src, void* dst,
                                  uint64_t bytes) {
  assert_submit_owner();
  assert(dir != TransferDir::kP2P && "P2P transfers go through submit_p2p");
  assert(!pending(dir, tag) && "one transfer per (dir, tag) may be in flight");
  sim::Event e = machine_.async_copy(
      dir == TransferDir::kD2H ? sim::CopyDir::kD2H : sim::CopyDir::kH2D, bytes, pinned_);
  return track(dir, /*peer=*/-1, tag, e, src, dst, bytes);
}

sim::Event TransferEngine::submit_p2p(uint64_t tag, const void* src, void* dst, uint64_t bytes,
                                      int peer, double not_before, uint64_t flow,
                                      const char* span_name) {
  assert_submit_owner();
  assert(!pending(TransferDir::kP2P, tag) && "one transfer per (dir, tag) may be in flight");
  sim::Event e = machine_.p2p_copy(peer, bytes, not_before);
  if (auto* rec = machine_.trace()) {
    rec->record_copy(obs::SpanKind::kP2P, obs::kStreamP2PBase + peer,
                     e.done_at - machine_.p2p_seconds(bytes), e.done_at, bytes, flow, span_name);
  }
  return track(TransferDir::kP2P, peer, tag, e, src, dst, bytes);
}

TransferEngine::Ticket TransferEngine::dispatch(TransferDir /*dir*/, int /*peer*/,
                                                const void* src, void* dst, uint64_t bytes) {
  if (src && dst) {
    std::memcpy(dst, src, bytes);
    ++stats_.inline_copies;
  }
  return Ticket{};
}

void TransferEngine::ensure_landed(const Ticket& /*ticket*/) {}

void TransferEngine::fill_dma_stats(TransferStats& /*s*/) const {}

void TransferEngine::retire(TransferDir dir, uint64_t tag, bool discarded) {
  pending_[index(dir)].erase(tag);
  uint64_t* counter = nullptr;
  switch (dir) {
    case TransferDir::kD2H:
      counter = discarded ? &stats_.discarded_d2h : &stats_.completed_d2h;
      break;
    case TransferDir::kH2D:
      counter = discarded ? &stats_.discarded_h2d : &stats_.completed_h2d;
      break;
    case TransferDir::kP2P:
      counter = discarded ? &stats_.discarded_p2p : &stats_.completed_p2p;
      break;
  }
  ++*counter;
}

bool TransferEngine::try_retire(TransferDir dir, uint64_t tag) {
  assert_submit_owner();
  auto& map = pending_[index(dir)];
  auto it = map.find(tag);
  if (it == map.end()) return true;
  // Deterministic gate: the virtual event decides *when* a transfer counts as
  // complete; the wall-clock copy only has to have landed by then.
  if (!machine_.query_event(it->second.event)) return false;
  ensure_landed(it->second.ticket);
  retire(dir, tag, /*discarded=*/false);
  return true;
}

void TransferEngine::wait(TransferDir dir, uint64_t tag) {
  assert_submit_owner();
  auto& map = pending_[index(dir)];
  auto it = map.find(tag);
  if (it == map.end()) return;
  machine_.wait_event(it->second.event);
  ensure_landed(it->second.ticket);
  retire(dir, tag, /*discarded=*/false);
}

void TransferEngine::discard(TransferDir dir, uint64_t tag) {
  assert_submit_owner();
  auto& map = pending_[index(dir)];
  auto it = map.find(tag);
  if (it == map.end()) return;
  ensure_landed(it->second.ticket);
  retire(dir, tag, /*discarded=*/true);
}

void TransferEngine::await_landing(TransferDir dir, uint64_t tag) {
  assert_submit_owner();
  auto& map = pending_[index(dir)];
  auto it = map.find(tag);
  if (it == map.end()) return;
  ensure_landed(it->second.ticket);
}

void TransferEngine::retire_landed(TransferDir dir, uint64_t tag) {
  assert_submit_owner();
  auto& map = pending_[index(dir)];
  auto it = map.find(tag);
  if (it == map.end()) return;
  ensure_landed(it->second.ticket);
  retire(dir, tag, /*discarded=*/false);
}

double TransferEngine::eta_d2h(uint64_t bytes) const {
  assert_submit_owner();
  const sim::Stream& s = machine_.dma_streams().stream(sim::CopyDir::kD2H);
  double start = std::max(machine_.now(), s.busy_until());
  return start + machine_.copy_seconds(sim::CopyDir::kD2H, bytes, pinned_);
}

double TransferEngine::eta_p2p(uint64_t bytes, int peer) const {
  assert_submit_owner();
  sim::Cluster* cluster = machine_.cluster();
  assert(cluster && "eta_p2p requires cluster membership");
  double start = std::max(machine_.now(), cluster->link_busy_until(device_id_, peer));
  return start + machine_.p2p_seconds(bytes);
}

bool TransferEngine::pending(TransferDir dir, uint64_t tag) const {
  assert_submit_owner();
  return pending_[index(dir)].count(tag) != 0;
}

std::vector<uint64_t> TransferEngine::pending_tags(TransferDir dir) const {
  assert_submit_owner();
  std::vector<uint64_t> tags;
  tags.reserve(pending_[index(dir)].size());
  for (const auto& [tag, op] : pending_[index(dir)]) tags.push_back(tag);
  // unordered_map iteration order is unspecified; sort so drains are
  // deterministic across standard-library implementations.
  std::sort(tags.begin(), tags.end());
  return tags;
}

void TransferEngine::drain() {
  for (TransferDir dir : {TransferDir::kD2H, TransferDir::kH2D, TransferDir::kP2P}) {
    for (uint64_t tag : pending_tags(dir)) wait(dir, tag);
  }
}

TransferStats TransferEngine::stats() const {
  TransferStats s = stats_;
  fill_dma_stats(s);
  return s;
}

// ---------------------------------------------------------------------------
// DmaTransferEngine

DmaTransferEngine::DmaTransferEngine(sim::Machine& machine, bool pinned, int device_id)
    : TransferEngine(machine, pinned, device_id) {
  dir_workers_[kStreamD2H].stream = kStreamD2H;
  dir_workers_[kStreamH2D].stream = kStreamH2D;
  start_worker(dir_workers_[kStreamD2H]);
  start_worker(dir_workers_[kStreamH2D]);
}

DmaTransferEngine::~DmaTransferEngine() {
  stop_worker(dir_workers_[kStreamD2H]);
  stop_worker(dir_workers_[kStreamH2D]);
  for (auto& [peer, w] : p2p_workers_) stop_worker(*w);
}

void DmaTransferEngine::start_worker(Worker& w) {
  w.thread = std::thread([this, &w] { worker_loop(w); });
}

void DmaTransferEngine::stop_worker(Worker& w) {
  {
    std::lock_guard<std::mutex> lock(w.mu);
    w.stop = true;
  }
  w.cv.notify_all();
  if (w.thread.joinable()) w.thread.join();
}

DmaTransferEngine::Worker& DmaTransferEngine::worker_for(TransferDir dir, int peer) {
  switch (dir) {
    case TransferDir::kD2H: return dir_workers_[kStreamD2H];
    case TransferDir::kH2D: return dir_workers_[kStreamH2D];
    case TransferDir::kP2P: break;
  }
  assert(peer >= 0 && "P2P dispatch needs a peer device");
  auto it = p2p_workers_.find(peer);
  if (it == p2p_workers_.end()) {
    // One worker per directed link, created at first use.
    auto w = std::make_unique<Worker>();
    w->stream = 2 + peer;
    start_worker(*w);
    it = p2p_workers_.emplace(peer, std::move(w)).first;
  }
  return *it->second;
}

DmaTransferEngine::Worker* DmaTransferEngine::worker_by_stream(int stream) {
  if (stream == kStreamD2H || stream == kStreamH2D) return &dir_workers_[stream];
  auto it = p2p_workers_.find(stream - 2);
  return it == p2p_workers_.end() ? nullptr : it->second.get();
}

TransferEngine::Ticket DmaTransferEngine::dispatch(TransferDir dir, int peer, const void* src,
                                                   void* dst, uint64_t bytes) {
  Worker& w = worker_for(dir, peer);
  uint64_t seq = ++w.next_seq;  // compute-thread owned (assert_submit_owner in submit)
  {
    std::lock_guard<std::mutex> lock(w.mu);
    w.queue.push_back(Job{src, dst, bytes, seq});
  }
  w.cv.notify_one();
  return Ticket{w.stream, seq};
}

void DmaTransferEngine::ensure_landed(const Ticket& ticket) {
  Worker* w = worker_by_stream(ticket.stream);
  assert(w && "ticket for an unknown stream");
  std::unique_lock<std::mutex> lock(w->mu);
  w->done_cv.wait(lock, [&] { return ticket.seq <= w->landed; });
}

void DmaTransferEngine::mark_landed(Worker& w, uint64_t seq) {
  {
    std::lock_guard<std::mutex> lock(w.mu);
    assert(seq == w.landed + 1 && "a FIFO stream lands its jobs in submit order");
    w.landed = seq;
  }
  w.done_cv.notify_all();
}

void DmaTransferEngine::worker_loop(Worker& w) {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(w.mu);
      w.cv.wait(lock, [&] { return w.stop || !w.queue.empty(); });
      if (w.queue.empty()) return;  // stop set and queue drained
      job = w.queue.front();
      w.queue.pop_front();
    }
    run_job(w, job);
    mark_landed(w, job.seq);
  }
}

void DmaTransferEngine::run_job(Worker& w, const Job& job) {
#ifndef NDEBUG
  // Copies must never execute inline on the submit owner (the compute
  // thread) — that would silently re-serialize the engine.
  assert(std::this_thread::get_id() != owner_ &&
         "DMA jobs must not run on the compute thread");
#endif
  if (!job.src || !job.dst) return;  // unbacked buffers: accounting only
  w.dma_copies.fetch_add(1, std::memory_order_relaxed);
  obs::TraceRecorder* rec = machine_.trace();
  const double wbegin = rec ? obs::TraceRecorder::wall_now() : 0.0;
  std::memcpy(job.dst, job.src, job.bytes);
  if (rec) rec->record_wall_chunk(w.stream, job.seq, job.bytes, wbegin, obs::TraceRecorder::wall_now());
}

void DmaTransferEngine::fill_dma_stats(TransferStats& s) const {
  auto load = [](const std::atomic<uint64_t>& a) { return a.load(std::memory_order_relaxed); };
  s.dma_copies_d2h = load(dir_workers_[kStreamD2H].dma_copies);
  s.dma_copies_h2d = load(dir_workers_[kStreamH2D].dma_copies);
  s.dma_copies_p2p = 0;
  for (const auto& [peer, w] : p2p_workers_) s.dma_copies_p2p += load(w->dma_copies);
  s.dma_copies = s.dma_copies_d2h + s.dma_copies_h2d + s.dma_copies_p2p;
}

// ---------------------------------------------------------------------------

std::unique_ptr<TransferEngine> make_transfer_engine(sim::Machine& machine, bool pinned,
                                                     bool real, bool async_transfers,
                                                     int device_id) {
  if (real && async_transfers) {
    return std::make_unique<DmaTransferEngine>(machine, pinned, device_id);
  }
  return std::make_unique<TransferEngine>(machine, pinned, device_id);
}

}  // namespace sn::core
