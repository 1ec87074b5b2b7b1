#include "dist/communicator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_set>

#include "obs/trace.hpp"
#include "util/pairwise.hpp"

namespace sn::dist {

const char* allreduce_algo_name(AllreduceAlgo a) {
  switch (a) {
    case AllreduceAlgo::kRing: return "ring";
    case AllreduceAlgo::kHalvingDoubling: return "halving-doubling";
  }
  return "?";
}

namespace {

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

}  // namespace

Communicator::Communicator(sim::Cluster& cluster, std::vector<int> device_ids,
                           std::vector<core::TransferEngine*> engines)
    : cluster_(cluster), devices_(std::move(device_ids)), engines_(std::move(engines)) {
  if (devices_.empty()) throw std::invalid_argument("Communicator: empty device group");
  if (engines_.size() != devices_.size()) {
    throw std::invalid_argument("Communicator: need one TransferEngine per group device");
  }
  std::unordered_set<int> seen;
  for (size_t r = 0; r < devices_.size(); ++r) {
    const int d = devices_[r];
    if (d < 0 || d >= cluster_.size()) {
      throw std::invalid_argument("Communicator: device id out of cluster range");
    }
    if (!seen.insert(d).second) {
      throw std::invalid_argument("Communicator: duplicate device in group");
    }
    if (engines_[r]->device_id() != d) {
      throw std::invalid_argument("Communicator: engine/device mismatch at rank " +
                                  std::to_string(r));
    }
  }
  scratch_.resize(devices_.size());
}

double Communicator::combine_loss_sums(const std::vector<double>& sums) {
  return util::pairwise_sum<double>(sums.size(), [&](uint64_t i) { return sums[i]; });
}

AllreduceStats Communicator::allreduce_sum(const std::vector<float*>& bufs, uint64_t elems) {
  // Issue + immediate await: identical hop chain, identical per-rank
  // wait_event — the same virtual timeline the collective always had.
  AllreduceHandle h = all_reduce_async(bufs, elems);
  return await(h);
}

AllreduceHandle Communicator::all_reduce_async(const std::vector<float*>& bufs, uint64_t elems) {
  const int n = devices();
  assert(static_cast<int>(bufs.size()) == n && "one buffer (or null) per rank");
  const AllreduceAlgo algo = is_pow2(n) ? AllreduceAlgo::kHalvingDoubling : AllreduceAlgo::kRing;

  AllreduceHandle h;
  h.stats.device_seconds.assign(static_cast<size_t>(n), 0.0);
  h.stats.chunks = static_cast<uint64_t>(n);
  h.stats.algo = algo;
  if (n <= 1 || elems == 0) {
    h.done = true;
    return h;
  }

  // All-or-nothing backing: a mix of null and real buffers would silently
  // sum garbage into the backed replicas.
  const bool backed = bufs[0] != nullptr;
  for (const float* b : bufs) {
    if ((b != nullptr) != backed) {
      throw std::invalid_argument("allreduce_sum: buffers must be uniformly backed or null");
    }
  }

  // Leave from each rank's current time — or the previous async issue's
  // completion on this communicator, whichever is later (bucket chaining).
  if (chain_ready_.size() != static_cast<size_t>(n)) {
    chain_ready_.assign(static_cast<size_t>(n), 0.0);
  }
  h.start.resize(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    h.start[static_cast<size_t>(r)] =
        std::max(mach(r).now(), chain_ready_[static_cast<size_t>(r)]);
  }
  h.trace_seq = bucket_seq_++;
  // Hop sends stall the SENDING machine at issue (engines_[r]->wait inside
  // run_*): tag those stalls as collective time, not generic transfer time.
  for (int r = 0; r < n; ++r) {
    if (auto* rec = mach(r).trace()) {
      rec->set_stall_context(obs::StallSource::kCollective, "ar_hop", "", -1, 0);
    }
  }
  if (algo == AllreduceAlgo::kHalvingDoubling) {
    run_halving_doubling(bufs, elems, h);
  } else {
    run_ring(bufs, elems, h);
  }
  for (int r = 0; r < n; ++r) {
    if (auto* rec = mach(r).trace()) {
      rec->clear_stall_context();
      // One chain span per rank: submit -> hop chain complete, flow-linked to
      // the await that will consume it.
      rec->record_copy(obs::SpanKind::kCollective, obs::kStreamCollective,
                       h.start[static_cast<size_t>(r)], h.ready[static_cast<size_t>(r)],
                       h.stats.p2p_bytes,
                       obs::flow_id_collective(h.trace_seq, devices_[static_cast<size_t>(r)]),
                       "allreduce");
    }
  }
  chain_ready_ = h.ready;
  return h;
}

AllreduceStats Communicator::await(AllreduceHandle& h) {
  const int n = devices();
  if (!h.done) {
    for (int r = 0; r < n; ++r) {
      if (auto* rec = mach(r).trace()) {
        rec->set_stall_context(
            obs::StallSource::kCollective, "ar_await", "", -1,
            obs::flow_id_collective(h.trace_seq, devices_[static_cast<size_t>(r)]));
      }
      mach(r).wait_event(sim::Event{h.ready[static_cast<size_t>(r)]});
      if (auto* rec = mach(r).trace()) rec->clear_stall_context();
      // In-flight latency of the rank's hop chain (submit -> reduction
      // complete), NOT now() - start: when the collective was issued async,
      // the machine keeps computing through the window and now() would
      // charge that unrelated progress to the collective. For the
      // synchronous path the two are identical (the machine sits at the
      // submit point until wait_event tops it up to the chain).
      h.stats.device_seconds[static_cast<size_t>(r)] =
          h.ready[static_cast<size_t>(r)] - h.start[static_cast<size_t>(r)];
      h.stats.seconds = std::max(h.stats.seconds, h.stats.device_seconds[static_cast<size_t>(r)]);
    }
    h.done = true;
  }
  return h.stats;
}

void Communicator::run_ring(const std::vector<float*>& bufs, uint64_t elems,
                            AllreduceHandle& h) {
  const int n = devices();
  const bool backed = bufs[0] != nullptr;

  // Ring chunking: chunk c = [off[c], off[c] + len[c]).
  const uint64_t base = elems / n, rem = elems % n;
  std::vector<uint64_t> off(static_cast<size_t>(n)), len(static_cast<size_t>(n));
  uint64_t o = 0;
  for (int c = 0; c < n; ++c) {
    off[c] = o;
    len[c] = base + (static_cast<uint64_t>(c) < rem ? 1 : 0);
    o += len[c];
  }
  const uint64_t max_len = *std::max_element(len.begin(), len.end());
  if (backed) {
    for (auto& s : scratch_) s.resize(max_len);
  }

  // Per-rank virtual time through the collective. ready[r] advances on
  // receives (+ the local reduction add); the engines charge sends to the
  // machine as stalls, and await()'s wait_event tops every rank up to its
  // receive chain, so stall telemetry covers the whole collective.
  std::vector<double> ready(h.start);
  std::vector<uint64_t> sent0(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) sent0[r] = mach(r).counters().bytes_p2p;

  // --- reduce-scatter: N-1 hops; rank r ends up owning chunk (r+1) % N -----
  for (int s = 0; s < n - 1; ++s) {
    std::vector<sim::Event> ev(static_cast<size_t>(n));
    std::vector<uint64_t> tags(static_cast<size_t>(n));
    std::vector<int> chunk(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      const int c = ((r - s) % n + n) % n;
      const int dst = (r + 1) % n;
      chunk[r] = c;
      tags[r] = next_tag_++;
      const float* src = backed ? bufs[r] + off[c] : nullptr;
      float* rcv = backed ? scratch_[static_cast<size_t>(dst)].data() : nullptr;
      // Collective hops are waited immediately below: on the async backend
      // they run on the per-link P2P workers, off the PCIe streams that
      // carry offload traffic.
      ev[r] = engines_[r]->submit_p2p(tags[r], src, rcv, len[c] * sizeof(float),
                                      devices_[static_cast<size_t>(dst)], ready[r]);
    }
    for (int r = 0; r < n; ++r) engines_[r]->wait(core::TransferDir::kP2P, tags[r]);
    std::vector<double> next(ready);
    for (int r = 0; r < n; ++r) {
      const int dst = (r + 1) % n;
      const int c = chunk[r];
      if (backed) {
        float* acc = bufs[dst] + off[c];
        const float* in = scratch_[static_cast<size_t>(dst)].data();
        for (uint64_t i = 0; i < len[c]; ++i) acc[i] += in[i];
      }
      next[dst] = std::max(ready[dst], ev[r].done_at) + add_seconds(dst, len[c] * sizeof(float));
    }
    ready = next;
  }

  // --- all-gather: N-1 hops broadcasting the reduced chunks ----------------
  for (int s = 0; s < n - 1; ++s) {
    std::vector<sim::Event> ev(static_cast<size_t>(n));
    std::vector<uint64_t> tags(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      const int c = ((r + 1 - s) % n + n) % n;
      const int dst = (r + 1) % n;
      tags[r] = next_tag_++;
      const float* src = backed ? bufs[r] + off[c] : nullptr;
      float* rcv = backed ? bufs[dst] + off[c] : nullptr;
      ev[r] = engines_[r]->submit_p2p(tags[r], src, rcv, len[c] * sizeof(float),
                                      devices_[static_cast<size_t>(dst)], ready[r]);
    }
    for (int r = 0; r < n; ++r) engines_[r]->wait(core::TransferDir::kP2P, tags[r]);
    for (int r = 0; r < n; ++r) {
      const int dst = (r + 1) % n;
      ready[dst] = std::max(ready[dst], ev[r].done_at);
    }
  }

  for (int r = 0; r < n; ++r) {
    h.stats.p2p_bytes = std::max(h.stats.p2p_bytes, mach(r).counters().bytes_p2p - sent0[r]);
  }
  h.ready = std::move(ready);
}

void Communicator::run_halving_doubling(const std::vector<float*>& bufs, uint64_t elems,
                                        AllreduceHandle& h) {
  const int n = devices();
  const bool backed = bufs[0] != nullptr;
  assert(is_pow2(n) && n >= 2);

  int k = 0;
  while ((1 << k) < n) ++k;
  if (backed) {
    // Largest receive is the first halving: ceil(elems / 2).
    for (auto& s : scratch_) s.resize((elems + 1) / 2);
  }

  std::vector<double> ready(h.start);
  std::vector<uint64_t> sent0(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) sent0[r] = mach(r).counters().bytes_p2p;

  // Per-rank owned segment [lo, hi). Partners always hold identical segments
  // (the keep decision at step t depends only on rank bits < t), so the half
  // a rank sends is exactly the half its partner keeps.
  std::vector<uint64_t> lo(static_cast<size_t>(n), 0), hi(static_cast<size_t>(n), elems);

  // --- reduce-scatter: vector halving, distance doubling -------------------
  // Step t pairs rank r with r ^ 2^t, so the sum it materializes covers the
  // aligned rank group of size 2^(t+1) — the binary-counter pairwise tree in
  // ascending rank order, one two-operand (commutative) add per node.
  for (int t = 0; t < k; ++t) {
    const int bit = 1 << t;
    std::vector<sim::Event> ev(static_cast<size_t>(n));
    std::vector<uint64_t> tags(static_cast<size_t>(n), 0);
    std::vector<uint64_t> keep_lo(static_cast<size_t>(n)), keep_hi(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      const int p = r ^ bit;
      const uint64_t mid = lo[r] + (hi[r] - lo[r]) / 2;
      const bool keep_lower = (r & bit) == 0;
      keep_lo[r] = keep_lower ? lo[r] : mid;
      keep_hi[r] = keep_lower ? mid : hi[r];
      const uint64_t send_lo = keep_lower ? mid : lo[r];
      const uint64_t send_hi = keep_lower ? hi[r] : mid;
      if (send_hi == send_lo) continue;  // degenerate (elems < group): nothing to ship
      tags[r] = next_tag_++;
      const float* src = backed ? bufs[r] + send_lo : nullptr;
      float* rcv = backed ? scratch_[static_cast<size_t>(p)].data() : nullptr;
      ev[r] = engines_[r]->submit_p2p(tags[r], src, rcv, (send_hi - send_lo) * sizeof(float),
                                      devices_[static_cast<size_t>(p)], ready[r]);
    }
    for (int r = 0; r < n; ++r) {
      if (tags[r]) engines_[r]->wait(core::TransferDir::kP2P, tags[r]);
    }
    std::vector<double> next(ready);
    for (int r = 0; r < n; ++r) {
      if (!tags[r]) continue;
      const int p = r ^ bit;
      const uint64_t len = keep_hi[p] - keep_lo[p];  // == r's send length
      if (backed) {
        float* acc = bufs[p] + keep_lo[p];
        const float* in = scratch_[static_cast<size_t>(p)].data();
        for (uint64_t i = 0; i < len; ++i) acc[i] += in[i];
      }
      next[p] = std::max(ready[p], ev[r].done_at) + add_seconds(p, len * sizeof(float));
    }
    for (int r = 0; r < n; ++r) {
      lo[r] = keep_lo[r];
      hi[r] = keep_hi[r];
    }
    ready = next;
  }

  // --- all-gather: distance halving, vector doubling -----------------------
  // Unwinds the scatter: each rank ships its whole reduced segment to the
  // step's partner; partners end the step owning the (contiguous) union.
  for (int t = k - 1; t >= 0; --t) {
    const int bit = 1 << t;
    std::vector<sim::Event> ev(static_cast<size_t>(n));
    std::vector<uint64_t> tags(static_cast<size_t>(n), 0);
    for (int r = 0; r < n; ++r) {
      const int p = r ^ bit;
      const uint64_t len = hi[r] - lo[r];
      if (len == 0) continue;
      tags[r] = next_tag_++;
      const float* src = backed ? bufs[r] + lo[r] : nullptr;
      float* rcv = backed ? bufs[p] + lo[r] : nullptr;
      ev[r] = engines_[r]->submit_p2p(tags[r], src, rcv, len * sizeof(float),
                                      devices_[static_cast<size_t>(p)], ready[r]);
    }
    for (int r = 0; r < n; ++r) {
      if (tags[r]) engines_[r]->wait(core::TransferDir::kP2P, tags[r]);
    }
    std::vector<double> next(ready);
    for (int r = 0; r < n; ++r) {
      if (!tags[r]) continue;
      const int p = r ^ bit;
      next[p] = std::max(next[p], ev[r].done_at);
    }
    for (int r = 0; r < n; ++r) {
      const int p = r ^ bit;
      if (r < p) {
        const uint64_t nlo = std::min(lo[r], lo[p]);
        const uint64_t nhi = std::max(hi[r], hi[p]);
        lo[r] = lo[p] = nlo;
        hi[r] = hi[p] = nhi;
      }
    }
    ready = next;
  }

  for (int r = 0; r < n; ++r) {
    h.stats.p2p_bytes = std::max(h.stats.p2p_bytes, mach(r).counters().bytes_p2p - sent0[r]);
  }
  h.ready = std::move(ready);
}

}  // namespace sn::dist
