#include "dist/hybrid_parallel.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/pairwise.hpp"

namespace sn::dist {

namespace {

tensor::Shape sample_shape_of(const graph::Net& net) {
  tensor::Shape s = net.input_layer()->out_shape();
  s.n = 1;
  return s;
}

/// Class count for the synthetic dataset; stage nets without a loss layer
/// (every pipeline stage but the last) fall back to a placeholder.
int classes_of(const graph::Net& net) {
  const graph::Layer* loss = net.loss_layer();
  return loss ? static_cast<int>(loss->out_shape().c) : 2;
}

graph::Layer* layer_by_name(graph::Net& net, const std::string& name) {
  for (const auto& l : net.layers()) {
    if (l->name() == name) return l.get();
  }
  throw std::logic_error("dist: stage net lost layer " + name);
}

}  // namespace

HybridParallelTrainer::HybridParallelTrainer(const NetFactory& factory,
                                             core::RuntimeOptions base,
                                             HybridParallelConfig cfg)
    : cfg_([&] {
        if (cfg.stages < 1) throw std::invalid_argument("hybrid: stages >= 1");
        if (cfg.replicas < 1) throw std::invalid_argument("hybrid: replicas >= 1");
        if (cfg.microbatches < 1) throw std::invalid_argument("hybrid: microbatches >= 1");
        if (cfg.global_batch <= 0 || cfg.global_batch % cfg.replicas != 0) {
          throw std::invalid_argument(
              "hybrid: global_batch must divide evenly across replicas");
        }
        if ((cfg.global_batch / cfg.replicas) % cfg.microbatches != 0) {
          throw std::invalid_argument(
              "hybrid: the replica shard must divide evenly into microbatches");
        }
        if (!cfg.boundaries.empty() &&
            static_cast<int>(cfg.boundaries.size()) + 1 != cfg.stages) {
          throw std::invalid_argument("hybrid: need stages-1 explicit boundaries");
        }
        cfg.cluster.devices = cfg.stages * cfg.replicas;
        return cfg;
      }()),
      real_(base.real),
      shard_(cfg_.global_batch / cfg_.replicas),
      microbatch_(shard_ / cfg_.microbatches),
      full_([&] {
        auto net = factory(microbatch_);
        if (!net->finalized()) net->finalize();
        return net;
      }()),
      plan_([&] {
        // Memory-aware partition: every stage must fit the per-device pool
        // even at the full-offload floor. The balance charges the forwards
        // the schedule re-materializes, which depend on M.
        // Profile-guided balance: a loaded CostProfile's observed medians
        // replace the roofline per layer (null = analytic, legacy cuts).
        graph::LayerCostFn observed;
        if (const obs::CostProfile* prof = cfg_.cost_profile) {
          observed = [prof](const std::string& name, double* fwd, double* bwd) {
            return prof->layer_seconds(name, fwd, bwd);
          };
        }
        graph::NetPartitioner part(*full_, cfg_.cluster.device, cfg_.cluster.link,
                                   base.device_capacity, std::move(observed));
        return cfg_.boundaries.empty() ? part.partition(cfg_.stages, cfg_.microbatches)
                                       : part.partition_at(cfg_.boundaries);
      }()),
      cluster_(cfg_.cluster),
      grid_(cluster_, cfg_.stages, cfg_.replicas),
      dataset_(sample_shape_of(*full_), classes_of(*full_), cfg_.train.data_seed) {
  const int S = cfg_.stages, R = cfg_.replicas;
  const size_t cells = static_cast<size_t>(S) * static_cast<size_t>(R);
  base.spec = cfg_.cluster.device;
  base.cluster = &cluster_;
  base.loss_batch = cfg_.global_batch;
  for (int s = 0; s < S; ++s) {
    for (int r = 0; r < R; ++r) {
      // Each cell gets its own stage-net clone: replicas share topology and
      // (via per-tensor-name seeded init) starting weights, never tensors.
      stage_nets_.push_back(graph::extract_stage(*full_, plan_, s));
      base.device_id = grid_.device(s, r);
      base.stage = s;
      base.replica = r;
      runtimes_.push_back(std::make_unique<core::Runtime>(*stage_nets_.back(), base));
      runtimes_.back()->initialize();
    }
  }

  // Peer-memory staging: enroll every cell's pool after parameters are
  // placed, so donation headroom reflects the steady-state footprint.
  if (cfg_.peer_staging) {
    for (auto& rt : runtimes_) {
      staging_group_.add_member(rt->tensor_pool(), cfg_.peer_donation_bytes);
    }
  }

  // Boundary tensors per column link (s, r) -> (s+1, r). The producers /
  // landing sites are pinned: no in-stage layer re-defines a landing site,
  // so liveness and eviction must never reclaim it mid-stream.
  out_t_.assign(cells, nullptr);
  out_grad_t_.assign(cells, nullptr);
  in_t_.assign(cells, nullptr);
  in_grad_t_.assign(cells, nullptr);
  act_q_.assign(cells, {});
  grad_q_.assign(cells, {});
  stash_.resize(cells);
  for (int s = 0; s + 1 < S; ++s) {
    const std::string& pname =
        full_->route()[static_cast<size_t>(plan_.stages[static_cast<size_t>(s)].boundary_layer)]
            ->name();
    for (int r = 0; r < R; ++r) {
      const size_t c = cell(s, r), cn = cell(s + 1, r);
      graph::Layer* prod = layer_by_name(*stage_nets_[c], pname);
      out_t_[c] = prod->output();
      out_grad_t_[c] = prod->output_grad();
      assert(out_grad_t_[c] && "boundary producer must carry a gradient");
      runtimes_[c]->pin_external(out_t_[c]);
      runtimes_[c]->pin_external(out_grad_t_[c]);
      runtimes_[c]->mark_external_pending(out_grad_t_[c]);

      graph::Layer* in = stage_nets_[cn]->input_layer();
      in_t_[cn] = in->output();
      in_grad_t_[cn] = in->output_grad();
      assert(in_grad_t_[cn] && "stage input must carry a gradient");
      runtimes_[cn]->pin_external(in_grad_t_[cn]);
      runtimes_[cn]->mark_external_pending(in_t_[cn]);
    }
  }

  // Param-grad tensors in net order — identical topology across a stage's
  // replicas, so index i refers to the same logical gradient row-wide.
  grads_.resize(cells);
  grad_elems_.assign(static_cast<size_t>(S), 0);
  grad_stash_.resize(cells);
  if (real_) fused_.resize(cells);
  for (int s = 0; s < S; ++s) {
    for (int r = 0; r < R; ++r) {
      const size_t c = cell(s, r);
      for (const auto& l : stage_nets_[c]->layers()) {
        for (tensor::Tensor* g : l->param_grads()) grads_[c].push_back(g);
      }
      assert(grads_[c].size() == grads_[cell(s, 0)].size() &&
             "stage replicas must be topologically identical");
    }
    for (const tensor::Tensor* g : grads_[cell(s, 0)]) {
      grad_elems_[static_cast<size_t>(s)] += static_cast<uint64_t>(g->shape().elems());
    }
    if (real_) {
      for (int r = 0; r < R; ++r) {
        grad_stash_[cell(s, r)].assign(
            static_cast<size_t>(cfg_.microbatches),
            std::vector<float>(static_cast<size_t>(grad_elems_[static_cast<size_t>(s)])));
        fused_[cell(s, r)].resize(static_cast<size_t>(grad_elems_[static_cast<size_t>(s)]));
      }
    }
  }

  // Fused-gradient bucket counts (the async all-reduce granularity; the
  // engine emits a kBucketReady per bucket after each stage's last backward).
  // S = 1 has no drain for buckets to overlap: one bucket.
  buckets_.assign(static_cast<size_t>(S), 1);
  for (int s = 0; s < S; ++s) {
    const uint64_t bytes = grad_elems_[static_cast<size_t>(s)] * sizeof(float);
    if (S > 1 && cfg_.bucket_bytes > 0 && bytes > 0) {
      buckets_[static_cast<size_t>(s)] =
          static_cast<int>((bytes + cfg_.bucket_bytes - 1) / cfg_.bucket_bytes);
    }
  }
  sched_ = std::make_unique<ScheduleEngine>(S, cfg_.microbatches, buckets_);

  // Stash sized to the engine's real peak: at most min(M, S-s+1) slots.
  if (real_) {
    for (int s = 1; s < S; ++s) {
      for (int r = 0; r < R; ++r) {
        const size_t c = cell(s, r);
        stash_[c].assign(static_cast<size_t>(sched_->peak_stash_slots(s)),
                         std::vector<float>(static_cast<size_t>(in_t_[c]->shape().elems())));
      }
    }
  }

  // One sub-group Communicator per stage row: ranks are replicas 0..R-1, on
  // the row's grid devices, sending through the row cells' own engines.
  for (int s = 0; s < S; ++s) {
    std::vector<core::TransferEngine*> row;
    for (int r = 0; r < R; ++r) row.push_back(&engine(s, r));
    comms_.push_back(
        std::make_unique<Communicator>(cluster_, grid_.replica_group(s), std::move(row)));
  }

  if (real_) {
    batch_data_.resize(static_cast<size_t>(cfg_.global_batch) * dataset_.sample_elems());
    batch_labels_.resize(static_cast<size_t>(cfg_.global_batch));
  }
}

void HybridParallelTrainer::attach_trace(obs::TraceSession* session) {
  for (int s = 0; s < cfg_.stages; ++s) {
    for (int r = 0; r < cfg_.replicas; ++r) {
      const int d = grid_.device(s, r);
      if (session) {
        obs::TraceRecorder& rec = session->recorder_for(d);
        rec.set_ids(d, s, r);
        grid_.machine(s, r).set_trace(&rec);
      } else {
        grid_.machine(s, r).set_trace(nullptr);
      }
    }
  }
}

uint64_t HybridParallelTrainer::stash_bytes(int stage) const {
  if (stage == 0) return 0;
  const size_t c = cell(stage, 0);
  return static_cast<uint64_t>(sched_->peak_stash_slots(stage)) *
         static_cast<uint64_t>(in_t_[c]->shape().elems()) * sizeof(float);
}

void HybridParallelTrainer::send_activation(int s, int r, int slot) {
  const size_t c = cell(s, r), cn = cell(s + 1, r);
  const uint64_t tag = next_tag_++;
  const float* src = device_ptr(s, r, out_t_[c]);
  float* dst = real_ ? stash_[cn][static_cast<size_t>(slot)].data() : nullptr;
  // Activation streaming rides the critical path on the per-link P2P worker,
  // like the Communicator's collective hops.
  sim::Event ev = engine(s, r).submit_p2p(tag, src, dst, out_t_[c]->bytes(),
                                          grid_.device(s + 1, r), grid_.machine(s, r).now(),
                                          obs::flow_id_p2p(tag, grid_.device(s, r)));
  act_q_[cn].push_back({ev, tag});
  in_flight_.push_back({c, tag});
}

double HybridParallelTrainer::receive_activation(int s, int r, int phase, int m) {
  const size_t c = cell(s, r);
  sim::Machine& mach = grid_.machine(s, r);
  auto [ev, tag] = act_q_[c].front();
  act_q_[c].pop_front();
  if (auto* rec = mach.trace()) {
    rec->set_stall_context(obs::StallSource::kPipelineRecv, "recv_act",
                           obs::schedule_phase_name(phase), m,
                           obs::flow_id_p2p(tag, grid_.device(s - 1, r)));
  }
  const double stall0 = mach.counters().stall_time;
  mach.wait_event(ev);  // virtual gate (deterministic)
  const double stalled = mach.counters().stall_time - stall0;
  if (auto* rec = mach.trace()) rec->clear_stall_context();
  // Physical gate: the sender's DMA worker must have let go of the bytes.
  engine(s - 1, r).await_landing(core::TransferDir::kP2P, tag);
  runtimes_[c]->mark_external_landed(in_t_[c]);
  return stalled;
}

void HybridParallelTrainer::send_gradient(int s, int r) {
  const size_t c = cell(s, r), cp = cell(s - 1, r);
  const uint64_t tag = next_tag_++;
  const float* src = device_ptr(s, r, in_grad_t_[c]);
  float* dst = device_ptr(s - 1, r, out_grad_t_[cp]);
  sim::Event ev = engine(s, r).submit_p2p(tag, src, dst, in_grad_t_[c]->bytes(),
                                          grid_.device(s - 1, r), grid_.machine(s, r).now(),
                                          obs::flow_id_p2p(tag, grid_.device(s, r)));
  grad_q_[cp].push_back({ev, tag});
  in_flight_.push_back({c, tag});
}

double HybridParallelTrainer::receive_gradient(int s, int r, int phase, int m) {
  const size_t c = cell(s, r);
  sim::Machine& mach = grid_.machine(s, r);
  auto [ev, tag] = grad_q_[c].front();
  grad_q_[c].pop_front();
  if (auto* rec = mach.trace()) {
    rec->set_stall_context(obs::StallSource::kPipelineRecv, "recv_grad",
                           obs::schedule_phase_name(phase), m,
                           obs::flow_id_p2p(tag, grid_.device(s + 1, r)));
  }
  const double stall0 = mach.counters().stall_time;
  mach.wait_event(ev);
  const double stalled = mach.counters().stall_time - stall0;
  if (auto* rec = mach.trace()) rec->clear_stall_context();
  engine(s + 1, r).await_landing(core::TransferDir::kP2P, tag);
  runtimes_[c]->mark_external_landed(out_grad_t_[c]);
  return stalled;
}

void HybridParallelTrainer::retire_streams(bool force) {
  auto it = in_flight_.begin();
  while (it != in_flight_.end()) {
    core::TransferEngine& eng = runtimes_[it->first]->tensor_pool().engine();
    if (eng.try_retire(core::TransferDir::kP2P, it->second)) {
      it = in_flight_.erase(it);
    } else if (force) {
      // Iteration boundary: the receiver consumed the bytes long ago; only
      // the sender's lagging clock keeps the ticket open. Wait it out.
      eng.wait(core::TransferDir::kP2P, it->second);
      it = in_flight_.erase(it);
    } else {
      ++it;
    }
  }
}

void HybridParallelTrainer::combine_microbatch_grads(int s, int r) {
  const size_t c = cell(s, r);
  util::PairwiseVecAccumulator acc(static_cast<size_t>(grad_elems_[static_cast<size_t>(s)]));
  for (auto& snap : grad_stash_[c]) {
    // push() consumes the leaf in place; the stash is fully rewritten by
    // next iteration's snapshots.
    acc.push(snap.data());
  }
  acc.finish(fused_[c].data());
}

void HybridParallelTrainer::scatter_fused_grads(int s, int r) {
  const size_t c = cell(s, r);
  uint64_t off = 0;
  for (tensor::Tensor* g : grads_[c]) {
    std::memcpy(device_ptr(s, r, g), fused_[c].data() + off, g->bytes());
    off += static_cast<uint64_t>(g->shape().elems());
  }
}

HybridParallelReport HybridParallelTrainer::run() {
  HybridParallelReport report;
  const int S = cfg_.stages, R = cfg_.replicas, M = cfg_.microbatches;
  const size_t cells = static_cast<size_t>(S) * static_cast<size_t>(R);
  const int64_t mb_elems = static_cast<int64_t>(microbatch_) * dataset_.sample_elems();

  for (int it = 0; it < cfg_.train.iterations; ++it) {
    if (real_) {
      dataset_.fill_batch(cfg_.global_batch, static_cast<uint64_t>(it), batch_data_.data(),
                          batch_labels_.data());
    }
    std::vector<std::array<double, 3>> bubble_ph(cells, {0.0, 0.0, 0.0});
    std::vector<core::IterationStats> cell_st(cells);
    std::vector<sim::MachineCounters> c0(cells);
    std::vector<double> now0(cells);
    for (int s = 0; s < S; ++s) {
      for (int r = 0; r < R; ++r) {
        const size_t c = cell(s, r);
        c0[c] = grid_.machine(s, r).counters();
        now0[c] = grid_.machine(s, r).now();
      }
    }
    /// loss_sums[r][m]: raw NLL sum of replica r's microbatch m.
    std::vector<std::vector<double>> loss_sums(
        static_cast<size_t>(R), std::vector<double>(static_cast<size_t>(M), 0.0));

    // Replica r's microbatch m holds the contiguous global samples
    // [r*shard + m*b, r*shard + (m+1)*b) — microbatches nest inside the
    // replica shard, so the pairwise combine below mirrors the full-batch
    // reduction tree (see header).
    auto stage_input = [&](int s, int r, int m) -> const float* {
      if (!real_) return nullptr;
      if (s == 0) {
        return batch_data_.data() +
               (static_cast<int64_t>(r) * shard_ * dataset_.sample_elems()) +
               static_cast<int64_t>(m) * mb_elems;
      }
      return stash_[cell(s, r)][static_cast<size_t>(sched_->stash_slot(s, m))].data();
    };
    auto stage_labels = [&](int s, int r, int m) -> const int32_t* {
      if (!real_ || s != S - 1) return nullptr;
      return batch_labels_.data() + static_cast<int64_t>(r) * shard_ +
             static_cast<int64_t>(m) * microbatch_;
    };

    // --- schedule replay: the engine's op list drives every replica column.
    // Columns are independent until the per-stage all-reduce; each op
    // executes across r = 0..R-1 (disjoint links) before the next, which
    // keeps the schedule deterministic.
    std::vector<std::vector<AllreduceHandle>> ar_handles(static_cast<size_t>(S));
    std::vector<double> bwd_end(cells, 0.0);  ///< [cell] end of its last backward
    for (const ScheduleOp& op : sched_->ops()) {
      const int s = op.stage, m = op.microbatch;
      const size_t ph = static_cast<size_t>(op.phase);
      switch (op.kind) {
        case ScheduleOpKind::kForward: {
          for (int r = 0; r < R; ++r) {
            const size_t c = cell(s, r);
            const double op_v0 = grid_.machine(s, r).now();
            runtimes_[c]->set_schedule_phase(static_cast<int>(op.phase), m);
            // Physical write-after-read gate: the forward overwrites out_t_,
            // which an in-flight activation send's DMA read may still be
            // feeding. The worker queue is FIFO, so landing the newest
            // outstanding tag lands them all.
            // Wall-clock only: virtual time and the schedule are untouched.
            if (s + 1 < S && !act_q_[cell(s + 1, r)].empty()) {
              engine(s, r).await_landing(core::TransferDir::kP2P,
                                         act_q_[cell(s + 1, r)].back().second);
            }
            if (s > 0) {
              bubble_ph[c][ph] += receive_activation(s, r, static_cast<int>(op.phase), m);
            }
            core::IterationStats f =
                runtimes_[c]->forward_pass(stage_input(s, r, m), stage_labels(s, r, m));
            core::combine_stats(cell_st[c], f);
            if (s == S - 1) {
              loss_sums[static_cast<size_t>(r)][static_cast<size_t>(m)] = f.loss_sum;
            }
            if (s > 0) {
              // Until the next activation lands in this slot, the stage
              // input's authoritative bytes live upstream.
              runtimes_[c]->mark_external_pending(in_t_[c]);
            }
            if (s + 1 < S) send_activation(s, r, sched_->stash_slot(s + 1, m));
            retire_streams(false);
            if (auto* rec = grid_.machine(s, r).trace()) {
              char opname[16];
              std::snprintf(opname, sizeof(opname), "F%d", m);
              rec->record_schedule_op(opname, op_v0, grid_.machine(s, r).now(),
                                      obs::schedule_phase_name(static_cast<int>(op.phase)), m);
            }
          }
          break;
        }
        case ScheduleOpKind::kBackward: {
          for (int r = 0; r < R; ++r) {
            const size_t c = cell(s, r);
            const double op_v0 = grid_.machine(s, r).now();
            runtimes_[c]->set_schedule_phase(static_cast<int>(op.phase), m);
            // Physical write-after-read gates: the re-materialization forward
            // overwrites out_t_ and the backward overwrites in_grad_t_ —
            // either may still be feeding an in-flight send's DMA read.
            if (s + 1 < S && !act_q_[cell(s + 1, r)].empty()) {
              engine(s, r).await_landing(core::TransferDir::kP2P,
                                         act_q_[cell(s + 1, r)].back().second);
            }
            if (s > 0 && !grad_q_[cell(s - 1, r)].empty()) {
              engine(s, r).await_landing(core::TransferDir::kP2P,
                                         grad_q_[cell(s - 1, r)].back().second);
            }
            if (op.recompute) {
              if (s > 0) {
                // Re-materialization reads the locally stashed input: valid.
                runtimes_[c]->mark_external_landed(in_t_[c]);
              }
              core::IterationStats rf =
                  runtimes_[c]->forward_pass(stage_input(s, r, m), stage_labels(s, r, m));
              core::combine_stats(cell_st[c], rf);
            }
            if (s + 1 < S) {
              bubble_ph[c][ph] += receive_gradient(s, r, static_cast<int>(op.phase), m);
            }
            core::IterationStats b = runtimes_[c]->backward_pass(stage_labels(s, r, m));
            core::combine_stats(cell_st[c], b);
            if (s + 1 < S) runtimes_[c]->mark_external_pending(out_grad_t_[c]);
            if (s > 0) {
              send_gradient(s, r);
              runtimes_[c]->mark_external_pending(in_t_[c]);
            }
            if (real_) {
              // Snapshot this microbatch's gradients; combined pairwise at
              // the stage's first kBucketReady.
              auto& snap = grad_stash_[c][static_cast<size_t>(m)];
              uint64_t off = 0;
              for (tensor::Tensor* g : grads_[c]) {
                std::memcpy(snap.data() + off, device_ptr(s, r, g), g->bytes());
                off += static_cast<uint64_t>(g->shape().elems());
              }
            }
            retire_streams(false);
            bwd_end[c] = grid_.machine(s, r).now();
            if (auto* rec = grid_.machine(s, r).trace()) {
              char opname[16];
              std::snprintf(opname, sizeof(opname), "B%d", m);
              rec->record_schedule_op(opname, op_v0, grid_.machine(s, r).now(),
                                      obs::schedule_phase_name(static_cast<int>(op.phase)), m);
            }
          }
          break;
        }
        case ScheduleOpKind::kBucketReady: {
          // Stage s's last backward just retired: combine its microbatch
          // gradients and issue this bucket's row all-reduce ASYNCHRONOUSLY
          // — upstream stages keep draining while the collective's link/add
          // chain plays out in virtual time. Consecutive buckets chain on
          // the row Communicator.
          const uint64_t elems = grad_elems_[static_cast<size_t>(s)];
          if (op.bucket == 0 && real_ && elems > 0) {
            for (int r = 0; r < R; ++r) combine_microbatch_grads(s, r);
          }
          // Even split, front-loaded remainder — same carving as the ring
          // algorithm's chunks. Bucketing is element-wise bit-identical to
          // the unbucketed collective (each element's rank-combine tree is
          // independent of segmentation).
          const uint64_t nb = static_cast<uint64_t>(buckets_[static_cast<size_t>(s)]);
          const uint64_t base = elems / nb, rem = elems % nb;
          const uint64_t b = static_cast<uint64_t>(op.bucket);
          const uint64_t off = b * base + std::min(b, rem);
          const uint64_t len = base + (b < rem ? 1 : 0);
          std::vector<float*> bufs(static_cast<size_t>(R), nullptr);
          if (real_ && len > 0) {
            for (int r = 0; r < R; ++r) {
              bufs[static_cast<size_t>(r)] = fused_[cell(s, r)].data() + off;
            }
          }
          std::vector<double> ar_v0(static_cast<size_t>(R));
          for (int r = 0; r < R; ++r) {
            ar_v0[static_cast<size_t>(r)] = grid_.machine(s, r).now();
          }
          ar_handles[static_cast<size_t>(s)].push_back(
              comms_[static_cast<size_t>(s)]->all_reduce_async(bufs, len));
          for (int r = 0; r < R; ++r) {
            if (auto* rec = grid_.machine(s, r).trace()) {
              char opname[16];
              std::snprintf(opname, sizeof(opname), "AR%d", op.bucket);
              rec->record_schedule_op(opname, ar_v0[static_cast<size_t>(r)],
                                      grid_.machine(s, r).now(),
                                      obs::schedule_phase_name(static_cast<int>(op.phase)), -1);
            }
          }
          break;
        }
      }
    }
    retire_streams(true);
    for (size_t c = 0; c < cells; ++c) runtimes_[c]->set_schedule_phase(-1, -1);

    // Drain end: the moment the last cell finishes its last backward. Any
    // all-reduce virtual time past this point is EXPOSED (not overlapped) —
    // including hop sends a bucket issue charged to its sender's compute
    // stream after that backward.
    double drain_end = 0.0;
    for (int s = 0; s < S; ++s) {
      for (int r = 0; r < R; ++r) {
        const double t = bwd_end[cell(s, r)];
        drain_end = std::max(drain_end, t);
        if (auto* rec = grid_.machine(s, r).trace()) rec->record_marker("drain-end", t);
      }
    }
    double ar_end_max = drain_end;

    // --- per-stage update. Replica r's M snapshots combined (binary
    // counter, ascending m) into its shard subtree at the stage's first
    // kBucketReady; the row all-reduce (halving-doubling for power-of-two R)
    // combines the R subtrees in ascending rank order — together exactly the
    // full-batch per-sample pairwise tree when b, M and R are powers of two
    // (util/pairwise.hpp). Settle the virtual completions (await) and
    // measure exposure BEFORE any SGD advances the clocks (stage rows are
    // disjoint machine sets).
    std::vector<double> allreduce_max(static_cast<size_t>(S), 0.0);
    for (int s = 0; s < S; ++s) {
      for (AllreduceHandle& h : ar_handles[static_cast<size_t>(s)]) {
        AllreduceStats ar = comms_[static_cast<size_t>(s)]->await(h);
        allreduce_max[static_cast<size_t>(s)] += ar.seconds;
        for (int r = 0; r < R; ++r) {
          cell_st[cell(s, r)].allreduce_seconds += ar.device_seconds[static_cast<size_t>(r)];
        }
      }
      for (int r = 0; r < R; ++r) {
        ar_end_max = std::max(ar_end_max, grid_.machine(s, r).now());
      }
    }
    for (int s = 0; s < S; ++s) {
      for (int r = 0; r < R; ++r) {
        const size_t c = cell(s, r);
        if (real_ && grad_elems_[static_cast<size_t>(s)] > 0) scatter_fused_grads(s, r);
        runtimes_[c]->apply_sgd(cfg_.train.lr, cfg_.train.momentum, cfg_.train.weight_decay);
        runtimes_[c]->advance_iteration();
      }
    }
    const double allreduce_exposed = std::max(0.0, ar_end_max - drain_end);

    // --- telemetry ----------------------------------------------------------
    // Global loss tree: microbatches nest in replica shards, shards combine
    // in rank order — the same grouping the gradients used.
    double loss_sum = 0.0;
    if (real_) {
      std::vector<double> replica_sums(static_cast<size_t>(R), 0.0);
      for (int r = 0; r < R; ++r) {
        replica_sums[static_cast<size_t>(r)] = util::pairwise_sum<double>(
            static_cast<uint64_t>(M),
            [&](uint64_t i) { return loss_sums[static_cast<size_t>(r)][i]; });
      }
      loss_sum = Communicator::combine_loss_sums(replica_sums);
    }
    const double loss = loss_sum / cfg_.global_batch;
    core::IterationStats agg;
    agg.loss = loss;
    agg.loss_sum = loss_sum;
    agg.allreduce_exposed_seconds = allreduce_exposed;
    for (int s = 0; s < S; ++s) {
      agg.allreduce_seconds = std::max(agg.allreduce_seconds, allreduce_max[static_cast<size_t>(s)]);
    }
    std::vector<std::vector<core::IterationStats>> grid_st(
        static_cast<size_t>(S), std::vector<core::IterationStats>(static_cast<size_t>(R)));
    for (int s = 0; s < S; ++s) {
      for (int r = 0; r < R; ++r) {
        const size_t c = cell(s, r);
        auto& st = cell_st[c];
        const int d = grid_.device(s, r);
        const auto& c1 = cluster_.machine(d).counters();
        st.loss = loss;
        st.loss_sum = loss_sum;
        st.seconds = cluster_.machine(d).now() - now0[c];
        st.stall_seconds = c1.stall_time - c0[c].stall_time;
        st.bubble_fill_seconds = bubble_ph[c][0];
        st.bubble_steady_seconds = bubble_ph[c][1];
        st.bubble_drain_seconds = bubble_ph[c][2];
        st.bubble_seconds = bubble_ph[c][0] + bubble_ph[c][1] + bubble_ph[c][2];
        st.p2p_bytes = c1.bytes_p2p - c0[c].bytes_p2p;
        st.p2p_seconds = c1.seconds_p2p - c0[c].seconds_p2p;
        core::combine_stats(agg, st);
        grid_st[static_cast<size_t>(s)][static_cast<size_t>(r)] = st;
      }
    }
    report.losses.push_back(loss);
    report.stats.push_back(agg);
    report.cell_stats.push_back(std::move(grid_st));
  }
  return report;
}

}  // namespace sn::dist
