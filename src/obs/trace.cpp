#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>

namespace sn::obs {

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kCompute: return "compute";
    case SpanKind::kH2D: return "h2d";
    case SpanKind::kD2H: return "d2h";
    case SpanKind::kP2P: return "p2p";
    case SpanKind::kCollective: return "collective";
    case SpanKind::kStall: return "stall";
    case SpanKind::kScheduleOp: return "schedule";
    case SpanKind::kAlloc: return "alloc";
  }
  return "?";
}

const char* stall_source_name(StallSource s) {
  switch (s) {
    case StallSource::kNone: return "none";
    case StallSource::kTransfer: return "transfer";
    case StallSource::kPipelineRecv: return "pipeline_recv";
    case StallSource::kCollective: return "collective";
  }
  return "?";
}

const char* schedule_phase_name(int phase) {
  switch (phase) {
    case 0: return "fill";
    case 1: return "steady";
    case 2: return "drain";
    default: return "";
  }
}

uint64_t flow_id_p2p(uint64_t tag, int src_device) {
  return (tag << 8) | (static_cast<uint64_t>(src_device) & 0xff);
}

uint64_t flow_id_collective(uint64_t seq, int device) {
  return (1ull << 62) | (seq << 8) | (static_cast<uint64_t>(device) & 0xff);
}

uint64_t flow_id_peer_stage(uint64_t seq, int device) {
  return (1ull << 61) | (seq << 8) | (static_cast<uint64_t>(device) & 0xff);
}

double TraceRecorder::wall_now() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

TraceRecorder::TraceRecorder(size_t capacity) : capacity_(capacity < 8 ? 8 : capacity) {
  ring_.reserve(std::min<size_t>(capacity_, 4096));
}

void TraceRecorder::set_ids(int device, int stage, int replica) {
  std::lock_guard<std::mutex> lk(mu_);
  device_ = device;
  stage_ = stage;
  replica_ = replica;
}

void TraceRecorder::set_op_context(const std::string& name, const std::string& phase,
                                   int microbatch) {
  std::lock_guard<std::mutex> lk(mu_);
  op_name_ = name;
  op_phase_ = phase;
  op_microbatch_ = microbatch;
}

void TraceRecorder::set_stall_context(StallSource src, const std::string& name,
                                      const std::string& phase, int microbatch,
                                      uint64_t flow_in) {
  std::lock_guard<std::mutex> lk(mu_);
  stall_src_ = src;
  stall_name_ = name;
  stall_phase_ = phase;
  stall_microbatch_ = microbatch;
  stall_flow_in_ = flow_in;
}

void TraceRecorder::clear_stall_context() {
  std::lock_guard<std::mutex> lk(mu_);
  stall_src_ = StallSource::kNone;
  stall_name_.clear();
  stall_phase_.clear();
  stall_microbatch_ = -1;
  stall_flow_in_ = 0;
}

void TraceRecorder::push(TraceSpan&& s) {
  s.device = device_;
  s.stage = stage_;
  s.replica = replica_;
  s.wall = wall_now();
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(s));
  } else {
    ring_[head_] = std::move(s);
    head_ = (head_ + 1) % capacity_;
    dropped_++;
  }
}

void TraceRecorder::record_compute(double vbegin, double vend) {
  std::lock_guard<std::mutex> lk(mu_);
  TraceSpan s;
  s.kind = SpanKind::kCompute;
  s.name = op_name_.empty() ? "compute" : op_name_;
  s.phase = op_phase_;
  s.microbatch = op_microbatch_;
  s.vbegin = vbegin;
  s.vend = vend;
  s.stream = kStreamCompute;
  push(std::move(s));
}

void TraceRecorder::record_alloc(const char* what, double vbegin, double vend, uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  TraceSpan s;
  s.kind = SpanKind::kAlloc;
  s.name = what;
  s.phase = op_phase_;
  s.microbatch = op_microbatch_;
  s.vbegin = vbegin;
  s.vend = vend;
  s.stream = kStreamCompute;
  s.bytes = bytes;
  push(std::move(s));
}

void TraceRecorder::record_copy(SpanKind kind, int stream, double vbegin, double vend,
                                uint64_t bytes, uint64_t flow_out, const char* name) {
  std::lock_guard<std::mutex> lk(mu_);
  TraceSpan s;
  s.kind = kind;
  s.name = name;
  s.vbegin = vbegin;
  s.vend = vend;
  s.stream = stream;
  s.bytes = bytes;
  s.flow_out = flow_out;
  push(std::move(s));
}

void TraceRecorder::record_wait(double vbegin, double vend) {
  std::lock_guard<std::mutex> lk(mu_);
  bool stalled = vend > vbegin;
  if (!stalled && stall_flow_in_ == 0) return;
  TraceSpan s;
  s.kind = SpanKind::kStall;
  s.stall = stall_src_ == StallSource::kNone ? StallSource::kTransfer : stall_src_;
  s.name = stall_name_.empty() ? "wait" : stall_name_;
  s.phase = stall_phase_;
  s.microbatch = stall_microbatch_;
  s.vbegin = vbegin;
  s.vend = vend;
  s.stream = kStreamCompute;
  s.flow_in = stall_flow_in_;
  stall_flow_in_ = 0;  // one-shot: the first wait consumes the arrow
  push(std::move(s));
}

void TraceRecorder::record_schedule_op(const std::string& name, double vbegin, double vend,
                                       const std::string& phase, int microbatch) {
  std::lock_guard<std::mutex> lk(mu_);
  TraceSpan s;
  s.kind = SpanKind::kScheduleOp;
  s.name = name;
  s.phase = phase;
  s.microbatch = microbatch;
  s.vbegin = vbegin;
  s.vend = vend;
  s.stream = kStreamSchedule;
  push(std::move(s));
}

void TraceRecorder::record_marker(const char* name, double vtime) {
  std::lock_guard<std::mutex> lk(mu_);
  TraceSpan s;
  s.kind = SpanKind::kScheduleOp;
  s.name = name;
  s.vbegin = vtime;
  s.vend = vtime;
  s.stream = kStreamSchedule;
  push(std::move(s));
}

void TraceRecorder::record_wall_chunk(int stream, uint64_t seq, uint64_t bytes, double wbegin,
                                      double wend) {
  std::lock_guard<std::mutex> lk(wall_mu_);
  if (wall_ring_.size() >= capacity_) {  // cap, never unbounded
    ++wall_dropped_;
    return;
  }
  WallChunkSpan s;
  s.stream = stream;
  s.seq = seq;
  s.bytes = bytes;
  s.wbegin = wbegin;
  s.wend = wend;
  wall_ring_.push_back(s);
}

void TraceRecorder::clear() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
  }
  std::lock_guard<std::mutex> lk(wall_mu_);
  wall_ring_.clear();
  wall_dropped_ = 0;
}

std::vector<TraceSpan> TraceRecorder::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TraceSpan> out;
  out.reserve(ring_.size());
  // Oldest-first: once the ring wrapped, head_ is the oldest slot.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<WallChunkSpan> TraceRecorder::wall_chunks() const {
  std::lock_guard<std::mutex> lk(wall_mu_);
  std::vector<WallChunkSpan> out = wall_ring_;
  std::sort(out.begin(), out.end(), [](const WallChunkSpan& a, const WallChunkSpan& b) {
    if (a.stream != b.stream) return a.stream < b.stream;
    return a.seq < b.seq;
  });
  return out;
}

size_t TraceRecorder::dropped() const {
  size_t n;
  {
    std::lock_guard<std::mutex> lk(mu_);
    n = dropped_;
  }
  std::lock_guard<std::mutex> lk(wall_mu_);
  return n + wall_dropped_;
}

TraceRecorder& TraceSession::recorder_for(int device) {
  auto it = recorders_.find(device);
  if (it == recorders_.end()) {
    it = recorders_.emplace(device, std::make_unique<TraceRecorder>(capacity_)).first;
    it->second->set_ids(device, -1, -1);
  }
  return *it->second;
}

std::vector<int> TraceSession::devices() const {
  std::vector<int> out;
  out.reserve(recorders_.size());
  for (const auto& [d, _] : recorders_) out.push_back(d);
  return out;
}

const TraceRecorder* TraceSession::recorder(int device) const {
  auto it = recorders_.find(device);
  return it == recorders_.end() ? nullptr : it->second.get();
}

void TraceSession::clear() {
  for (auto& [_, r] : recorders_) r->clear();
}

}  // namespace sn::obs
