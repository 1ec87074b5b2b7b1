// Span recorder, statistics helpers, the paper-scale simulation probes
// (Table 4 depth search, dynamic workspace) and the self-test of the output
// check.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "graph/layers.hpp"
#include "graph/zoo.hpp"

namespace perfbench {

using namespace sn;

// --- Tracer -----------------------------------------------------------------------

int Tracer::begin(const char* name, int64_t iter) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start = seconds_since(epoch_);
  s.parent = open_.empty() ? -1 : open_.back();
  s.iter = iter;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = seconds_since(epoch_);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::self_times(const std::string& name) const {
  // Children nest inside their parent and do not overlap each other (one
  // thread records them), so the covered part is the sum of their durations.
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_)
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) out.push_back(spans_[i].end - spans_[i].start - child[i]);
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "[\n";
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,"
                  "\"iter\":%lld}%s\n",
                  i, s.name.c_str(), s.start, s.end, s.parent, static_cast<long long>(s.iter),
                  i + 1 < spans_.size() ? "," : "");
    f << line;
  }
  f << "]\n";
  return static_cast<bool>(f);
}

// --- statistics ------------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// --- Table 4 ----------------------------------------------------------------------

int deepest_resnet_depth() {
  auto trains = [](int n3) {
    try {
      auto net = graph::build_resnet(6, 32, n3, 6, /*batch=*/16);
      core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
      o.real = false;
      core::Runtime rt(*net, o);
      rt.train_iteration(nullptr, nullptr);
      return true;
    } catch (const core::OomError&) {
      return false;  // a probe that does not fit is the measurement
    }
  };
  int lo = 1, hi = 1200;
  if (!trains(lo)) return 0;
  while (lo < hi) {
    const int mid = lo + (hi - lo + 1) / 2;
    if (trains(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return graph::resnet_depth(6, 32, lo, 6);
}

double paper_scale_fast_algo_frac() {
  auto net = graph::build_resnet(6, 32, 200, 6, /*batch=*/16);
  core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
  o.real = false;
  core::Runtime rt(*net, o);
  rt.train_iteration(nullptr, nullptr);
  uint64_t conv = 0, fast = 0;
  for (const auto& t : rt.step_telemetry()) {
    if (t.layer == nullptr || t.layer->type() != graph::LayerType::kConv) continue;
    ++conv;
    if (t.ws_assigned == t.ws_max_speed) ++fast;
  }
  return conv ? static_cast<double>(fast) / static_cast<double>(conv) : 0.0;
}

// --- self-test ------------------------------------------------------------------------

int self_test() {
  struct Case {
    OracleFault fault;
    const char* what;
  };
  const Case cases[] = {{OracleFault::kNone, "matching oracle"},
                        {OracleFault::kShiftedData, "oracle on shifted data"},
                        {OracleFault::kOneUlpWeight, "oracle weight off by one ulp"}};
  int status = 0;
  for (const std::string name : {"real-pressure", "real-grid"}) {
    for (const Case& c : cases) {
      auto session = make_session(name, 7);
      const CheckOutcome out = session->check_prefix(2, c.fault);
      const bool expect_fail = c.fault != OracleFault::kNone;
      const bool failed = out.failed > 0;
      std::printf("self-test %-14s %-30s %llu/%llu iterations failed -> %s\n", name.c_str(),
                  c.what, static_cast<unsigned long long>(out.failed),
                  static_cast<unsigned long long>(out.iterations),
                  failed == expect_fail ? "as expected" : "WRONG");
      for (size_t i = 0; i < out.problems.size() && i < 4; ++i)
        std::printf("    %s\n", out.problems[i].c_str());
      if (out.problems.size() > 4) std::printf("    ... %zu more\n", out.problems.size() - 4);
      if (failed != expect_fail) status = 1;
    }
  }
  std::printf("self-test %s\n", status == 0 ? "passed" : "FAILED");
  return status;
}

}  // namespace perfbench
