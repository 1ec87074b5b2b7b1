// bench_prefetch_lookahead: sweep RuntimeOptions::prefetch_lookahead across
// the zoo networks and report DMA stall time, so per-net defaults can be
// picked empirically (ROADMAP "Prefetch policy search"; the paper always
// stages exactly the next checkpoint span, i.e. lookahead 1).
//
// Capacity is squeezed below each net's working set so offload/prefetch
// traffic actually flows — on an uncontended device every lookahead is
// trivially stall-free.
#include <cstdio>

#include "bench/cli_args.hpp"
#include "bench/common.hpp"
#include "util/json_writer.hpp"

using namespace sn;

namespace {

struct NetCase {
  const char* name;
  int batch;
  uint64_t capacity;
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::parse_single_flag(argc, argv, "--json");
  // Rows stream into the writer as the sweep runs; saved only with --json.
  util::JsonWriter w;
  w.begin_object();
  w.key("nets").begin_array();
  // Batches in paper-evaluation territory; capacity chosen to force the
  // unified tensor pool to swap (fractions of the 12 GB K40c).
  const NetCase cases[] = {
      {"AlexNet", 1024, 10ull << 30}, {"VGG16", 128, 8ull << 30},
      {"VGG19", 128, 8ull << 30},     {"InceptionV4", 128, 8ull << 30},
      {"ResNet50", 256, 8ull << 30},  {"ResNet101", 128, 8ull << 30},
  };
  const int kMaxLookahead = 4;

  std::printf("=== prefetch_lookahead sweep: stall seconds per iteration ===\n");
  std::printf("(lookahead 0 disables prefetch; the paper uses 1)\n\n");
  util::Table t({"network", "batch", "L=0 (ms)", "L=1 (ms)", "L=2 (ms)", "L=3 (ms)", "L=4 (ms)",
                 "best L", "iter@best (ms)"});
  for (const auto& c : cases) {
    // Per-depth results; a depth that OOMs (deeper staging raises the
    // resident footprint) gets an OOM cell, the rest still rank.
    std::vector<double> stalls(kMaxLookahead + 1), iters(kMaxLookahead + 1);
    std::vector<bool> ok(kMaxLookahead + 1, false);
    for (int lookahead = 0; lookahead <= kMaxLookahead; ++lookahead) {
      core::RuntimeOptions o = core::make_policy(core::PolicyPreset::kSuperNeurons);
      o.device_capacity = c.capacity;
      o.prefetch_lookahead = lookahead;
      auto net = bench::build_network(c.name, c.batch);
      try {
        auto st = bench::run_sim_iteration(*net, o);
        stalls[lookahead] = st.stall_seconds;
        iters[lookahead] = st.seconds;
        ok[lookahead] = true;
      } catch (const core::OomError&) {
      }
    }
    int best = -1;
    for (int l = 0; l <= kMaxLookahead; ++l) {
      if (ok[l] && (best < 0 || iters[l] < iters[best])) best = l;
    }
    auto cell = [&](int l) {
      return ok[l] ? util::format_double(stalls[l] * 1e3, 2) : std::string("OOM");
    };
    t.add_row({c.name, std::to_string(c.batch), cell(0), cell(1), cell(2), cell(3), cell(4),
               best < 0 ? "-" : std::to_string(best),
               best < 0 ? "-" : util::format_double(iters[best] * 1e3, 1)});
    w.begin_object(util::JsonWriter::kInline);
    w.key("name").value(c.name);
    w.key("batch").value(c.batch);
    w.key("best_lookahead").value(best);
    w.key("stall_ms").begin_array(util::JsonWriter::kInline);
    for (int l = 0; l <= kMaxLookahead; ++l) {
      // format_double tokens pass through raw() so the cells stay byte-for-
      // byte what the fprintf emitter produced.
      if (ok[l]) {
        w.raw(util::format_double(stalls[l] * 1e3, 4));
      } else {
        w.value_null();
      }
    }
    w.end_array().end_object();
  }
  t.print();
  std::printf("\nbest L = lookahead minimizing iteration time (stall is the driver;\n"
              "deeper staging can also displace resident tensors).\n");
  w.end_array().end_object();
  if (json_path && !w.save(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  return 0;
}
