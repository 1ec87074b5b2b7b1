#include "perf/trajectory.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "util/json_writer.hpp"
#include "util/table.hpp"

namespace sn::perf {

namespace {

[[noreturn]] void fail(const std::string& origin, const std::string& what) {
  throw TrajectoryError(origin + ": " + what);
}

double req_number(const util::JsonValue& obj, const std::string& key, const std::string& origin,
                  const std::string& ctx) {
  const util::JsonValue* v = obj.find(key);
  if (!v || !v->is_number()) fail(origin, ctx + ": missing numeric \"" + key + "\"");
  return v->as_number();
}

std::string req_string(const util::JsonValue& obj, const std::string& key,
                       const std::string& origin, const std::string& ctx) {
  const util::JsonValue* v = obj.find(key);
  if (!v || !v->is_string()) fail(origin, ctx + ": missing string \"" + key + "\"");
  return v->as_string();
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

using CellMap = std::map<std::string, std::map<std::string, MetricStat>>;

void add_cell(CellMap* cells, const std::string& origin, const std::string& key,
              std::map<std::string, MetricStat> metrics) {
  if (!cells) return;
  if (!cells->emplace(key, std::move(metrics)).second) {
    fail(origin, "duplicate cell key \"" + key + "\"");
  }
}

size_t load_stream_overlap(const util::JsonValue& sec, const std::string& origin,
                           CellMap* cells) {
  const std::string kSec = "stream_overlap";
  const util::JsonValue* micro = sec.find("micro");
  if (!micro || !micro->is_object()) fail(origin, kSec + ": missing \"micro\" object");
  {
    std::map<std::string, MetricStat> m;
    for (const char* k :
         {"serialized_s", "dual_s", "d2h_seconds", "h2d_seconds", "overlap_ratio"}) {
      double v = req_number(*micro, k, origin, kSec + " micro");
      m[k] = MetricStat{v, v, v, 1};
    }
    add_cell(cells, origin, kSec + "/micro", std::move(m));
  }
  const util::JsonValue* nets = sec.find("nets");
  if (!nets || !nets->is_array() || nets->size() == 0) {
    fail(origin, kSec + ": missing non-empty \"nets\" array");
  }
  for (size_t i = 0; i < nets->size(); ++i) {
    const util::JsonValue& row = nets->at(i);
    std::string ctx = kSec + " net row " + std::to_string(i);
    std::string name = req_string(row, "name", origin, ctx);
    int batch = static_cast<int>(req_number(row, "batch", origin, ctx));
    const util::JsonValue* ok = row.find("ok");
    if (!ok || !ok->is_bool()) fail(origin, ctx + ": missing bool \"ok\"");
    std::map<std::string, MetricStat> m;
    double okv = ok->as_bool() ? 1.0 : 0.0;
    m["ok"] = MetricStat{okv, okv, okv, 1};
    for (const char* k : {"serialized_ms", "dual_ms", "d2h_seconds", "h2d_seconds"}) {
      double v = req_number(row, k, origin, ctx);
      m[k] = MetricStat{v, v, v, 1};
    }
    add_cell(cells, origin, kSec + "/" + name + "/b" + std::to_string(batch), std::move(m));
  }
  return nets->size() + 1;
}

size_t load_prefetch_lookahead(const util::JsonValue& sec, const std::string& origin,
                               CellMap* cells) {
  const std::string kSec = "prefetch_lookahead";
  const util::JsonValue* nets = sec.find("nets");
  if (!nets || !nets->is_array() || nets->size() == 0) {
    fail(origin, kSec + ": missing non-empty \"nets\" array");
  }
  for (size_t i = 0; i < nets->size(); ++i) {
    const util::JsonValue& row = nets->at(i);
    std::string ctx = kSec + " row " + std::to_string(i);
    std::string name = req_string(row, "name", origin, ctx);
    int batch = static_cast<int>(req_number(row, "batch", origin, ctx));
    std::map<std::string, MetricStat> m;
    double best = req_number(row, "best_lookahead", origin, ctx);
    m["best_lookahead"] = MetricStat{best, best, best, 1};
    const util::JsonValue* stalls = row.find("stall_ms");
    if (!stalls || !stalls->is_array() || stalls->size() == 0) {
      fail(origin, ctx + ": missing non-empty \"stall_ms\" array");
    }
    for (size_t l = 0; l < stalls->size(); ++l) {
      if (!stalls->at(l).is_number()) fail(origin, ctx + ": stall_ms entries must be numbers");
      double v = stalls->at(l).as_number();
      m["stall_ms_l" + std::to_string(l)] = MetricStat{v, v, v, 1};
    }
    add_cell(cells, origin, kSec + "/" + name + "/b" + std::to_string(batch), std::move(m));
  }
  return nets->size();
}

size_t load_sweep(const util::JsonValue& sec, const std::string& origin, CellMap* cells,
                  int outer_point) {
  const std::string kSec = "sweep";
  double sv = req_number(sec, "schema_version", origin, kSec);
  if (sv != 1.0) fail(origin, kSec + ": unsupported schema_version " + fmt(sv));
  std::string kind = req_string(sec, "kind", origin, kSec);
  if (kind != "sweep") fail(origin, kSec + ": kind must be \"sweep\", got \"" + kind + "\"");
  int point = static_cast<int>(req_number(sec, "trajectory_point", origin, kSec));
  if (outer_point != 0 && point != outer_point) {
    fail(origin, kSec + ": sweep trajectory_point " + std::to_string(point) +
                     " disagrees with enclosing point " + std::to_string(outer_point) +
                     " (mixed-generation merge)");
  }
  req_string(sec, "tier", origin, kSec);
  if (req_number(sec, "repeats", origin, kSec) < 1) fail(origin, kSec + ": repeats must be >= 1");
  req_number(sec, "global_batch", origin, kSec);
  const util::JsonValue* cells_arr = sec.find("cells");
  if (!cells_arr || !cells_arr->is_array() || cells_arr->size() == 0) {
    fail(origin, kSec + ": missing non-empty \"cells\" array");
  }
  for (size_t i = 0; i < cells_arr->size(); ++i) {
    const util::JsonValue& c = cells_arr->at(i);
    std::string ctx = kSec + " cell " + std::to_string(i);
    std::string net = req_string(c, "net", origin, ctx);
    std::string link = req_string(c, "link", origin, ctx);
    std::string sched = req_string(c, "schedule", origin, ctx);
    int stages = static_cast<int>(req_number(c, "stages", origin, ctx));
    int replicas = static_cast<int>(req_number(c, "replicas", origin, ctx));
    int mb = static_cast<int>(req_number(c, "microbatches", origin, ctx));
    int pool = static_cast<int>(req_number(c, "pool_gb", origin, ctx));
    const util::JsonValue* metrics = c.find("metrics");
    if (!metrics || !metrics->is_object() || metrics->size() == 0) {
      fail(origin, ctx + ": missing non-empty \"metrics\" object");
    }
    std::map<std::string, MetricStat> m;
    for (const auto& [name, stat] : metrics->entries()) {
      std::string mctx = ctx + " metric \"" + name + "\"";
      if (!stat.is_object()) fail(origin, mctx + ": must be a {median, lo, hi, n} object");
      MetricStat s;
      s.median = req_number(stat, "median", origin, mctx);
      s.lo = req_number(stat, "lo", origin, mctx);
      s.hi = req_number(stat, "hi", origin, mctx);
      s.repeats = static_cast<int>(req_number(stat, "n", origin, mctx));
      if (s.repeats < 1) fail(origin, mctx + ": n must be >= 1");
      if (!(s.lo <= s.median && s.median <= s.hi)) {
        fail(origin, mctx + ": requires lo <= median <= hi");
      }
      if (!m.emplace(name, s).second) fail(origin, mctx + ": duplicate metric");
    }
    add_cell(cells, origin,
             kSec + "/" + net + "/" + link + "/s" + std::to_string(stages) + "r" +
                 std::to_string(replicas) + "m" + std::to_string(mb) + "/pool" +
                 std::to_string(pool) + "/" + sched,
             std::move(m));
  }
  return cells_arr->size();
}

/// Shared by load_trajectory and schema_check("trajectory").
size_t load_point(const util::JsonValue& doc, const std::string& origin, TrajectoryPoint* out) {
  if (!doc.is_object()) fail(origin, "trajectory point must be a JSON object");
  const util::JsonValue* tp = doc.find("trajectory_point");
  if (!tp || !tp->is_number()) {
    fail(origin, "not a trajectory point: missing numeric \"trajectory_point\" (raw bench "
                 "output and sweep files cannot be diffed directly — build a point with "
                 "bench/run_trajectory.sh first)");
  }
  int point = static_cast<int>(tp->as_number());
  const util::JsonValue* sv = doc.find("schema_version");
  if (!sv || !sv->is_number() || sv->as_number() != 1.0) {
    fail(origin, "schema_version must be 1 (unversioned and newer points are not understood)");
  }
  CellMap cells;
  size_t rows = 0;
  bool saw_sweep = false;
  for (const auto& [key, sec] : doc.entries()) {
    if (key == "trajectory_point" || key == "schema_version") continue;
    if (key == "stream_overlap") {
      rows += load_stream_overlap(sec, origin, &cells);
    } else if (key == "prefetch_lookahead") {
      rows += load_prefetch_lookahead(sec, origin, &cells);
    } else if (key == "sweep") {
      saw_sweep = true;
      rows += load_sweep(sec, origin, &cells, point);
    } else {
      fail(origin, "unknown section \"" + key + "\" (mixed or newer schema?)");
    }
  }
  if (!saw_sweep) fail(origin, "schema_version 1 requires a \"sweep\" section");
  if (cells.empty()) fail(origin, "trajectory point has no bench sections");
  if (out) {
    out->point = point;
    out->origin = origin;
    out->cells = std::move(cells);
  }
  return rows;
}

size_t check_chrome_trace(const util::JsonValue& doc, const std::string& origin) {
  if (!doc.is_object()) fail(origin, "chrome trace must be a JSON object");
  req_string(doc, "displayTimeUnit", origin, "trace");
  const util::JsonValue* events = doc.find("traceEvents");
  if (!events || !events->is_array() || events->size() == 0) {
    fail(origin, "trace: missing non-empty \"traceEvents\" array");
  }
  std::multiset<double> starts, finishes;
  for (size_t i = 0; i < events->size(); ++i) {
    const util::JsonValue& e = events->at(i);
    std::string ctx = "trace event " + std::to_string(i);
    req_string(e, "name", origin, ctx);
    std::string ph = req_string(e, "ph", origin, ctx);
    req_number(e, "pid", origin, ctx);
    if (ph == "s") starts.insert(req_number(e, "id", origin, ctx));
    if (ph == "f") finishes.insert(req_number(e, "id", origin, ctx));
  }
  if (starts.empty()) fail(origin, "trace: no flow-start (\"s\") events");
  if (starts != finishes) {
    fail(origin, "trace: flow-start ids do not pair with flow-finish ids (" +
                     std::to_string(starts.size()) + " s vs " + std::to_string(finishes.size()) +
                     " f)");
  }
  return events->size();
}

size_t check_metrics(const util::JsonValue& root, const std::string& origin) {
  if (!root.is_object()) fail(origin, "metrics must be a JSON object");
  // MetricsRegistry::to_json wraps the three sections in a "metrics" object.
  const util::JsonValue* inner = root.find("metrics");
  const util::JsonValue& doc = inner && inner->is_object() ? *inner : root;
  for (const char* sec : {"counters", "gauges", "histograms"}) {
    const util::JsonValue* v = doc.find(sec);
    if (!v || !v->is_object()) fail(origin, std::string("metrics: missing object \"") + sec + "\"");
  }
  const util::JsonValue& hists = doc.get("histograms");
  if (hists.size() == 0) fail(origin, "metrics: no histograms recorded");
  size_t n = 0;
  for (const auto& [name, h] : hists.entries()) {
    std::string ctx = "histogram \"" + name + "\"";
    const util::JsonValue* bounds = h.find("bounds");
    const util::JsonValue* counts = h.find("counts");
    if (!bounds || !bounds->is_array() || !counts || !counts->is_array()) {
      fail(origin, ctx + ": missing bounds/counts arrays");
    }
    if (counts->size() != bounds->size() + 1) {
      fail(origin, ctx + ": counts must have bounds+1 buckets");
    }
    req_number(h, "total", origin, ctx);
    req_number(h, "sum", origin, ctx);
    ++n;
  }
  return n + doc.get("counters").size() + doc.get("gauges").size();
}

size_t check_diff_report(const util::JsonValue& doc, const std::string& origin) {
  if (!doc.is_object()) fail(origin, "diff report must be a JSON object");
  if (req_number(doc, "schema_version", origin, "report") != 1.0) {
    fail(origin, "report: unsupported schema_version");
  }
  if (req_string(doc, "kind", origin, "report") != "trajectory_diff") {
    fail(origin, "report: kind must be \"trajectory_diff\"");
  }
  std::string status = req_string(doc, "status", origin, "report");
  if (status != "ok" && status != "regressed") fail(origin, "report: bad status");
  const util::JsonValue* counts = doc.find("counts");
  if (!counts || !counts->is_object()) fail(origin, "report: missing \"counts\" object");
  const util::JsonValue* entries = doc.find("entries");
  if (!entries || !entries->is_array()) fail(origin, "report: missing \"entries\" array");
  for (size_t i = 0; i < entries->size(); ++i) {
    const util::JsonValue& e = entries->at(i);
    std::string ctx = "report entry " + std::to_string(i);
    req_string(e, "cell", origin, ctx);
    req_string(e, "metric", origin, ctx);
    req_string(e, "class", origin, ctx);
  }
  return entries->size();
}

size_t check_trace_diff_report(const util::JsonValue& doc, const std::string& origin) {
  if (!doc.is_object()) fail(origin, "trace diff report must be a JSON object");
  if (req_number(doc, "schema_version", origin, "report") != 1.0) {
    fail(origin, "report: unsupported schema_version");
  }
  if (req_string(doc, "kind", origin, "report") != "trace_diff_report") {
    fail(origin, "report: kind must be \"trace_diff_report\"");
  }
  req_string(doc, "baseline", origin, "report");
  req_string(doc, "candidate", origin, "report");
  const util::JsonValue* spans = doc.find("spans");
  if (!spans || !spans->is_object()) fail(origin, "report: missing \"spans\" object");
  for (const char* k : {"matched", "base_only", "cand_only"}) {
    req_number(*spans, k, origin, "spans");
  }
  const util::JsonValue* total = doc.find("total");
  if (!total || !total->is_object()) fail(origin, "report: missing \"total\" object");
  for (const char* k : {"base_seconds", "cand_seconds", "delta_seconds"}) {
    req_number(*total, k, origin, "total");
  }
  const util::JsonValue* buckets = doc.find("buckets");
  if (!buckets || !buckets->is_array() || buckets->size() == 0) {
    fail(origin, "report: missing \"buckets\" array");
  }
  for (size_t i = 0; i < buckets->size(); ++i) {
    const util::JsonValue& b = buckets->at(i);
    std::string ctx = "bucket " + std::to_string(i);
    req_string(b, "bucket", origin, ctx);
    for (const char* k : {"matched", "base_seconds", "cand_seconds", "delta_seconds"}) {
      req_number(b, k, origin, ctx);
    }
  }
  const util::JsonValue* movers = doc.find("top_movers");
  if (!movers || !movers->is_array()) fail(origin, "report: missing \"top_movers\" array");
  for (size_t i = 0; i < movers->size(); ++i) {
    const util::JsonValue& m = movers->at(i);
    std::string ctx = "mover " + std::to_string(i);
    req_string(m, "bucket", origin, ctx);
    req_string(m, "name", origin, ctx);
    req_number(m, "delta_seconds", origin, ctx);
  }
  return buckets->size();
}

size_t check_cost_profile(const util::JsonValue& doc, const std::string& origin) {
  if (!doc.is_object()) fail(origin, "cost profile must be a JSON object");
  if (req_number(doc, "schema_version", origin, "profile") != 1.0) {
    fail(origin, "profile: unsupported schema_version");
  }
  if (req_string(doc, "kind", origin, "profile") != "cost_profile") {
    fail(origin, "profile: kind must be \"cost_profile\"");
  }
  auto check_stat = [&](const util::JsonValue& holder, const char* key,
                        const std::string& ctx) {
    const util::JsonValue* s = holder.find(key);
    if (!s || !s->is_object()) fail(origin, ctx + ": missing stat \"" + key + "\"");
    const double lo = req_number(*s, "lo", origin, ctx);
    const double med = req_number(*s, "median", origin, ctx);
    const double hi = req_number(*s, "hi", origin, ctx);
    req_number(*s, "n", origin, ctx);
    if (!(lo <= med && med <= hi)) fail(origin, ctx + ": requires lo <= median <= hi");
  };
  const util::JsonValue* layers = doc.find("layers");
  if (!layers || !layers->is_array()) fail(origin, "profile: missing \"layers\" array");
  for (size_t i = 0; i < layers->size(); ++i) {
    const util::JsonValue& l = layers->at(i);
    std::string ctx = "layer \"" + req_string(l, "name", origin, "layer") + "\"";
    check_stat(l, "fwd", ctx);
    check_stat(l, "bwd", ctx);
  }
  const util::JsonValue* devices = doc.find("devices");
  if (!devices || !devices->is_array()) fail(origin, "profile: missing \"devices\" array");
  for (size_t i = 0; i < devices->size(); ++i) {
    const util::JsonValue& d = devices->at(i);
    std::string ctx = "device " + std::to_string(i);
    req_number(d, "device", origin, ctx);
    req_number(d, "iterations", origin, ctx);
    for (const char* k : {"compute", "h2d", "d2h", "p2p", "collective", "stall_transfer",
                          "stall_pipeline", "stall_collective"}) {
      check_stat(d, k, ctx);
    }
  }
  if (layers->size() + devices->size() == 0) fail(origin, "profile: empty profile");
  return layers->size() + devices->size();
}

int class_rank(DeltaClass c) {
  switch (c) {
    case DeltaClass::kRegression: return 0;
    case DeltaClass::kRemoved: return 1;
    case DeltaClass::kImprovement: return 2;
    case DeltaClass::kInfoChanged: return 3;
    case DeltaClass::kAdded: return 4;
    case DeltaClass::kWithinBand: return 5;
    case DeltaClass::kUnchanged: return 6;
  }
  return 7;
}

}  // namespace

MetricKind metric_kind(const std::string& name) {
  static const char* kLower[] = {"seconds",       "bubble_frac", "serialized_s",
                                "dual_s",        "serialized_ms", "dual_ms",
                                "allreduce_exposed_seconds", "stall_seconds"};
  for (const char* k : kLower) {
    if (name == k) return MetricKind::kLowerBetter;
  }
  if (name.rfind("stall_ms", 0) == 0) return MetricKind::kLowerBetter;
  if (name == "img_per_s" || name == "overlap_ratio") return MetricKind::kHigherBetter;
  // Attribution metrics, not gates: per-directed-link occupancy fractions
  // (link_busy_frac_<src>_<dst>) and the peer-staging activity counter move
  // by design when routing changes — classify as info drift, never as a
  // regression.
  if (name.rfind("link_busy_frac", 0) == 0) return MetricKind::kInfo;
  if (name == "peer_stage_count") return MetricKind::kInfo;
  return MetricKind::kInfo;
}

const char* delta_class_name(DeltaClass c) {
  switch (c) {
    case DeltaClass::kRegression: return "REGRESSION";
    case DeltaClass::kRemoved: return "removed";
    case DeltaClass::kImprovement: return "improvement";
    case DeltaClass::kInfoChanged: return "info";
    case DeltaClass::kAdded: return "added";
    case DeltaClass::kWithinBand: return "within_band";
    case DeltaClass::kUnchanged: return "unchanged";
  }
  return "?";
}

TrajectoryPoint load_trajectory(const util::JsonValue& doc, const std::string& origin) {
  TrajectoryPoint p;
  load_point(doc, origin, &p);
  return p;
}

DiffReport diff_trajectories(const TrajectoryPoint& base, const TrajectoryPoint& cand,
                             const DiffOptions& opt) {
  DiffReport rep;
  rep.baseline_point = base.point;
  rep.candidate_point = cand.point;

  auto record = [&rep](DiffEntry e) {
    switch (e.cls) {
      case DeltaClass::kRegression: ++rep.regressions; break;
      case DeltaClass::kRemoved: ++rep.removed; break;
      case DeltaClass::kImprovement: ++rep.improvements; break;
      case DeltaClass::kInfoChanged: ++rep.info_changed; break;
      case DeltaClass::kAdded: ++rep.added; break;
      case DeltaClass::kWithinBand: ++rep.within_band; break;
      case DeltaClass::kUnchanged: ++rep.unchanged; return;  // counted, not stored
    }
    rep.entries.push_back(std::move(e));
  };

  for (const auto& [cell, base_metrics] : base.cells) {
    auto it = cand.cells.find(cell);
    if (it == cand.cells.end()) {
      record(DiffEntry{cell, "*", DeltaClass::kRemoved, 0, 0, 0, 0, 0});
      continue;
    }
    const auto& cand_metrics = it->second;
    for (const auto& [name, b] : base_metrics) {
      auto mit = cand_metrics.find(name);
      if (mit == cand_metrics.end()) {
        record(DiffEntry{cell, name, DeltaClass::kRemoved, b.median, 0, 0, 0, 0});
        continue;
      }
      const MetricStat& c = mit->second;
      DiffEntry e;
      e.cell = cell;
      e.metric = name;
      e.base = b.median;
      e.cand = c.median;
      e.delta = c.median - b.median;
      e.rel = b.median != 0.0 ? e.delta / std::fabs(b.median) : 0.0;
      MetricKind kind = metric_kind(name);
      if (kind == MetricKind::kInfo) {
        double scale = std::max({std::fabs(b.median), std::fabs(c.median), 1.0});
        e.cls = std::fabs(e.delta) <= 1e-12 * scale ? DeltaClass::kUnchanged
                                                    : DeltaClass::kInfoChanged;
        record(e);
        continue;
      }
      // Noise band: the recorded dispersion of EITHER side, with a relative
      // floor on the baseline median and an absolute floor for near-zero
      // baselines. The band is carried data — a jittery cell widens its own
      // gate; a deterministic one stays tight.
      e.band = std::max({opt.rel_band * std::fabs(b.median), b.spread(), c.spread(),
                         opt.abs_band});
      if (e.delta == 0.0) {
        e.cls = DeltaClass::kUnchanged;
      } else if (std::fabs(e.delta) <= e.band) {
        e.cls = DeltaClass::kWithinBand;
      } else {
        bool good = kind == MetricKind::kLowerBetter ? e.delta < 0.0 : e.delta > 0.0;
        e.cls = good ? DeltaClass::kImprovement : DeltaClass::kRegression;
      }
      record(e);
    }
    for (const auto& [name, c] : cand_metrics) {
      if (!base_metrics.count(name)) {
        record(DiffEntry{cell, name, DeltaClass::kAdded, 0, c.median, 0, 0, 0});
      }
    }
  }
  for (const auto& [cell, metrics] : cand.cells) {
    (void)metrics;
    if (!base.cells.count(cell)) {
      record(DiffEntry{cell, "*", DeltaClass::kAdded, 0, 0, 0, 0, 0});
    }
  }

  std::sort(rep.entries.begin(), rep.entries.end(), [](const DiffEntry& a, const DiffEntry& b) {
    int ra = class_rank(a.cls), rb = class_rank(b.cls);
    if (ra != rb) return ra < rb;
    double ma = std::fabs(a.rel), mb = std::fabs(b.rel);
    if (ma != mb) return ma > mb;
    if (a.cell != b.cell) return a.cell < b.cell;
    return a.metric < b.metric;
  });
  rep.ok = rep.regressions == 0 && (opt.allow_missing || rep.removed == 0);
  return rep;
}

std::string render_diff_table(const DiffReport& rep) {
  util::Table t({"class", "cell", "metric", "baseline", "candidate", "delta", "rel %", "band"});
  for (const DiffEntry& e : rep.entries) {
    if (e.cls == DeltaClass::kWithinBand || e.cls == DeltaClass::kUnchanged) continue;
    bool whole_cell = e.metric == "*";
    t.add_row({delta_class_name(e.cls), e.cell, e.metric,
               whole_cell ? "-" : fmt(e.base),
               whole_cell || e.cls == DeltaClass::kRemoved ? "-" : fmt(e.cand),
               e.cls == DeltaClass::kRegression || e.cls == DeltaClass::kImprovement ||
                       e.cls == DeltaClass::kInfoChanged
                   ? fmt(e.delta)
                   : "-",
               e.cls == DeltaClass::kRegression || e.cls == DeltaClass::kImprovement ||
                       e.cls == DeltaClass::kInfoChanged
                   ? fmt(100.0 * e.rel)
                   : "-",
               e.band > 0.0 ? fmt(e.band) : "-"});
  }
  std::string out;
  if (t.rows() > 0) {
    out = t.to_string();
  } else {
    out = "(no deltas outside the noise band)\n";
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "\npoint %d -> %d: %d regression(s), %d removed, %d improvement(s), %d info "
                "drift(s), %d added, %d within-band, %d unchanged\n",
                rep.baseline_point, rep.candidate_point, rep.regressions, rep.removed,
                rep.improvements, rep.info_changed, rep.added, rep.within_band, rep.unchanged);
  out += line;
  out += rep.ok ? "TRAJECTORY OK\n" : "TRAJECTORY REGRESSED\n";
  return out;
}

void write_diff_report(const DiffReport& rep, const DiffOptions& opt, util::JsonWriter& w) {
  w.begin_object();
  w.key("schema_version").value(1);
  w.key("kind").value("trajectory_diff");
  w.key("baseline_point").value(rep.baseline_point);
  w.key("candidate_point").value(rep.candidate_point);
  w.key("rel_band").value_sci(opt.rel_band, 6);
  w.key("abs_band").value_sci(opt.abs_band, 6);
  w.key("status").value(rep.ok ? "ok" : "regressed");
  w.key("counts").begin_object(util::JsonWriter::kInline);
  w.key("regressions").value(rep.regressions);
  w.key("removed").value(rep.removed);
  w.key("improvements").value(rep.improvements);
  w.key("info_changed").value(rep.info_changed);
  w.key("added").value(rep.added);
  w.key("within_band").value(rep.within_band);
  w.key("unchanged").value(rep.unchanged);
  w.end_object();
  w.key("entries").begin_array();
  for (const DiffEntry& e : rep.entries) {
    w.begin_object(util::JsonWriter::kInline);
    w.key("cell").value(e.cell);
    w.key("metric").value(e.metric);
    w.key("class").value(delta_class_name(e.cls));
    w.key("base").value_sci(e.base, 6);
    w.key("cand").value_sci(e.cand, 6);
    w.key("delta").value_sci(e.delta, 6);
    w.key("rel").value_sci(e.rel, 6);
    w.key("band").value_sci(e.band, 6);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

size_t schema_check(const util::JsonValue& doc, const std::string& kind,
                    const std::string& origin) {
  if (kind == "stream_overlap") return load_stream_overlap(doc, origin, nullptr);
  if (kind == "prefetch_lookahead") return load_prefetch_lookahead(doc, origin, nullptr);
  if (kind == "sweep") return load_sweep(doc, origin, nullptr, 0);
  if (kind == "trajectory") return load_point(doc, origin, nullptr);
  if (kind == "chrome_trace") return check_chrome_trace(doc, origin);
  if (kind == "metrics") return check_metrics(doc, origin);
  if (kind == "diff_report") return check_diff_report(doc, origin);
  if (kind == "trace_diff_report") return check_trace_diff_report(doc, origin);
  if (kind == "cost_profile") return check_cost_profile(doc, origin);
  fail(origin, "unknown schema kind \"" + kind + "\"");
}

}  // namespace sn::perf
