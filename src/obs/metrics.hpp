// MetricsRegistry: named counters / gauges / fixed-bucket histograms with a
// single JSON export path (util::JsonWriter) shared with the trace exporter
// and the benches. Deterministic by construction: names iterate in sorted
// (std::map) order and histogram bucket boundaries are fixed at creation, so
// two identical runs serialize byte-identically (pinned by test_trace).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sn::util {
class JsonWriter;
}

namespace sn::obs {

/// Fixed-boundary histogram: bucket i counts values in [bounds[i-1],
/// bounds[i]); the final bucket is the overflow [bounds.back(), inf).
struct Histogram {
  std::vector<double> bounds;    ///< ascending upper bounds
  std::vector<uint64_t> counts;  ///< size bounds.size() + 1
  uint64_t total = 0;
  double sum = 0.0;

  void observe(double v);
};

class MetricsRegistry {
 public:
  void counter_add(const std::string& name, uint64_t delta);
  void gauge_set(const std::string& name, double value);
  /// Creates the histogram on first use; later calls with different bounds
  /// keep the original boundaries (fixed-bucket contract).
  void histogram_observe(const std::string& name, const std::vector<double>& bounds, double v);

  uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const Histogram* histogram(const std::string& name) const;

  void clear();

  /// Append `"metrics": {...}` content as one object value. The caller has
  /// already positioned the writer (after a key() or at top level).
  void write_json(util::JsonWriter& w) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace sn::obs
