#include "obs/metrics.hpp"

#include <algorithm>

#include "util/json_writer.hpp"

namespace sn::obs {

void Histogram::observe(double v) {
  size_t i = std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin();
  counts[i]++;
  total++;
  sum += v;
}

void MetricsRegistry::counter_add(const std::string& name, uint64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::gauge_set(const std::string& name, double value) {
  gauges_[name] = value;
}

void MetricsRegistry::histogram_observe(const std::string& name,
                                        const std::vector<double>& bounds, double v) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    Histogram h;
    h.bounds = bounds;
    h.counts.assign(bounds.size() + 1, 0);
    it = histograms_.emplace(name, std::move(h)).first;
  }
  it->second.observe(v);
}

uint64_t MetricsRegistry::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const Histogram* MetricsRegistry::histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, v] : counters_) w.key(name).value(v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : gauges_) w.key(name).value_sci(v, 9);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name).begin_object();
    w.key("bounds").begin_array(util::JsonWriter::kInline);
    for (double b : h.bounds) w.value_sci(b, 6);
    w.end_array();
    w.key("counts").begin_array(util::JsonWriter::kInline);
    for (uint64_t c : h.counts) w.value(c);
    w.end_array();
    w.key("total").value(h.total);
    w.key("sum").value_sci(h.sum, 9);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace sn::obs
