#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "obs/json.hpp"
#include "support/status.hpp"
#include "support/string_util.hpp"

namespace psra::obs {

void Histogram::Observe(double value) {
  ++count;
  sum += value;
  for (std::size_t b = 0; b < bounds.size(); ++b) {
    if (value <= bounds[b]) {
      ++counts[b];
      return;
    }
  }
  ++counts.back();  // overflow bucket
}

void Histogram::Merge(const Histogram& other) {
  PSRA_REQUIRE(bounds == other.bounds,
               "histogram merge requires identical bucket bounds");
  for (std::size_t b = 0; b < counts.size(); ++b) counts[b] += other.counts[b];
  count += other.count;
  sum += other.sum;
}

std::uint64_t& MetricsRegistry::Counter(const std::string& name) {
  return counters_[name];
}

double& MetricsRegistry::Gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::Histo(const std::string& name,
                                  std::span<const double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  PSRA_REQUIRE(!bounds.empty() && std::is_sorted(bounds.begin(), bounds.end()),
               "histogram bounds must be non-empty and ascending");
  Histogram h;
  h.bounds.assign(bounds.begin(), bounds.end());
  h.counts.assign(bounds.size() + 1, 0);
  return histograms_.emplace(name, std::move(h)).first->second;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, v] : other.gauges_) gauges_[name] = v;
  for (const auto& [name, h] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
    } else {
      it->second.Merge(h);
    }
  }
}

namespace {

void WriteNumber(std::ostream& os, double v) {
  os << FormatDouble(v, 17);
}

}  // namespace

void MetricsRegistry::WriteJson(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    os << (first ? "\n    " : ",\n    ");
    json::WriteString(os, name);
    os << ": " << v;
    first = false;
  }
  os << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges_) {
    os << (first ? "\n    " : ",\n    ");
    json::WriteString(os, name);
    os << ": ";
    WriteNumber(os, v);
    first = false;
  }
  os << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n    " : ",\n    ");
    json::WriteString(os, name);
    os << ": {\"bounds\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b != 0) os << ", ";
      WriteNumber(os, h.bounds[b]);
    }
    os << "], \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b != 0) os << ", ";
      os << h.counts[b];
    }
    os << "], \"count\": " << h.count << ", \"sum\": ";
    WriteNumber(os, h.sum);
    os << "}";
    first = false;
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
}

}  // namespace psra::obs
