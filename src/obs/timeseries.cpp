#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/status.hpp"
#include "support/string_util.hpp"

namespace psra::obs {

void TimeSeries::Append(double v) {
  const std::size_t slot = size_ % TimeSeriesRecorder::kChunkSamples;
  if (slot == 0) {
    PSRA_CHECK(owner_ != nullptr, "append on a detached TimeSeries");
    chunks_.push_back(owner_->Lease());
  }
  chunks_.back()[slot] = v;
  ++size_;
}

double TimeSeries::operator[](std::size_t i) const {
  PSRA_REQUIRE(i < size_, "TimeSeries index out of range: " + name_);
  return chunks_[i / TimeSeriesRecorder::kChunkSamples]
                [i % TimeSeriesRecorder::kChunkSamples];
}

double* TimeSeriesRecorder::Lease() {
  if (!free_.empty()) {
    double* chunk = free_.back();
    free_.pop_back();
    return chunk;
  }
  owned_.push_back(std::make_unique<Chunk>());
  return owned_.back()->v;
}

TimeSeries& TimeSeriesRecorder::Series(const std::string& name) {
  PSRA_REQUIRE(name.rfind("ts.", 0) == 0 && name.size() > 3,
               "time-series names live under the ts. namespace: " + name);
  auto [it, inserted] = series_.try_emplace(name);
  if (inserted) {
    it->second.owner_ = this;
    it->second.name_ = name;
  }
  return it->second;
}

const TimeSeries* TimeSeriesRecorder::Find(const std::string& name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

void TimeSeriesRecorder::BeginIteration(std::uint64_t iteration) {
  if (iterations_.owner_ == nullptr) {
    iterations_.owner_ = this;
    iterations_.name_ = "ts.<iterations>";
  }
  iterations_.Append(static_cast<double>(iteration));
}

std::uint64_t TimeSeriesRecorder::IterationAt(std::size_t r) const {
  return static_cast<std::uint64_t>(iterations_[r]);
}

void TimeSeriesRecorder::Clear() {
  for (auto& [name, s] : series_) {
    for (double* chunk : s.chunks_) free_.push_back(chunk);
  }
  series_.clear();
  for (double* chunk : iterations_.chunks_) free_.push_back(chunk);
  iterations_.chunks_.clear();
  iterations_.size_ = 0;
}

void TimeSeriesRecorder::MergeFrom(const TimeSeriesRecorder& other) {
  for (std::size_t r = 0; r < other.rows(); ++r) {
    BeginIteration(other.IterationAt(r));
  }
  for (const auto& [name, src] : other.series_) {
    TimeSeries& dst = Series(name);
    for (std::size_t i = 0; i < src.size(); ++i) dst.Append(src[i]);
  }
}

namespace {

void WriteSample(std::ostream& os, double v) {
  // JSON has no NaN/Inf; a diverged sample round-trips as null -> NaN.
  if (std::isfinite(v)) {
    os << FormatDouble(v, 17);
  } else {
    os << "null";
  }
}

}  // namespace

void TimeSeriesRecorder::WriteJsonl(std::ostream& os) const {
  os << "{\"psra_timeline\": 1, \"series\": [";
  bool first = true;
  for (const auto& [name, s] : series_) {
    PSRA_REQUIRE(s.size() == rows(),
                 "ragged timeline: " + name + " has " +
                     std::to_string(s.size()) + " samples over " +
                     std::to_string(rows()) + " rows");
    os << (first ? "" : ", ");
    json::WriteString(os, name);
    first = false;
  }
  os << "]}\n";
  for (std::size_t r = 0; r < rows(); ++r) {
    os << "{\"it\": " << IterationAt(r) << ", \"v\": [";
    bool first_col = true;
    for (const auto& [name, s] : series_) {
      if (!first_col) os << ", ";
      WriteSample(os, s[r]);
      first_col = false;
    }
    os << "]}\n";
  }
}

void TimeSeriesRecorder::PublishSummary(MetricsRegistry& m) const {
  for (const auto& [name, s] : series_) {
    m.Gauge(name + ".samples") = static_cast<double>(s.size());
    if (s.empty()) continue;
    double lo = s[0], hi = s[0];
    for (std::size_t i = 1; i < s.size(); ++i) {
      lo = std::min(lo, s[i]);
      hi = std::max(hi, s[i]);
    }
    m.Gauge(name + ".first") = s.front();
    m.Gauge(name + ".last") = s.back();
    m.Gauge(name + ".min") = lo;
    m.Gauge(name + ".max") = hi;
  }
}

std::uint64_t TimeSeriesRecorder::FirstIterationAtOrBelow(
    const std::string& name, double value) const {
  const TimeSeries* s = Find(name);
  if (s == nullptr) return 0;
  const std::size_t n = std::min(s->size(), rows());
  for (std::size_t r = 0; r < n; ++r) {
    if ((*s)[r] <= value) return IterationAt(r);
  }
  return 0;
}

}  // namespace psra::obs
