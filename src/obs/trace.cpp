#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>

#include "obs/json.hpp"
#include "support/status.hpp"

namespace psra::obs {

TrackId SpanTracer::AddTrack(std::string name) {
  tracks_.push_back(Track{std::move(name), {}});
  return static_cast<TrackId>(tracks_.size() - 1);
}

void SpanTracer::Add(TrackId track, const char* name,
                     simnet::VirtualTime begin, simnet::VirtualTime end,
                     std::uint64_t iteration, double wall_s) {
  Add(track, name, begin, end, iteration, wall_s, -1, 0);
}

void SpanTracer::Add(TrackId track, const char* name,
                     simnet::VirtualTime begin, simnet::VirtualTime end,
                     std::uint64_t iteration, double wall_s, std::int64_t peer,
                     std::uint64_t tag) {
  PSRA_REQUIRE(track < tracks_.size(), "unknown trace track");
  TraceSpan s;
  s.name = name;
  s.begin = begin;
  s.end = std::max(begin, end);
  s.iteration = iteration;
  s.wall_s = wall_s;
  s.peer = peer;
  s.tag = tag;
  tracks_[track].spans.push_back(s);
}

double SpanTracer::Coverage(TrackId track, simnet::VirtualTime horizon) const {
  PSRA_REQUIRE(track < tracks_.size(), "unknown trace track");
  if (horizon <= 0.0) return 1.0;
  // Union of (possibly nested/overlapping) intervals via sorted sweep.
  std::vector<std::pair<simnet::VirtualTime, simnet::VirtualTime>> iv;
  iv.reserve(tracks_[track].spans.size());
  for (const auto& s : tracks_[track].spans) {
    if (s.end > s.begin) iv.emplace_back(s.begin, std::min(s.end, horizon));
  }
  std::sort(iv.begin(), iv.end());
  simnet::VirtualTime covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
  for (const auto& [lo, hi] : iv) {
    if (hi <= cur_hi) continue;
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      cur_lo = lo;
    }
    cur_hi = hi;
  }
  if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
  return covered / horizon;
}

void SpanTracer::WriteChromeJson(std::ostream& os) const {
  os << "{\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    os << (first ? "  " : ",\n  ");
    first = false;
  };
  sep();
  os << R"({"ph": "M", "name": "process_name", "pid": 0, "tid": 0, )"
     << R"("args": {"name": "psra virtual time"}})";
  for (TrackId t = 0; t < tracks_.size(); ++t) {
    sep();
    json::WriteTrackRecords(os, 0, t, tracks_[t].name);
  }
  for (TrackId t = 0; t < tracks_.size(); ++t) {
    for (const auto& s : tracks_[t].spans) {
      sep();
      json::WriteSpanEvent(os, s.name, "vt", 0, t, s.begin, s.end - s.begin,
                           s.iteration, s.wall_s, s.peer, s.tag);
    }
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace psra::obs
