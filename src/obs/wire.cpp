#include "obs/wire.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/json.hpp"
#include "support/status.hpp"
#include "support/string_util.hpp"

namespace psra::obs {

std::span<const double> WireLatencyBounds() {
  static constexpr std::array<double, 7> kBounds = {1e-6, 1e-5, 1e-4, 1e-3,
                                                    1e-2, 1e-1, 1.0};
  return kBounds;
}

WireObs::WireObs(std::uint32_t rank)
    : rank_(rank),
      epoch_(std::chrono::steady_clock::now()),
      track_(tracer_.AddTrack("rank " + std::to_string(rank))) {}

double WireObs::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::string WireObs::RankKey(std::string_view suffix) const {
  std::string key = "wire.rank" + std::to_string(rank_) + ".";
  key.append(suffix);
  return key;
}

std::string SerializeWireObs(const WireObs& obs) {
  std::ostringstream os;
  os << "{\"rank\": " << obs.rank()
     << ", \"clock_offset_s\": " << FormatDouble(obs.clock_offset_s, 17)
     << ",\n\"metrics\": ";
  obs.metrics().WriteJson(os);
  os << ",\n\"trace\": ";
  obs.tracer().WriteChromeJson(os);
  os << "}\n";
  return std::move(os).str();
}

RankObsPayload ParseWireObsPayload(std::string_view text) {
  const json::Value root = json::Parse(text);
  PSRA_REQUIRE(root.is_object(), "wire obs payload is not a JSON object");
  const json::Value* rank = root.Find("rank");
  PSRA_REQUIRE(rank != nullptr && rank->is_number() && rank->number >= 0,
               "wire obs payload has no rank");
  const json::Value* metrics = root.Find("metrics");
  PSRA_REQUIRE(metrics != nullptr && metrics->is_object(),
               "wire obs payload has no metrics object");
  const json::Value* trace = root.Find("trace");
  PSRA_REQUIRE(trace != nullptr && trace->is_object(),
               "wire obs payload has no trace object");
  RankObsPayload payload;
  payload.rank = static_cast<std::uint32_t>(rank->number);
  if (const json::Value* off = root.Find("clock_offset_s");
      off != nullptr && off->is_number()) {
    payload.clock_offset_s = off->number;
  }
  payload.metrics = MetricsFromJson(*metrics);
  payload.trace = LoadChromeTrace(*trace);
  return payload;
}

void WriteMergedWireTrace(std::span<const RankObsPayload> ranks,
                          std::ostream& os) {
  // Stable lane order: ranks ascending, regardless of arrival order.
  std::vector<const RankObsPayload*> order;
  order.reserve(ranks.size());
  for (const RankObsPayload& p : ranks) order.push_back(&p);
  std::sort(order.begin(), order.end(),
            [](const RankObsPayload* a, const RankObsPayload* b) {
              return a->rank < b->rank;
            });

  os << "{\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    os << (first ? "  " : ",\n  ");
    first = false;
  };
  // Globally unique tids: LoadChromeTrace keys tracks by tid alone, so two
  // ranks must never share one even though their pids differ.
  std::uint64_t next_tid = 0;
  for (const RankObsPayload* p : order) {
    const std::uint64_t pid = p->rank;
    sep();
    os << R"({"ph": "M", "name": "process_name", "pid": )" << pid
       << R"(, "tid": 0, "args": {"name": "rank )" << p->rank << "\"}}";
    sep();
    os << R"({"ph": "M", "name": "process_sort_index", "pid": )" << pid
       << R"(, "tid": 0, "args": {"sort_index": )" << p->rank << "}}";
    for (const ReportTrack& track : p->trace.tracks) {
      const std::uint64_t tid = next_tid++;
      sep();
      json::WriteTrackRecords(os, pid, tid, track.name);
      for (const ReportSpan& s : track.spans) {
        // Align onto rank 0's time base; the clamp keeps an overestimated
        // offset from producing negative timestamps (which trace viewers
        // silently drop).
        const double begin = std::max(0.0, s.begin - p->clock_offset_s);
        sep();
        json::WriteSpanEvent(os, s.name, "wire", pid, tid, begin,
                             s.end - s.begin, s.iteration, s.wall_s, s.peer,
                             s.tag);
      }
    }
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace psra::obs
