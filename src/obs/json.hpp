// JSON for the observability artifacts: one validating parser, a key-path
// walk, and the writer primitives the hand-rolled writers share.
//
// trace.json, metrics.json, the timeline JSONL and the wire payloads are
// written by hand (metrics.cpp, trace.cpp, timeseries.cpp, wire.cpp) and
// read back by tools/psra_report, tools/check_metrics_schema, the wire
// collection plane and the tests. Parse() is one recursive-descent pass
// that validates the text and builds a Value tree as it goes; malformed
// input, and nesting deeper than 256 levels, throw InvalidArgument naming
// the byte offset. KeyPaths() lists every object key as a dotted path, so a
// schema can be checked against the emitted key set.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace psra::obs::json {

/// Materialized JSON value. Objects keep insertion order (the writers emit
/// sorted keys, and golden-file tests depend on stable iteration), arrays
/// keep element order. Numbers are doubles — every number the observability
/// writers emit round-trips through FormatDouble, so double is lossless for
/// this use.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> items;                             // kArray
  std::vector<std::pair<std::string, Value>> members;   // kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Looks up an object member by key; null when absent or not an object.
  const Value* Find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses `text` as one JSON value plus surrounding whitespace. Throws
/// InvalidArgument("malformed JSON: <what> at offset <n>") on malformed
/// input or nesting deeper than 256 levels. The grammar is slightly looser
/// than RFC 8259: numbers may lead with '+' and need one digit before the
/// exponent, on either side of the point (".5", "1."), and one after an
/// exponent marker; strings may hold raw control characters, \u escapes
/// decode to '?', and duplicate keys are kept.
Value Parse(std::string_view text);

/// Every object key under `v` as a dotted path, in document order, each key
/// before the keys nested in its value: {"counters":{"engine.iterations":1}}
/// yields "counters", "counters.engine.iterations". Array elements extend
/// their array's path with no index.
std::vector<std::string> KeyPaths(const Value& v);

/// Writes `s` as a JSON string: quoted, with '"' and '\' escaped. The
/// writers' names hold no control characters, so nothing else is escaped.
void WriteString(std::ostream& os, std::string_view s);

/// The two Chrome trace metadata records of one track: thread_name, then
/// thread_sort_index pinning the track to position `tid`, joined by the
/// trace writers' ",\n  " separator.
void WriteTrackRecords(std::ostream& os, std::uint64_t pid, std::uint64_t tid,
                       std::string_view name);

/// One Chrome trace complete event ("ph": "X"). Times are seconds and are
/// written as trace microseconds; the peer/tag args appear only when
/// peer >= 0.
void WriteSpanEvent(std::ostream& os, std::string_view name,
                    std::string_view cat, std::uint64_t pid, std::uint64_t tid,
                    double begin_s, double dur_s, std::uint64_t iteration,
                    double wall_s, std::int64_t peer, std::uint64_t tag);

}  // namespace psra::obs::json
