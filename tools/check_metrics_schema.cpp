// Schema gate for metrics.json artifacts.
//
//   check_metrics_schema <schema.txt> <metrics.json>
//
// The schema file lists one dotted key pattern per line ('#' starts a
// comment). A '*' segment matches exactly one key segment, so
// `counters.comm.allreduce.*.bytes` covers every collective. Two checks:
//
//   1. Every key emitted in metrics.json must match some pattern — an
//      unknown or renamed metric fails the gate, so dashboards built on the
//      published names cannot rot silently.
//   2. Patterns prefixed with '!' are required: at least one emitted key
//      must match, so silently dropping a core metric also fails.
//
// Histogram objects carry fixed sub-keys (bounds/counts/count/sum); those
// are accepted automatically under any matching `histograms.` pattern.
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace {

std::vector<std::string> SplitSegments(std::string_view key) {
  std::vector<std::string> segs;
  std::string cur;
  for (const char c : key) {
    if (c == '.') {
      segs.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  segs.push_back(cur);
  return segs;
}

bool Matches(const std::vector<std::string>& pattern,
             const std::vector<std::string>& key) {
  if (pattern.size() != key.size()) return false;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] != "*" && pattern[i] != key[i]) return false;
  }
  return true;
}

bool IsHistogramSubKey(std::string_view key) {
  if (key.rfind("histograms.", 0) != 0) return false;
  return key.ends_with(".bounds") || key.ends_with(".counts") ||
         key.ends_with(".count") || key.ends_with(".sum");
}

std::string StripLastSegment(const std::string& key) {
  return key.substr(0, key.rfind('.'));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: check_metrics_schema <schema.txt> <metrics.json>\n";
    return 2;
  }

  std::ifstream schema_in(argv[1]);
  if (!schema_in) {
    std::cerr << "cannot open schema file: " << argv[1] << "\n";
    return 2;
  }
  struct Pattern {
    std::string text;
    std::vector<std::string> segments;
    bool required = false;
    bool hit = false;
  };
  std::vector<Pattern> patterns;
  for (std::string line; std::getline(schema_in, line);) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r')) {
      line.pop_back();
    }
    std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    Pattern p;
    p.required = line[start] == '!';
    if (p.required) ++start;
    p.text = line.substr(start);
    p.segments = SplitSegments(p.text);
    patterns.push_back(std::move(p));
  }

  std::ifstream metrics_in(argv[2]);
  if (!metrics_in) {
    std::cerr << "cannot open metrics file: " << argv[2] << "\n";
    return 2;
  }
  std::ostringstream buf;
  buf << metrics_in.rdbuf();
  const std::string text = buf.str();

  std::vector<std::string> keys;
  try {
    keys = psra::obs::json::KeyPaths(psra::obs::json::Parse(text));
  } catch (const std::exception& e) {
    std::cerr << argv[2] << ": " << e.what() << "\n";
    return 1;
  }

  int failures = 0;
  for (const std::string& raw_key : keys) {
    if (raw_key == "counters" || raw_key == "gauges" ||
        raw_key == "histograms") {
      continue;
    }
    const std::string key =
        IsHistogramSubKey(raw_key) ? StripLastSegment(raw_key) : raw_key;
    const auto segs = SplitSegments(key);
    bool matched = false;
    for (auto& p : patterns) {
      if (Matches(p.segments, segs)) {
        p.hit = true;
        matched = true;
      }
    }
    if (!matched) {
      std::cerr << "unknown metric key (not in schema): " << key << "\n";
      ++failures;
    }
  }
  for (const auto& p : patterns) {
    if (p.required && !p.hit) {
      std::cerr << "required metric missing from output: " << p.text << "\n";
      ++failures;
    }
  }
  if (failures != 0) {
    std::cerr << failures << " schema violation(s) in " << argv[2] << "\n";
    return 1;
  }
  std::cout << "metrics schema OK: " << keys.size()
            << " keys validated against " << patterns.size()
            << " patterns\n";
  return 0;
}
