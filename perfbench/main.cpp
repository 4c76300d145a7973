// perfbench: the repository's benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Prints three JSON lines on stdout: provenance, details, and last the
// result object {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds this binary, checks the metric set against BENCHMARK.json and
// relays the lines. Exits non-zero, without a result line, on any error.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Value of `-<key>=...` in the compile flags, or `fallback`.
std::string FlagValue(const std::string& flags, const std::string& key,
                      const std::string& fallback) {
  const std::string needle = "-" + key + "=";
  const auto pos = flags.find(needle);
  if (pos == std::string::npos) return fallback;
  const auto begin = pos + needle.size();
  return flags.substr(begin, flags.find(' ', begin) - begin);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintProvenance(const Args& args) {
  const std::string flags = PERFBENCH_CXX_FLAGS;
  std::cout << "{\"provenance\": {\"compiler\": " << JsonString(PERFBENCH_COMPILER)
            << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
            << ", \"cxx_flags\": " << JsonString(flags)
            << ", \"march\": " << JsonString(FlagValue(flags, "march", "unset"))
            << ", \"fp_contract\": "
            << JsonString(FlagValue(flags, "ffp-contract",
                                    "unset (compiler default)"))
            << ", \"cpu_model\": " << JsonString(CpuModel())
            << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"pool_threads\": " << PoolThreads()
            << ", \"workload\": " << JsonString(args.workload)
            << ", \"seed\": " << args.seed
            << ", \"seconds\": " << JsonNumber(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0) << "}}\n";
}

void PrintResult(const Result& r) {
  std::cout << "{\"details\": {";
  bool first = true;
  for (const auto& [k, v] : r.notes) {
    std::cout << (first ? "" : ", ") << JsonString(k) << ": " << JsonString(v);
    first = false;
  }
  std::cout << "}}\n";
  std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : r.metrics) {
    std::cout << (first ? "" : ", ") << JsonString(name)
              << ": {\"value\": " << JsonNumber(m.value)
              << ", \"unit\": " << JsonString(m.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::runtime_error("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) {
    throw std::runtime_error("--seconds must be in (0, 120]");
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const SimWorkload* w = FindSimWorkload(args.workload);
  if (w == nullptr) throw std::runtime_error("unknown workload " + args.workload);
  PrintProvenance(args);
  std::cout.flush();
  const Result r = args.trace ? RunTracedPass(*w, args) : RunEndToEnd(*w, args);
  for (const auto& why : r.failures) {
    std::cerr << "perfbench: failed: " << why << "\n";
  }
  PrintResult(r);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
