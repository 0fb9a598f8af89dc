#ifndef TIX_BENCH_BENCH_UTIL_H_
#define TIX_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/timer.h"

/// \file
/// Harness helpers for the table benches: flag parsing, the paper's
/// timing protocol, and row printing.

namespace tix::bench {

/// Minimal --name=value flag parsing.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_.emplace_back(arg.substr(2), "true");
      } else {
        values_.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    }
  }

  uint64_t GetInt(const std::string& name, uint64_t fallback) const {
    for (const auto& [key, value] : values_) {
      if (key == name) return std::strtoull(value.c_str(), nullptr, 10);
    }
    return fallback;
  }

  std::string GetString(const std::string& name,
                        const std::string& fallback) const {
    for (const auto& [key, value] : values_) {
      if (key == name) return value;
    }
    return fallback;
  }

 private:
  std::vector<std::pair<std::string, std::string>> values_;
};

/// Mean of non-empty `readings` without the min and max when there are
/// at least three.
inline double TrimmedMean(std::vector<double> readings) {
  if (readings.size() >= 3) {
    std::sort(readings.begin(), readings.end());
    readings.erase(readings.begin());
    readings.pop_back();
  }
  return std::accumulate(readings.begin(), readings.end(), 0.0) /
         static_cast<double>(readings.size());
}

/// The paper's protocol: run up to `runs` times, drop the lowest and
/// highest reading when >= 3 remain possible, average the rest. Long
/// runs (first reading > `skip_repeat_above` seconds) are not repeated.
inline double Measure(const std::function<Status()>& fn, int runs,
                      double skip_repeat_above = 5.0) {
  std::vector<double> readings;
  for (int i = 0; i < std::max(1, runs); ++i) {
    WallTimer timer;
    const Status status = fn();
    const double elapsed = timer.ElapsedSeconds();
    if (!status.ok()) {
      std::fprintf(stderr, "bench run failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    readings.push_back(elapsed);
    if (elapsed > skip_repeat_above) break;
  }
  return TrimmedMean(std::move(readings));
}

/// Prints one dashed separator line sized to the header.
inline void PrintRule(size_t width) {
  for (size_t i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// The machine and build a BENCH_*.json figure came from, as a JSON
/// object: visible CPUs, CPU model (Linux /proc/cpuinfo), build type
/// (CMAKE_BUILD_TYPE, compiled in) and `git describe --always --dirty`
/// of the checkout the bench runs in ("unknown" when unavailable).
inline std::string MachineFingerprintJson() {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != line.npos) {
      cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::string git = "unknown";
  if (std::FILE* pipe =
          popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buffer[128] = {};
    if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
      git = buffer;
      while (!git.empty() && (git.back() == '\n' || git.back() == '\r')) {
        git.pop_back();
      }
    }
    pclose(pipe);
  }
#ifdef TIX_BUILD_TYPE
  const std::string build_type =
      *TIX_BUILD_TYPE != '\0' ? TIX_BUILD_TYPE : "unset";
#else
  const std::string build_type = "unknown";
#endif
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + cpu_model + "\", \"build_type\": \"" +
         build_type + "\", \"git\": \"" + git + "\"}";
}

}  // namespace tix::bench

#endif  // TIX_BENCH_BENCH_UTIL_H_
