#include "host.h"

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

HostFingerprint host_fingerprint() {
  HostFingerprint fp;
  fp.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) fp.cpu_model = line.substr(colon + 2);
      break;
    }
  }
#if defined(__clang__)
  fp.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = "g++ " __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.build_type = PERFBENCH_BUILD_TYPE;
  return fp;
}

double memory_latency_ns() {
  // One random cycle over 2M slots of 8 bytes (16 MiB, past the last-level
  // cache), built from a fixed LCG so every run chases the same chain.
  constexpr std::size_t kSlots = std::size_t{1} << 21;
  constexpr std::size_t kSteps = std::size_t{1} << 21;
  std::vector<std::uint64_t> order(kSlots);
  std::iota(order.begin(), order.end(), 0);
  std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(order[i], order[(lcg >> 17) % (i + 1)]);
  }
  std::vector<std::uint64_t> next(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) next[order[i]] = order[(i + 1) % kSlots];

  std::uint64_t at = order[0];
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kSteps; ++i) at = next[at];
  const double ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start).count();
  // Keep the chase observable so it cannot be elided.
  volatile std::uint64_t sink = at;
  (void)sink;
  return ns / static_cast<double>(kSteps);
}

double reference_kernel_s() {
  constexpr int kEntries = 20000;
  const auto start = std::chrono::steady_clock::now();
  std::map<std::string, std::vector<int>> table;
  std::uint64_t lcg = 7;
  for (int i = 0; i < kEntries; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    std::string key = "site-" + std::to_string(lcg >> 40) + ".example.com/resource/" +
                      std::to_string(i);
    table[std::move(key)].push_back(i);
  }
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  volatile std::size_t sink = table.size();
  (void)sink;
  return s;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench
