// Host diagnostics printed beside every run's metrics: a fingerprint of the
// machine and build, and a fixed memory-latency reference kernel timed before
// and after the workload. The simulator's wall-clock drift on shared hosts
// tracks memory-subsystem contention, so the kernel lets a reader tell a slow
// host phase from a slow program.
//
// The host-speed reference kernel is the one exception that feeds a metric:
// setup_s divides each set-up by the kernel timed right before it (see
// main.cpp and README.md).
#pragma once

#include <string>

namespace perfbench {

struct HostFingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
};

HostFingerprint host_fingerprint();

/// Mean latency (ns) of one dependent load in a fixed 16 MiB pointer chase.
double memory_latency_ns();

/// Seconds of one run of a fixed host-speed reference kernel: about 10 ms
/// of string building, ordered-map inserts and small vector growth, the same
/// allocation- and cache-bound mix as workload generation. The kernel is the
/// benchmark's own code, so a change to the simulator never moves it.
double reference_kernel_s();

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb();

}  // namespace perfbench
