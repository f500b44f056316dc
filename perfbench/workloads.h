// The benchmark's workloads. Each builds its inputs from the seed,
// runs one fixed batch of simulator work per pass through the simulator's
// public API, and checks the outputs: seed-independent invariants, a digest
// of the canonical outputs compared against the committed reference for the
// default seed, and a perturbation self-test (one visit dropped) that the
// check must reject.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct RunEnv {
  std::uint64_t seed = 1;
  std::string scratch_dir;                           // artifacts, traces
  std::map<std::string, std::string> reference;      // "<workload> <seed>" -> digest
  bool perturb = false;  // drop one visit from the real output (check must fail)
};

/// One timed call of the workload plus the check of its outputs.
struct PassResult {
  double wall_s = 0.0;          // the timed call only
  std::uint64_t visits = 0;     // page visits attempted
  std::uint64_t failed = 0;     // visits that failed (root document failed)
  std::string digest;           // hex digest of the canonical outputs
  std::vector<std::string> errors;  // check failures; empty = correct
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds and discards the inputs once (workload generation and the
  /// validated study config); returns the seconds it took.
  virtual double setup_sample() = 0;

  /// Untraced pass: set-up (not timed), the timed call, then the check.
  /// `full_check` runs the invariants, reference comparison and self-test;
  /// otherwise only the digest is computed (callers compare it).
  virtual PassResult run_pass(bool full_check) = 0;

  /// Traced run: an untraced pass (U), a traced pass with spans around every
  /// call into a simulator layer (T), and T's visits again with the
  /// observability sink flipped (O). Fills `layer` (per-layer metric name ->
  /// value) and returns the check of T, which must reproduce U's digest.
  virtual PassResult traced_run(Tracer& tracer, std::map<std::string, double>& layer) = 0;
};

/// Null for an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name, const RunEnv& env);

/// Names accepted by make_workload, in documentation order.
const std::vector<std::string>& workload_names();

}  // namespace perfbench
