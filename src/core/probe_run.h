// ProbeRunTask: one self-contained shard of a measurement study.
//
// A shard is one (vantage, probe, mode) browser run — the unit the paper's
// methodology makes independent by construction: it owns its Simulator, its
// Environment (paths, edge caches, DNS cache), its TLS session-ticket store,
// its Rng fork, and (when observability is on) its own metrics registry,
// profiler, trace aggregator and waterfall sink. Nothing mutable is shared
// with any other shard, so shards can execute on any thread in any order;
// the study merges shard results in canonical shard order afterwards, which
// keeps every output byte-identical for any --jobs value. The determinism
// contract is spelled out in docs/PARALLELISM.md.
#pragma once

#include <memory>
#include <vector>

#include "browser/environment.h"
#include "core/observability.h"
#include "core/study.h"

namespace h3cdn::core {

/// Inputs of one shard. Everything is copied or shared-immutable: `config`
/// and `workload` must outlive run() but are only read.
struct ProbeRunTask {
  const StudyConfig* config = nullptr;
  std::shared_ptr<const web::Workload> workload;
  browser::VantageConfig vantage;  // base vantage (loss/salt applied in run())
  int probe = 0;
  bool h3_enabled = false;
  std::size_t site_count = 0;

  /// Executes the shard on the calling thread and returns its visits in site
  /// order. `sink` is the shard's observability slice (null when
  /// observability is off); core::sweep has already installed its metrics,
  /// timeline and profiler on this thread, and run() adds the shard's traces
  /// and waterfalls to it.
  [[nodiscard]] std::vector<PageVisitRecord> run(RunObservability* sink) const;
};

}  // namespace h3cdn::core
