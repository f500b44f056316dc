// core::sweep — the one engine every parallel experiment runs its cells through.
//
// The paper's methodology makes every (vantage, probe, mode) visit
// independent (§III); the study, the resilience and topology sweeps, the
// chaos suite and the load sweep all exploit that the same way. A caller
// describes one cell as `cell(i, slice)` and sweep() does the rest:
//
//   1. runs cells 0..cells-1 on util::parallel_for workers (jobs == 0 means
//      hardware concurrency, capped at `cells`; jobs == 1 is the same path);
//   2. when `run_sink` is set, gives each cell its own observability slice,
//      RunObservability(run_sink->config().per_shard(cells)), and installs
//      the slice's metrics registry, timeline and profiler thread-locally for
//      the duration of the cell; without a sink the cell runs with nothing
//      installed and `slice` is null;
//   3. once every cell has finished, folds the slices into `run_sink` with
//      merge_from in cell-index order, and returns the cell results in
//      cell-index order.
//
// Step 3 is the determinism rule ("merge in canonical order"), and this is
// the only place it lives: no artifact depends on which worker ran which
// cell or in what order cells finished. See docs/PARALLELISM.md.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/observability.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeline.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace h3cdn::core {

/// Runs `cell(i, slice)` for every i in [0, cells) and returns the results
/// in index order. The result type must be default-constructible. Rethrows
/// the first exception a cell threw (after every cell has run; nothing is
/// folded into `run_sink` then).
template <typename Cell>
auto sweep(std::size_t cells, int jobs, RunObservability* run_sink, Cell&& cell)
    -> std::vector<std::invoke_result_t<Cell&, std::size_t, RunObservability*>> {
  using Result = std::invoke_result_t<Cell&, std::size_t, RunObservability*>;
  // Workers write results[i] concurrently; std::vector<bool> packs its
  // elements into shared words, so neighbouring writes would race.
  static_assert(!std::is_same_v<Result, bool>, "return a wider type than bool");
  H3CDN_EXPECTS(jobs >= 0);
  std::vector<Result> results(cells);
  std::vector<std::unique_ptr<RunObservability>> slices(cells);
  const ObservabilityConfig slice_config =
      run_sink != nullptr ? run_sink->config().per_shard(cells) : ObservabilityConfig{};

  util::parallel_for(cells, static_cast<std::size_t>(jobs), [&](std::size_t i) {
    if (run_sink != nullptr) slices[i] = std::make_unique<RunObservability>(slice_config);
    RunObservability* slice = slices[i].get();
    obs::ScopedMetrics scoped_metrics(slice != nullptr ? &slice->metrics() : nullptr);
    obs::ScopedTimeline scoped_timeline(slice != nullptr ? &slice->timeline() : nullptr);
    obs::ScopedProfiler scoped_profiler(slice != nullptr ? &slice->profiler() : nullptr);
    results[i] = cell(i, slice);
  });

  if (run_sink != nullptr) {
    for (std::unique_ptr<RunObservability>& slice : slices) run_sink->merge_from(std::move(*slice));
  }
  return results;
}

}  // namespace h3cdn::core
