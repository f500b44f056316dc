// Fork-join parallel loop for cell-parallel execution.
//
// Every parallel experiment in this codebase runs independent cells (a probe
// run, a fleet cell, a chaos scenario, a site visit) that share no mutable
// state, so the only job here is to spread indices over worker threads and
// join. Determinism is the caller's business: core::sweep (core/sweep.h)
// collects per-index results and folds them in index order afterwards (see
// docs/PARALLELISM.md). No other code should call parallel_for directly.
#pragma once

#include <cstddef>
#include <functional>

namespace h3cdn::util {

/// Runs `fn(0..n-1)` on min(jobs, n) freshly spawned worker threads
/// (jobs == 0 means default_jobs()) and joins them. Workers claim the next
/// unclaimed index from a shared counter, so uneven cell costs balance
/// themselves. `fn` never runs on the calling thread — jobs == 1 takes the
/// same code path as any other job count. Every index runs even when one
/// throws; the first exception captured is rethrown after the join.
void parallel_for(std::size_t n, std::size_t jobs, const std::function<void(std::size_t)>& fn);

/// The default worker count: hardware_concurrency, floored at 1.
[[nodiscard]] std::size_t default_jobs();

}  // namespace h3cdn::util
