// core::sweep: index-ordered results and observability fold whatever order
// cells finish in, slice quotas, sink installation, exceptions, job counts.
#include "core/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/observability.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeline.h"

namespace h3cdn::core {
namespace {

std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(Sweep, ResultsAndFoldFollowIndexOrderWhenCellsFinishInReverse) {
  constexpr std::size_t kCells = 4;
  RunObservability run_sink;
  // Cell i may only finish once every cell above it has: with one worker per
  // cell, the cells complete in exactly reverse index order.
  std::atomic<std::size_t> next_to_finish{kCells - 1};
  std::mutex order_mutex;
  std::vector<std::size_t> finish_order;

  const std::vector<std::size_t> results =
      sweep(kCells, static_cast<int>(kCells), &run_sink,
            [&](std::size_t i, RunObservability* slice) {
              obs::gauge_set("sweep.cell", static_cast<double>(i));
              obs::count("sweep.cells");
              obs::tl_gauge_set("sweep.cell", TimePoint{0}, static_cast<double>(i));
              obs::tl_count("sweep.cells", TimePoint{0});
              obs::Waterfall wf;
              wf.site = "cell" + std::to_string(i);
              slice->add_waterfall(std::move(wf));
              (void)slice->make_bus_trace("cell" + std::to_string(i));
              while (next_to_finish.load() != i) std::this_thread::yield();
              {
                const std::lock_guard<std::mutex> lock(order_mutex);
                finish_order.push_back(i);
              }
              next_to_finish.fetch_sub(1);
              return i * 10;
            });

  EXPECT_EQ(finish_order, (std::vector<std::size_t>{3, 2, 1, 0}));
  EXPECT_EQ(results, (std::vector<std::size_t>{0, 10, 20, 30}));

  // Gauges are last-writer-wins in merge order: index order leaves the last
  // cell's value, finish order would leave cell 0's.
  EXPECT_EQ(run_sink.metrics().gauge("sweep.cell").value(), 3.0);
  EXPECT_EQ(run_sink.metrics().counter("sweep.cells").value(), kCells);
  const auto& gauge = run_sink.timeline().gauges().at("sweep.cell").at(0);
  EXPECT_EQ(gauge.last, 3.0);
  EXPECT_EQ(gauge.sets, kCells);
  EXPECT_EQ(run_sink.timeline().counters().at("sweep.cells").at(0), kCells);

  ASSERT_EQ(run_sink.waterfalls().size(), kCells);
  ASSERT_EQ(run_sink.traces().trace_count(), kCells);
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(run_sink.waterfalls()[i].site, "cell" + std::to_string(i));
    EXPECT_EQ(run_sink.traces().traces()[i].label, "cell" + std::to_string(i));
  }
}

TEST(Sweep, InstallsTheSliceOnTheWorkerAndRestoresTheCaller) {
  RunObservability run_sink;
  std::atomic<int> installed{0};
  (void)sweep(3, 2, &run_sink, [&](std::size_t, RunObservability* slice) {
    EXPECT_NE(slice, &run_sink);
    if (obs::MetricsRegistry::global() == &slice->metrics() &&
        obs::TimelineRecorder::global() == &slice->timeline() &&
        obs::PhaseProfiler::global() == &slice->profiler()) {
      installed.fetch_add(1);
    }
    obs::ProfileScope scope("sweep.cell");
    return 0;
  });
  EXPECT_EQ(installed.load(), 3);
  EXPECT_EQ(run_sink.profiler().phases().at("sweep.cell").calls, 3u);
  EXPECT_EQ(obs::MetricsRegistry::global(), nullptr);
  EXPECT_EQ(obs::TimelineRecorder::global(), nullptr);
  EXPECT_EQ(obs::PhaseProfiler::global(), nullptr);

  // Without a run sink the cell gets no slice and nothing is installed.
  std::atomic<int> bare{0};
  (void)sweep(3, 2, nullptr, [&](std::size_t, RunObservability* slice) {
    if (slice == nullptr && obs::MetricsRegistry::global() == nullptr &&
        obs::TimelineRecorder::global() == nullptr && obs::PhaseProfiler::global() == nullptr) {
      bare.fetch_add(1);
    }
    return 0;
  });
  EXPECT_EQ(bare.load(), 3);
}

TEST(Sweep, EachSliceGetsItsPerShardQuota) {
  ObservabilityConfig config;
  config.max_traces = 10;
  config.max_waterfalls = 7;
  config.timeline_bucket = msec(100);
  RunObservability run_sink(config);
  const ObservabilityConfig expected = config.per_shard(3);

  struct Quota {
    std::size_t max_traces = 0;
    std::size_t max_waterfalls = 0;
    Duration bucket{0};
  };
  const std::vector<Quota> quotas = sweep(3, 3, &run_sink, [](std::size_t, RunObservability* s) {
    return Quota{s->config().max_traces, s->config().max_waterfalls,
                 s->timeline().bucket_width()};
  });
  ASSERT_EQ(quotas.size(), 3u);
  for (const Quota& q : quotas) {
    EXPECT_EQ(q.max_traces, expected.max_traces);
    EXPECT_EQ(q.max_waterfalls, expected.max_waterfalls);
    EXPECT_EQ(q.bucket, msec(100));
  }
  EXPECT_EQ(expected.max_traces, 4u);
  EXPECT_EQ(expected.max_waterfalls, 3u);
}

TEST(Sweep, CellExceptionReachesTheCaller) {
  RunObservability run_sink;
  EXPECT_THROW((void)sweep(4, 2, &run_sink,
                           [](std::size_t i, RunObservability*) -> int {
                             if (i == 2) throw std::runtime_error("cell failed");
                             return 0;
                           }),
               std::runtime_error);
  EXPECT_THROW((void)sweep(4, 2, nullptr,
                           [](std::size_t i, RunObservability*) -> int {
                             if (i == 0) throw std::logic_error("cell failed");
                             return 0;
                           }),
               std::logic_error);
}

TEST(Sweep, ZeroJobsAndMoreJobsThanCellsBothWork) {
  const auto identity = [](std::size_t i, RunObservability*) { return i; };
  EXPECT_EQ(sweep(5, 0, nullptr, identity), iota(5));
  EXPECT_EQ(sweep(3, 64, nullptr, identity), iota(3));
  EXPECT_EQ(sweep(7, 1, nullptr, identity), iota(7));
  EXPECT_TRUE(sweep(0, 4, nullptr, identity).empty());
}

}  // namespace
}  // namespace h3cdn::core
