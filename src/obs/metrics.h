// Run-wide metrics registry: named counters, gauges, and log-bucketed
// HDR-style histograms that every simulator layer (net, transport, tls, dns,
// http, cdn, browser, sim) registers into.
//
// Design rules:
//   * Instrumentation is zero-cost when disabled. No registry is installed by
//     default; the obs::count/observe helpers compile to a single pointer
//     null-check in that case. Benchmarks hold the hot paths to < 2% overhead
//     versus un-instrumented code.
//   * Each simulator shard is single-threaded and records into its own
//     registry, so metrics are plain integers — no atomics, no locks,
//     bit-reproducible given a deterministic run. The installed-registry
//     pointer is thread_local: a shard task installs its private registry on
//     the worker thread it runs on, and the study merges shard registries in
//     canonical shard order afterwards (merge_from), which keeps parallel
//     runs byte-identical to sequential ones. See docs/PARALLELISM.md.
//   * Naming convention: `<layer>.<subsystem>.<metric>` with the layer
//     prefix taken from the source directory (net., transport., tls., dns.,
//     http., cdn., browser., sim.). docs/OBSERVABILITY.md lists every series.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/types.h"

namespace h3cdn::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

  /// Shard merge: counts add. Exact (integer), so merge order is irrelevant.
  void merge_from(const Counter& other) { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  [[nodiscard]] double value() const { return value_; }

  /// Shard merge: last-writer-wins in merge order. Callers merge shards in
  /// canonical shard order, so the merged value is the last shard's — the
  /// same value a sequential run would have ended with.
  void merge_from(const Gauge& other) { value_ = other.value_; }

 private:
  double value_ = 0.0;
};

/// Log-bucketed histogram in the spirit of HDR histograms: geometric buckets
/// with ~9% relative width, so percentile readouts are within one bucket
/// (<= +9%/-0%) of the exact sample quantile while insertion is O(1) and
/// memory is bounded regardless of sample count.
class Histogram {
 public:
  /// Values at or below the resolution floor land in the underflow bucket.
  static constexpr double kMinValue = 1e-3;
  /// Geometric bucket growth: 2^(1/8) per bucket (~9.05%).
  static constexpr double kGrowth = 1.0905077326652577;

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Percentile estimate, q in [0,1]: the upper bound of the bucket holding
  /// the rank-q sample, clamped to the observed [min, max]. Within one bucket
  /// width (~9%) of the exact sample quantile.
  [[nodiscard]] double percentile(double q) const;

  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p90() const { return percentile(0.90); }
  [[nodiscard]] double p99() const { return percentile(0.99); }
  [[nodiscard]] double p999() const { return percentile(0.999); }

  /// Shard merge: bucket counts, count, min and max combine exactly, so
  /// percentiles of a merged histogram equal those of single-registry
  /// recording regardless of how samples were split across shards. `sum` is
  /// a float accumulation whose value depends on merge order only — merging
  /// shards in canonical order therefore yields one reproducible result for
  /// any job count.
  void merge_from(const Histogram& other);

 private:
  [[nodiscard]] std::size_t bucket_index(double v) const;
  [[nodiscard]] double bucket_upper(std::size_t index) const;

  std::vector<std::uint64_t> buckets_;  // [0] = underflow (v <= kMinValue)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One run's named metrics. Metric objects are owned by the registry and
/// their addresses are stable for its lifetime; lookups create on first use.
/// Iteration order is the lexicographic name order (deterministic exports).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }

  /// Number of distinct named series (counters + gauges + histograms).
  [[nodiscard]] std::size_t series_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  void clear();

  /// Folds `other` into this registry: counters and histogram buckets add,
  /// gauges take `other`'s value (last-writer in merge order), series missing
  /// here are created. Merging every shard in canonical shard order
  /// reproduces, series for series, what one shared registry would have
  /// recorded sequentially (histogram `sum` is reproducible per merge order;
  /// see Histogram::merge_from).
  void merge_from(const MetricsRegistry& other);

  /// The registry installed on the *current thread* that instrumentation
  /// hooks report into, or nullptr when observability is disabled (the
  /// default). Thread-local so concurrent shard tasks each record into their
  /// own sink.
  [[nodiscard]] static MetricsRegistry* global();

  /// Installs `registry` (may be nullptr to disable); returns the previous
  /// one. Prefer ScopedMetrics for exception-safe install/restore.
  static MetricsRegistry* set_global(MetricsRegistry* registry);

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

namespace detail {
/// Per-thread registry pointer. Lives in the header as an inline variable so
/// global() inlines into the instrumentation hooks — the disabled path must
/// be one thread-local load + one branch, not a function call. thread_local
/// (rather than a single process-wide pointer) is what lets core::sweep cells
/// on parallel workers each install their own registry without locking.
inline thread_local MetricsRegistry* g_metrics_registry = nullptr;
}  // namespace detail

inline MetricsRegistry* MetricsRegistry::global() { return detail::g_metrics_registry; }

inline MetricsRegistry* MetricsRegistry::set_global(MetricsRegistry* registry) {
  MetricsRegistry* previous = detail::g_metrics_registry;
  detail::g_metrics_registry = registry;
  return previous;
}

/// RAII install/restore of the current thread's registry. Install and
/// restore happen on the constructing thread; a shard task running on a pool
/// worker scopes its own registry without affecting other threads.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry* registry)
      : previous_(MetricsRegistry::set_global(registry)) {}
  ~ScopedMetrics() { MetricsRegistry::set_global(previous_); }
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  MetricsRegistry* previous_;
};

/// True when a registry is installed (observability enabled).
[[nodiscard]] inline bool enabled() { return MetricsRegistry::global() != nullptr; }

// --- Instrumentation hooks: one null-check when observability is off. -------

inline void count(const char* name, std::uint64_t n = 1) {
  if (MetricsRegistry* r = MetricsRegistry::global()) r->counter(name).inc(n);
}

inline void gauge_set(const char* name, double v) {
  if (MetricsRegistry* r = MetricsRegistry::global()) r->gauge(name).set(v);
}

inline void observe(const char* name, double v) {
  if (MetricsRegistry* r = MetricsRegistry::global()) r->histogram(name).observe(v);
}

/// Records a simulated duration in fractional milliseconds.
inline void observe_ms(const char* name, Duration d) {
  if (MetricsRegistry* r = MetricsRegistry::global()) r->histogram(name).observe(to_ms(d));
}

// --- Exporters --------------------------------------------------------------

/// {"counters": {...}, "gauges": {...}, "histograms": {name: summary}}.
[[nodiscard]] std::string metrics_to_json(const MetricsRegistry& registry);

/// One row per series: `name,kind,field,value` (histograms expand to
/// count/sum/min/max/mean/p50/p90/p99/p999 rows).
[[nodiscard]] std::string metrics_to_csv(const MetricsRegistry& registry);

/// Prometheus text exposition format ('.'s become '_'s; histograms export as
/// summaries with quantile labels).
[[nodiscard]] std::string metrics_to_prometheus(const MetricsRegistry& registry);

}  // namespace h3cdn::obs
