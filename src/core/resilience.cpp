#include "core/resilience.h"

#include <algorithm>
#include <utility>

#include "browser/browser.h"
#include "core/sweep.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/stats.h"

namespace h3cdn::core {

namespace {

struct VisitOutcome {
  Duration plt{0};
  std::uint64_t connection_deaths = 0;
  std::uint64_t h3_fallbacks = 0;
  std::uint64_t requests_rescued = 0;
  std::uint64_t requests_failed = 0;
};

// One isolated page visit: fresh Simulator + Environment per page, so fault
// schedules are relative to the page start (t = 0) for every site — unlike
// the sequential-visit study loop, where simulated time accumulates across
// pages and an absolute-time outage would only ever hit the first one.
// Caches are pre-warmed, matching the paper's measured-visit methodology.
//
// Whatever sinks core::sweep installed on the executing thread record the
// visit, so the drop-reason counters land in the right row's slice.
VisitOutcome run_visit(const web::Workload& workload, const web::WebPage& page,
                       const browser::VantageConfig& vantage, bool h3_enabled,
                       const ResilienceConfig& config, std::uint64_t page_salt) {
  sim::Simulator sim;
  // Same env seed across fault conditions and protocol modes: paths, loss
  // and jitter realizations pair exactly, so condition deltas isolate the
  // fault (or protocol) effect.
  util::Rng env_rng(util::derive_seed({config.seed, 0xFA17u, page_salt}));
  browser::VantageConfig v = vantage;
  v.server_noise_salt = h3_enabled ? 0x113 : 0x112;
  browser::Environment env(sim, workload.universe, v, env_rng.fork("env"));
  env.warm_page(page);

  browser::BrowserConfig bc;
  bc.h3_enabled = h3_enabled;
  bc.transport = config.transport;
  browser::Browser browser(sim, env, /*tickets=*/nullptr, bc,
                           env_rng.fork(h3_enabled ? "browser-h3" : "browser-h2"));
  browser::PageLoadResult load = browser.visit_and_run(page);

  VisitOutcome out;
  out.plt = load.har.page_load_time;
  out.connection_deaths = load.pool_stats.connection_deaths;
  out.h3_fallbacks = load.pool_stats.h3_fallbacks;
  out.requests_rescued = load.pool_stats.requests_rescued;
  out.requests_failed = load.pool_stats.requests_failed;
  return out;
}

}  // namespace

ResilienceResult run_resilience(const ResilienceConfig& config) {
  H3CDN_EXPECTS(config.sites >= 1);
  H3CDN_EXPECTS(config.jobs >= 0);
  web::WorkloadConfig wc = config.workload;
  wc.site_count = std::max(wc.site_count, config.sites);
  const web::Workload workload = web::generate_workload(wc);
  const std::size_t n_sites = std::min(config.sites, workload.sites.size());

  ResilienceResult result;

  // --- Axis 1: Bernoulli vs Gilbert-Elliott at equal average loss ---------
  for (double rate : config.loss_rates) {
    for (bool bursty : {false, true}) {
      LossTailRow row;
      row.loss_rate = rate;
      row.bursty = bursty;
      browser::VantageConfig vantage = config.vantage;
      // Route BOTH models through the injector so the comparison shares one
      // code path and one Rng stream; only the burst structure differs.
      vantage.fault_profile.gilbert_elliott =
          bursty ? net::GilbertElliottConfig::from_average(rate, config.mean_burst_packets)
                 : net::GilbertElliottConfig::bernoulli(rate);
      // One cell per site. net::Link reports its drop-reason counters into
      // the site's slice, and the slices fold into this row's sink, so the
      // row reads drops from the same source of truth as every other metrics
      // consumer instead of re-aggregating LinkStats by hand.
      RunObservability row_sink;
      const auto visits =
          sweep(n_sites, config.jobs, &row_sink, [&](std::size_t site, RunObservability*) {
            const web::WebPage& page = workload.sites[site].page;
            return std::pair{run_visit(workload, page, vantage, false, config, site),
                             run_visit(workload, page, vantage, true, config, site)};
          });
      std::vector<double> h2_plts;
      std::vector<double> h3_plts;
      for (const auto& [h2, h3] : visits) {
        h2_plts.push_back(to_ms(h2.plt));
        h3_plts.push_back(to_ms(h3.plt));
      }
      obs::MetricsRegistry& metrics = row_sink.metrics();
      row.packets_offered = metrics.counter("net.link.packets_offered").value();
      row.packets_dropped = metrics.counter("net.link.packets_dropped").value();
      row.dropped_bernoulli = metrics.counter("net.link.dropped.bernoulli").value();
      row.dropped_burst = metrics.counter("net.link.dropped.burst").value();
      row.pages = n_sites;
      row.h2_mean_plt_ms = util::mean(h2_plts);
      row.h2_p95_plt_ms = util::quantile(h2_plts, 0.95);
      row.h3_mean_plt_ms = util::mean(h3_plts);
      row.h3_p95_plt_ms = util::quantile(h3_plts, 0.95);
      result.loss_rows.push_back(row);
    }
  }

  // --- Axis 2: mid-transfer outage sweep (H3-enabled visits) --------------
  // Fault-free paired baseline first: an outage-only profile makes no Rng
  // draws, so pages the outage never touches replay the baseline byte for
  // byte and their recovery penalty is exactly zero. Baseline visits record
  // into no sink.
  const std::vector<double> baseline_plt_ms =
      sweep(n_sites, config.jobs, nullptr, [&](std::size_t site, RunObservability*) {
        const web::WebPage& page = workload.sites[site].page;
        return to_ms(run_visit(workload, page, config.vantage, true, config, site).plt);
      });

  for (Duration outage_duration : config.outage_durations) {
    OutageRow row;
    row.outage = outage_duration;
    row.pages = n_sites;
    browser::VantageConfig vantage = config.vantage;
    vantage.fault_profile.outages.push_back(
        net::Outage{config.outage_start, outage_duration, config.outage_kind});
    RunObservability row_sink;
    const std::vector<VisitOutcome> visits =
        sweep(n_sites, config.jobs, &row_sink, [&](std::size_t site, RunObservability*) {
          return run_visit(workload, workload.sites[site].page, vantage, true, config, site);
        });
    std::size_t pages_with_fallback = 0;
    std::vector<double> penalties_ms;
    for (std::size_t site = 0; site < n_sites; ++site) {
      const VisitOutcome& v = visits[site];
      row.connection_deaths += v.connection_deaths;
      row.h3_fallbacks += v.h3_fallbacks;
      row.requests_rescued += v.requests_rescued;
      row.requests_failed += v.requests_failed;
      if (v.h3_fallbacks > 0) ++pages_with_fallback;
      const double penalty = to_ms(v.plt) - baseline_plt_ms[site];
      if (penalty > 0.0) penalties_ms.push_back(penalty);
    }
    obs::MetricsRegistry& metrics = row_sink.metrics();
    row.packets_offered = metrics.counter("net.link.packets_offered").value();
    row.packets_dropped = metrics.counter("net.link.packets_dropped").value();
    row.dropped_outage = metrics.counter("net.link.dropped.outage").value();
    row.fallback_page_rate =
        n_sites == 0 ? 0.0 : static_cast<double>(pages_with_fallback) / n_sites;
    if (!penalties_ms.empty()) {
      row.mean_recovery_ms = util::mean(penalties_ms);
      row.p95_recovery_ms = util::quantile(penalties_ms, 0.95);
      row.max_recovery_ms = *std::max_element(penalties_ms.begin(), penalties_ms.end());
    }
    result.outage_rows.push_back(row);
  }

  return result;
}

}  // namespace h3cdn::core
