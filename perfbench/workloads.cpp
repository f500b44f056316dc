#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>

#include <unistd.h>

#include "alloc_count.h"
#include "browser/browser.h"
#include "browser/environment.h"
#include "browser/waterfall.h"
#include "core/experiments.h"
#include "core/observability.h"
#include "core/study.h"
#include "digest.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeline.h"
#include "sim/simulator.h"
#include "tls/ticket_store.h"
#include "util/rng.h"
#include "util/stats.h"
#include "web/workload.h"

namespace perfbench {

namespace {

using namespace h3cdn;
namespace fs = std::filesystem;

constexpr std::size_t kNoDrop = std::numeric_limits<std::size_t>::max();

// Extra set-ups in a traced run, so web.generate_s is a median.
constexpr int kTracedSetupRepeats = 4;

// A phase vector must sum to its PLT within one simulator tick (1 µs).
constexpr double kPhaseToleranceMs = 1e-3;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return util::quantile_sorted(v, q);
}

// The site list is the paper-calibrated default workload, fixed like the
// paper's 325 target sites; the benchmark seed draws everything random in the
// run (paths, loss, jitter, server noise). A seed-dependent site list would
// change the amount of work per visit from seed to seed.
web::WorkloadConfig workload_config() {
  web::WorkloadConfig wc;
  wc.site_count = 325;
  return wc;
}

std::uint64_t run_seed(std::uint64_t seed) { return util::derive_seed({seed, 0x72756e0aULL}); }

void compare_reference(const RunEnv& env, const std::string& workload, const std::string& digest,
                       std::vector<std::string>& errors) {
  const auto it = env.reference.find(workload + " " + std::to_string(env.seed));
  if (it != env.reference.end() && it->second != digest) {
    errors.push_back("digest " + digest + " differs from the committed reference " +
                     it->second + " for seed " + std::to_string(env.seed));
  }
}

// Counters the traced pass reads from the simulator's public accessors.
struct VisitLoopCounts {
  std::uint64_t events = 0;
  std::uint64_t access_packets = 0;  // both access-link directions, offered
  std::uint64_t dns_queries = 0;
  std::uint64_t dns_stub_hits = 0;
  AllocSnapshot allocs;  // inside the shards' visit loops
};

std::uint64_t counter(const obs::MetricsRegistry& reg, const std::string& name) {
  const auto it = reg.counters().find(name);
  return it == reg.counters().end() ? 0 : it->second->value();
}

// ---------------------------------------------------------------------------
// study-clean / study-lossy-obs
// ---------------------------------------------------------------------------

struct StudyOutputs {
  core::StudyResult result;
  core::Fig6Result fig6;
  core::Fig7Result fig7;
  core::PltDissectionResult dissection;
  bool exported = false;
  std::string export_error;
  std::uint64_t artifact_digest = 0;
  std::uint64_t artifact_bytes = 0;  // deterministic artifacts only
};

void digest_phases(Digest& d, const obs::PhaseVector& v) {
  for (const double ms : v.ms) d.f64(ms);
}

void digest_row(Digest& d, const core::PltDissectionRow& row) {
  d.str(row.group);
  d.u64(row.pages);
  d.f64(row.mean_h2_plt_ms);
  d.f64(row.mean_h3_plt_ms);
  digest_phases(d, row.mean_h2);
  digest_phases(d, row.mean_h3);
  digest_phases(d, row.mean_delta);
}

void digest_visit(Digest& d, const core::PageVisitRecord& v) {
  d.u64(v.site_index);
  d.str(v.vantage);
  d.i64(v.probe);
  d.u64(v.h3_enabled ? 1 : 0);
  const browser::HarPage& h = v.har;
  d.i64(h.started.count());
  d.i64(h.page_load_time.count());
  d.u64(h.connections_created);
  d.u64(h.resumed_connections);
  d.u64(h.zero_rtt_connections);
  d.u64(h.connection_deaths);
  d.u64(h.h3_fallbacks);
  d.u64(h.requests_rescued);
  d.u64(h.requests_failed);
  d.u64(h.entries.size());
  for (const browser::HarEntry& e : h.entries) {
    const http::EntryTimings& t = e.timings;
    d.u64(e.resource_id);
    d.i64(e.initiator_id);
    d.u64(e.response_bytes);
    for (const Duration x : {t.started, t.finished, t.dns, t.blocked, t.connect, t.send, t.wait,
                             t.receive, t.hol_stall, t.retx_wait}) {
      d.i64(x.count());
    }
    d.u64(static_cast<std::uint64_t>(t.version));
    d.u64(static_cast<std::uint64_t>(t.handshake_mode));
    d.u64(t.connection_id);
    d.i64(t.attempts);
    d.u64((t.reused_connection ? 1U : 0U) | (t.resumed ? 2U : 0U) | (t.failed ? 4U : 0U));
    d.u64(static_cast<std::uint64_t>(t.failure));
    d.u64(t.resumed_from_bytes);
  }
}

// Digest of the visits and the report. The artifact digest is added on top
// for the lossy workload, so passes that skip the sink can still be compared
// visit for visit.
std::uint64_t visits_digest(const std::vector<const core::PageVisitRecord*>& visits,
                            const StudyOutputs& out) {
  Digest d;
  d.u64(visits.size());
  for (const core::PageVisitRecord* v : visits) digest_visit(d, *v);
  for (const core::Fig6GroupRow& g : out.fig6.groups) {
    d.u64(g.pages);
    d.f64(g.mean_h3_cdn_resources);
    d.f64(g.mean_plt_reduction_ms);
    d.f64(g.median_plt_reduction_ms);
    d.f64(g.ci_lo_ms);
    d.f64(g.ci_hi_ms);
  }
  d.f64(out.fig6.median_connect_reduction_ms);
  d.f64(out.fig6.median_wait_reduction_ms);
  d.f64(out.fig6.median_receive_reduction_ms);
  for (const core::Fig7GroupRow& g : out.fig7.groups) {
    d.f64(g.mean_reused_h2);
    d.f64(g.mean_reused_h3);
  }
  for (const core::Fig7DiffBin& b : out.fig7.reduction_by_diff) {
    d.f64(b.diff_bin_center);
    d.f64(b.mean_plt_reduction_ms);
    d.u64(b.pages);
  }
  d.f64(out.fig7.correlation_diff_vs_reduction);
  digest_row(d, out.dissection.overall);
  for (const auto& row : out.dissection.by_vantage) digest_row(d, row);
  for (const auto& row : out.dissection.by_provider) digest_row(d, row);
  return d.value();
}

class StudyWorkload final : public Workload {
 public:
  StudyWorkload(std::string name, bool lossy, const RunEnv& env)
      : name_(std::move(name)), lossy_(lossy), env_(env) {}

  double setup_sample() override {
    Tracer off(false);
    const auto start = std::chrono::steady_clock::now();
    const Inputs in = make_inputs(off);
    return seconds_since(start);
  }

  PassResult run_pass(bool full_check) override {
    Tracer off(false);
    const Inputs in = make_inputs(off);
    StudyOutputs out;
    std::unique_ptr<core::RunObservability> sink;
    // The timed call: the study itself, the report, and for the lossy
    // workload the observability sink and its artifact export.
    const auto start = std::chrono::steady_clock::now();
    if (lossy_) sink = std::make_unique<core::RunObservability>();
    core::StudyConfig cfg = in.config;
    cfg.observability = sink.get();
    out.result = core::MeasurementStudy(cfg).run(in.workload);
    report(out, off);
    if (sink) export_artifacts(*sink, out, off);
    PassResult pass;
    pass.wall_s = seconds_since(start);
    if (lossy_) hash_artifacts(out);
    check(out, full_check, pass);
    return pass;
  }

  PassResult traced_run(Tracer& tracer, std::map<std::string, double>& layer) override {
    // U: the untraced pass, exactly as --trace 0 runs it.
    const PassResult untraced = run_pass(false);

    // T: the same workload driven shard by shard from here, with spans
    // around each call into a layer. Its digest must equal U's.
    for (int i = 0; i < kTracedSetupRepeats; ++i) (void)make_inputs(tracer);
    const Inputs in = make_inputs(tracer);
    std::unique_ptr<core::RunObservability> sink;
    if (lossy_) sink = std::make_unique<core::RunObservability>();
    StudyOutputs out;
    VisitLoopCounts counts;
    const auto start = std::chrono::steady_clock::now();
    drive_study(in, sink.get(), tracer, out, counts);
    report(out, tracer);
    if (sink) export_artifacts(*sink, out, tracer);
    const double traced_s = seconds_since(start);
    if (sink) hash_artifacts(out);
    PassResult pass;
    pass.wall_s = traced_s;
    check(out, true, pass);
    if (pass.digest != untraced.digest) {
      pass.errors.push_back("traced digest " + pass.digest + " != untraced digest " +
                            untraced.digest);
    }

    // O: the same visits with the sink flipped (on for study-clean, off for
    // study-lossy-obs), spanned into a tracer of its own. It prices the
    // sink on this workload and must not change a single visit.
    Tracer other(true);
    std::unique_ptr<core::RunObservability> other_sink;
    if (!lossy_) other_sink = std::make_unique<core::RunObservability>();
    StudyOutputs flipped;
    VisitLoopCounts flipped_counts;
    drive_study(in, other_sink.get(), other, flipped, flipped_counts);
    Tracer quiet(false);
    report(flipped, quiet);
    if (other_sink) {
      export_artifacts(*other_sink, flipped, other);
      hash_artifacts(flipped);
    }
    if (visits_digest(pointers(flipped.result.visits), flipped) !=
        visits_digest(pointers(out.result.visits), out)) {
      pass.errors.push_back("installing the observability sink changed the visits");
    }
    const Tracer& with_sink = lossy_ ? tracer : other;
    const Tracer& without_sink = lossy_ ? other : tracer;
    const StudyOutputs& sink_out = lossy_ ? out : flipped;
    // Registry counters come from whichever pass had the sink.
    const obs::MetricsRegistry& reg = lossy_ ? sink->metrics() : other_sink->metrics();

    const auto& visits = out.result.visits;
    const double n_visits = static_cast<double>(visits.size());
    double entries = 0, connections = 0, resumed = 0, rescued = 0, failed_requests = 0;
    double bytes_tcp = 0, bytes_quic = 0;
    for (const auto& v : visits) {
      entries += static_cast<double>(v.har.entries.size());
      connections += static_cast<double>(v.har.connections_created);
      resumed += static_cast<double>(v.har.resumed_connections);
      rescued += static_cast<double>(v.har.requests_rescued);
      failed_requests += static_cast<double>(v.har.requests_failed);
      for (const auto& e : v.har.entries) {
        (e.timings.version == http::HttpVersion::H3 ? bytes_quic : bytes_tcp) +=
            static_cast<double>(e.response_bytes);
      }
    }
    std::vector<double> visit_ms = tracer.durations("browser.visit_and_run");
    for (double& d : visit_ms) d *= 1e3;
    const double sim_s = tracer.total_s("browser.visit_and_run") + tracer.total_s("sim.think_gap");
    const double events = static_cast<double>(counts.events);

    layer["sim.events_per_visit"] = ratio(events, n_visits);
    layer["sim.ns_per_event"] = ratio(sim_s * 1e9, events);
    layer["alloc.per_event"] = ratio(static_cast<double>(counts.allocs.count), events);
    layer["alloc.bytes_per_visit"] = ratio(static_cast<double>(counts.allocs.bytes), n_visits);
    layer["web.generate_s"] = percentile(tracer.durations("web.generate_workload"), 0.5);
    layer["cdn.warm_ms_per_visit"] = ratio(tracer.total_s("cdn.warm_page") * 1e3, n_visits);
    layer["net.packets_per_request"] = ratio(static_cast<double>(counts.access_packets), entries);
    // Injected loss sits on the per-path links, so the drop share is read
    // over every link from the registry.
    layer["net.drop_share"] =
        ratio(static_cast<double>(counter(reg, "net.link.packets_dropped")),
              static_cast<double>(counter(reg, "net.link.packets_offered")));
    layer["transport.retransmissions_per_request"] =
        ratio(static_cast<double>(counter(reg, "transport.retransmissions")), entries);
    layer["transport.rto_fires_per_request"] =
        ratio(static_cast<double>(counter(reg, "transport.rto_fires")), entries);
    layer["tls.resumed_share"] = ratio(resumed, connections);
    layer["dns.queries_per_visit"] = ratio(static_cast<double>(counts.dns_queries), n_visits);
    layer["dns.cache_hit_share"] = ratio(static_cast<double>(counts.dns_stub_hits),
                                         static_cast<double>(counts.dns_queries));
    layer["http.requests_per_connection"] = ratio(entries, connections);
    layer["http.requests_rescued_per_visit"] = ratio(rescued, n_visits);
    layer["http.requests_failed_per_visit"] = ratio(failed_requests, n_visits);
    layer["browser.visit_ms_p50"] = percentile(visit_ms, 0.50);
    layer["browser.visit_ms_p99"] = percentile(visit_ms, 0.99);
    layer["browser.visit_samples"] = static_cast<double>(visit_ms.size());
    layer["analysis.report_s"] = tracer.total_s("analysis.compute_fig6") +
                                 tracer.total_s("analysis.compute_fig7") +
                                 tracer.total_s("analysis.compute_plt_dissection");
    layer["obs.visit_overhead_ratio"] = ratio(with_sink.total_s("browser.visit_and_run"),
                                              without_sink.total_s("browser.visit_and_run"));
    layer["obs.export_s"] = with_sink.total_s("obs.write_artifacts");
    layer["obs.artifact_bytes_per_visit"] =
        ratio(static_cast<double>(sink_out.artifact_bytes), n_visits);
    layer["trace.visits_per_s"] = ratio(n_visits, traced_s);
    layer["trace.overhead_ratio"] = ratio(traced_s, untraced.wall_s);
    // Inputs of the count x unit-cost share estimate (not emitted).
    layer["_events"] = events;
    layer["_link_packets"] = static_cast<double>(counter(reg, "net.link.packets_offered"));
    layer["_tcp_bytes"] = bytes_tcp;
    layer["_quic_bytes"] = bytes_quic;
    layer["_sim_wall_s"] = sim_s;
    pass.visits += untraced.visits;
    pass.failed += untraced.failed;
    return pass;
  }

 private:
  struct Inputs {
    std::shared_ptr<const web::Workload> workload;
    core::StudyConfig config;
  };

  Inputs make_inputs(Tracer& tracer) const {
    Inputs in;
    in.config.workload = workload_config();
    in.config.seed = run_seed(env_.seed);
    in.config.jobs = 1;
    if (lossy_) {
      in.config.consecutive = true;  // tickets survive: resumption and 0-RTT
      in.config.loss_rate = 0.02;
    }
    {
      auto span = tracer.scope("web.generate_workload");
      in.workload = std::make_shared<const web::Workload>(web::generate_workload(in.config.workload));
    }
    // Validates the config exactly as the timed call will.
    const core::MeasurementStudy study(in.config);
    (void)study;
    return in;
  }

  static std::vector<const core::PageVisitRecord*> pointers(
      const std::vector<core::PageVisitRecord>& visits, std::size_t drop = kNoDrop) {
    std::vector<const core::PageVisitRecord*> out;
    out.reserve(visits.size());
    for (std::size_t i = 0; i < visits.size(); ++i) {
      if (i != drop) out.push_back(&visits[i]);
    }
    return out;
  }

  void report(StudyOutputs& out, Tracer& tracer) const {
    {
      auto span = tracer.scope("analysis.compute_fig6");
      out.fig6 = core::compute_fig6(out.result);
    }
    {
      auto span = tracer.scope("analysis.compute_fig7");
      out.fig7 = core::compute_fig7(out.result);
    }
    {
      auto span = tracer.scope("analysis.compute_plt_dissection");
      out.dissection = core::compute_plt_dissection(out.result);
    }
  }

  // Per process, so concurrent runs in one checkout never share artifacts.
  std::string artifact_dir() const {
    return env_.scratch_dir + "/artifacts-" + std::to_string(::getpid());
  }

  void export_artifacts(const core::RunObservability& sink, StudyOutputs& out,
                        Tracer& tracer) const {
    fs::remove_all(artifact_dir());
    auto span = tracer.scope("obs.write_artifacts");
    out.exported = sink.write_artifacts(artifact_dir(), &out.export_error);
  }

  // Hashes every artifact except profile.json (wall-clock phase timings,
  // different on every run), then deletes the directory.
  void hash_artifacts(StudyOutputs& out) const {
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(artifact_dir(), ec)) {
      if (entry.is_regular_file() && entry.path().filename() != "profile.json") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    Digest d;
    std::vector<char> buf(1 << 20);
    for (const fs::path& f : files) {
      d.str(f.filename().string());
      std::ifstream is(f, std::ios::binary);
      while (is) {
        is.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        const auto got = static_cast<std::size_t>(is.gcount());
        d.bytes(buf.data(), got);
        out.artifact_bytes += got;
      }
    }
    out.artifact_digest = d.value();
    fs::remove_all(artifact_dir(), ec);
  }

  // Mirrors core::ProbeRunTask::run for every shard in canonical order, with
  // spans around each call into a layer. The check of the traced run proves
  // it reproduces MeasurementStudy::run exactly (equal digests).
  void drive_study(const Inputs& in, core::RunObservability* run_sink, Tracer& tracer,
                   StudyOutputs& out, VisitLoopCounts& counts) const {
    const core::StudyConfig& config = in.config;
    out.result.config = config;
    out.result.workload = in.workload;
    const std::size_t site_count = in.workload->sites.size();
    const std::size_t shards =
        config.vantages.size() * static_cast<std::size_t>(config.probes_per_vantage) * 2;
    out.result.visits.reserve(shards * site_count);
    for (const browser::VantageConfig& vantage : config.vantages) {
      for (int probe = 0; probe < config.probes_per_vantage; ++probe) {
        for (const bool h3_enabled : {false, true}) {
          auto shard_span = tracer.scope("core.probe_run");
          std::unique_ptr<core::RunObservability> sink;
          if (run_sink != nullptr) {
            sink = std::make_unique<core::RunObservability>(run_sink->config().per_shard(shards));
          }
          const AllocSnapshot alloc_start = alloc_snapshot();
          {
            obs::ScopedMetrics scoped_metrics(sink ? &sink->metrics() : nullptr);
            obs::ScopedTimeline scoped_timeline(sink ? &sink->timeline() : nullptr);
            obs::ScopedProfiler scoped_profiler(sink ? &sink->profiler() : nullptr);

            util::Rng root(util::derive_seed({config.seed, 0x57011dULL}));
            util::Rng probe_rng =
                root.fork(vantage.name).fork(static_cast<std::uint64_t>(probe));
            browser::VantageConfig shard_vantage = vantage;
            shard_vantage.loss_rate = config.loss_rate;
            shard_vantage.server_noise_salt = h3_enabled ? 0x113 : 0x112;

            sim::Simulator sim;
            std::unique_ptr<browser::Environment> env;
            {
              auto span = tracer.scope("browser.environment");
              env = std::make_unique<browser::Environment>(sim, in.workload->universe,
                                                           shard_vantage, probe_rng.fork("env"));
            }
            tls::SessionTicketStore tickets;
            browser::BrowserConfig bc = config.browser;
            bc.h3_enabled = h3_enabled;
            const std::string run_label = shard_vantage.name + "/p" + std::to_string(probe) +
                                          (h3_enabled ? "/h3" : "/h2");
            core::RunObservability* shard_sink = sink.get();
            if (shard_sink != nullptr) {
              bc.pool_trace = shard_sink->make_bus_trace(run_label + "/pool");
              auto n = std::make_shared<std::uint64_t>(0);
              bc.connection_trace_factory = [shard_sink, run_label, n](
                                                const std::string& domain,
                                                http::HttpVersion version) {
                return shard_sink->make_connection_trace(run_label + "/" + domain + "/" +
                                                         http::to_string(version) + "#" +
                                                         std::to_string(++*n));
              };
            }
            browser::Browser browser(sim, *env, config.consecutive ? &tickets : nullptr, bc,
                                     probe_rng.fork(h3_enabled ? "browser-h3" : "browser-h2"));

            for (std::size_t si = 0; si < site_count; ++si) {
              const auto visit_id = static_cast<std::int64_t>(out.result.visits.size());
              const web::WebPage& page = in.workload->sites[si].page;
              if (config.warm_caches) {
                auto span = tracer.scope("cdn.warm_page", visit_id);
                obs::ProfileScope warm_scope("study.warm_caches");
                env->warm_page(page);
              }
              core::PageVisitRecord rec;
              {
                auto span = tracer.scope("browser.visit_and_run", visit_id);
                rec.har = browser.visit_and_run(page).har;
              }
              rec.site_index = si;
              rec.vantage = shard_vantage.name;
              rec.probe = probe;
              rec.h3_enabled = h3_enabled;
              if (shard_sink != nullptr) {
                auto span = tracer.scope("obs.add_waterfall", visit_id);
                shard_sink->add_waterfall(browser::make_waterfall(rec.har, run_label));
              }
              out.result.visits.push_back(std::move(rec));
              {
                auto span = tracer.scope("sim.think_gap", visit_id);
                sim.schedule_in(msec(100), [] {});
                sim.run();
              }
            }
            counts.events += sim.events_executed();
            for (const net::Link* link : {&env->access_uplink(), &env->access_downlink()}) {
              counts.access_packets += link->stats().packets_offered;
            }
            counts.dns_queries += env->dns().stats().queries;
            counts.dns_stub_hits += env->dns().stats().stub_cache_hits;
          }
          const AllocSnapshot used = alloc_snapshot() - alloc_start;
          counts.allocs.count += used.count;
          counts.allocs.bytes += used.bytes;
          if (sink) {
            auto span = tracer.scope("obs.merge_from");
            run_sink->merge_from(std::move(*sink));
          }
        }
      }
    }
  }

  // Invariants, digest, reference comparison and the perturbation self-test.
  void check(const StudyOutputs& out, bool full_check, PassResult& pass) const {
    const auto& visits = out.result.visits;
    const std::size_t drop = env_.perturb && !visits.empty() ? visits.size() / 2 : kNoDrop;
    const auto kept = pointers(visits, drop);
    pass.visits = kept.size();
    Digest d;
    d.u64(visits_digest(kept, out));
    if (lossy_) {
      d.u64(out.artifact_digest);
      d.u64(out.artifact_bytes);
    }
    pass.digest = d.hex();
    for (const core::PageVisitRecord* v : kept) {
      if (root_failed(*out.result.workload, *v)) ++pass.failed;
    }
    if (!full_check) return;

    invariants(out, kept, pass.errors);
    if (lossy_ && !out.exported) pass.errors.push_back("artifact export failed: " + out.export_error);
    compare_reference(env_, name_, pass.digest, pass.errors);

    // Self-test: the same outputs with one visit dropped must be rejected.
    if (!env_.perturb && !visits.empty()) {
      std::vector<std::string> perturbed;
      invariants(out, pointers(visits, visits.size() / 2), perturbed);
      if (perturbed.empty()) {
        pass.errors.push_back("self-test: dropping one visit was not detected");
      }
    }
  }

  static bool root_failed(const web::Workload& workload, const core::PageVisitRecord& v) {
    const web::WebPage& page = workload.sites[v.site_index].page;
    for (const browser::HarEntry& e : v.har.entries) {
      if (e.resource_id == page.html.id) return e.timings.failed;
    }
    return true;  // the root document was never fetched
  }

  void invariants(const StudyOutputs& out, const std::vector<const core::PageVisitRecord*>& kept,
                  std::vector<std::string>& errors) const {
    const auto& vantages = out.result.config.vantages;
    const std::size_t sites = out.result.workload->sites.size();
    // Every visit terminates: one record per (vantage, probe, mode, site),
    // in canonical shard order, each with an onLoad time.
    const std::size_t expected =
        vantages.size() * static_cast<std::size_t>(out.result.config.probes_per_vantage) * 2 *
        sites;
    if (kept.size() != expected) {
      errors.push_back("expected " + std::to_string(expected) + " visits, got " +
                       std::to_string(kept.size()));
      return;
    }
    std::size_t k = 0;
    for (const auto& vantage : vantages) {
      for (int probe = 0; probe < out.result.config.probes_per_vantage; ++probe) {
        for (const bool h3 : {false, true}) {
          for (std::size_t si = 0; si < sites; ++si, ++k) {
            const core::PageVisitRecord& v = *kept[k];
            if (v.site_index != si || v.vantage != vantage.name || v.probe != probe ||
                v.h3_enabled != h3 || v.har.h3_enabled != h3) {
              errors.push_back("visit " + std::to_string(k) + " out of canonical order");
              return;
            }
            if (v.har.page_load_time <= Duration::zero() || v.har.entries.empty()) {
              errors.push_back("visit " + std::to_string(k) + " never reached onLoad");
              return;
            }
            for (const browser::HarEntry& e : v.har.entries) {
              if (e.timings.finished < e.timings.started) {
                errors.push_back("visit " + std::to_string(k) + " has an unfinished entry");
                return;
              }
            }
            // The 9-phase critical-path dissection sums to PLT within 1 µs.
            const obs::CriticalPathResult cp =
                obs::analyze_critical_path(browser::make_waterfall(v.har));
            if (std::abs(cp.phases.sum() - cp.plt_ms) > kPhaseToleranceMs ||
                std::abs(cp.plt_ms - to_ms(v.har.page_load_time)) > kPhaseToleranceMs) {
              errors.push_back("visit " + std::to_string(k) + ": phases sum to " +
                               std::to_string(cp.phases.sum()) + " ms, PLT " +
                               std::to_string(to_ms(v.har.page_load_time)) + " ms");
              return;
            }
          }
        }
      }
    }
    const core::PltDissectionRow& all = out.dissection.overall;
    if (all.pages != kept.size() / 2 ||
        std::abs(all.mean_delta.sum() - all.mean_plt_delta_ms()) > kPhaseToleranceMs) {
      errors.push_back("overall dissection does not re-aggregate to the mean PLT delta");
    }
  }

  std::string name_;
  bool lossy_;
  const RunEnv& env_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"study-clean", "study-lossy-obs"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const RunEnv& env) {
  if (name == "study-clean") return std::make_unique<StudyWorkload>(name, false, env);
  if (name == "study-lossy-obs") return std::make_unique<StudyWorkload>(name, true, env);
  return nullptr;
}

}  // namespace perfbench
