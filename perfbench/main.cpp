// h3cdn_perfbench: the repository benchmark binary.
//
//   h3cdn_perfbench --workload NAME --seed N --trace 0|1
//                   [--scratch DIR] [--reference FILE] [--perturb]
//
// --trace 0 times one pass of the workload and prints its end-to-end metrics
// (visits_per_s, setup_s, peak_rss_mb); run.py runs one pass per process and
// aggregates the passes of a run. --trace 1 prints the per-layer metrics of a
// traced run and writes its spans as Chrome-trace JSON into the scratch
// directory. Either way the last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is 0 only when every output check passed. --perturb
// drops one visit from the real output, which the check must reject.
// perfbench/README.md documents the workloads and metrics.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "host.h"
#include "probes.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// setup_s samples. One set-up takes 25-55 ms, and a shared host runs whole
// stretches of seconds to minutes at up to half speed: other tenants contend
// for the caches and memory the set-up's allocations go through, while the
// simulator's own work is unchanged. So each sample pairs a set-up with the
// host-speed reference kernel timed right before it, and reports the set-up
// in units of that kernel, rescaled to seconds on a host where the kernel
// takes kReferenceSeconds. kSetupSamples pairs are taken before the pass and
// as many after it; setup_s is their median.
constexpr int kSetupSamples = 12;
constexpr double kReferenceSeconds = 0.010;

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"visits_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Every per-layer metric, emitted on every workload's traced run.
const std::vector<MetricSpec> kPerLayer = {
    {"sim.events_per_visit", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.schedule_pop_ns", "ns"},
    {"alloc.per_event", "count"},
    {"alloc.bytes_per_visit", "B"},
    {"web.generate_s", "s"},
    {"cdn.warm_ms_per_visit", "ms"},
    {"net.packets_per_request", "count"},
    {"net.link_packets_per_s", "1/s"},
    {"net.drop_share", "ratio"},
    {"transport.retransmissions_per_request", "count"},
    {"transport.rto_fires_per_request", "count"},
    {"transport.tcp_bytes_per_s", "B/s"},
    {"transport.quic_bytes_per_s", "B/s"},
    {"tls.resumed_share", "ratio"},
    {"dns.queries_per_visit", "count"},
    {"dns.cache_hit_share", "ratio"},
    {"http.requests_per_connection", "count"},
    {"http.requests_rescued_per_visit", "count"},
    {"http.requests_failed_per_visit", "count"},
    {"browser.visit_ms_p50", "ms"},
    {"browser.visit_ms_p99", "ms"},
    {"browser.visit_samples", "count"},
    {"analysis.report_s", "s"},
    {"obs.visit_overhead_ratio", "ratio"},
    {"obs.export_s", "s"},
    {"obs.artifact_bytes_per_visit", "B"},
    {"trace.visits_per_s", "1/s"},
    {"trace.overhead_ratio", "ratio"},
    {"share.sim_est", "ratio"},
    {"share.net_est", "ratio"},
    {"share.transport_est", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int trace = -1;
  std::string scratch = ".bench_build/scratch";
  std::string reference;
  bool perturb = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "h3cdn_perfbench: " << why << "\n"
            << "usage: h3cdn_perfbench --workload NAME --seed N --trace 0|1\n"
            << "       [--scratch DIR] [--reference FILE] [--perturb]\n"
            << "workloads:";
  for (const auto& n : workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        a.workload = next();
      } else if (arg == "--seed") {
        a.seed = std::stoull(next());
      } else if (arg == "--trace") {
        a.trace = std::stoi(next());
      } else if (arg == "--scratch") {
        a.scratch = next();
      } else if (arg == "--reference") {
        a.reference = next();
      } else if (arg == "--perturb") {
        a.perturb = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      usage("bad value for " + arg);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

// "<workload> <seed> <digest>" lines; '#' starts a comment.
std::map<std::string, std::string> load_reference(const std::string& path) {
  std::map<std::string, std::string> out;
  if (path.empty()) return out;
  std::ifstream is(path);
  if (!is) usage("cannot read reference digests " + path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload, seed, digest;
    if (ls >> workload >> seed >> digest) out[workload + " " + seed] = digest;
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

void print_layer_table(const Tracer& tracer, double traced_s) {
  std::printf("layer self time (traced pass spans, %% of its %.3f s):\n", traced_s);
  std::printf("  %-10s %10s %10s %8s %8s\n", "layer", "self_s", "total_s", "spans", "self%");
  for (const auto& [layer, t] : tracer.layer_times()) {
    std::printf("  %-10s %10.4f %10.4f %8llu %7.1f%%\n", layer.c_str(), t.self_s, t.total_s,
                static_cast<unsigned long long>(t.spans),
                traced_s > 0.0 ? 100.0 * t.self_s / traced_s : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  RunEnv env;
  env.seed = args.seed;
  env.scratch_dir = args.scratch;
  env.reference = load_reference(args.reference);
  env.perturb = args.perturb;
  std::filesystem::create_directories(env.scratch_dir);
  const std::unique_ptr<Workload> workload = make_workload(args.workload, env);
  if (!workload) usage("unknown workload " + args.workload);

  const HostFingerprint host = host_fingerprint();
  const double memlat_before = memory_latency_ns();

  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<const MetricSpec*, double>> metrics;

  if (args.trace == 0) {
    std::vector<double> setup_s, setup_wall_s, reference_s;
    auto sample_setup = [&] {
      for (int i = 0; i < kSetupSamples; ++i) {
        const double reference = reference_kernel_s();
        const double wall = workload->setup_sample();
        reference_s.push_back(reference);
        setup_wall_s.push_back(wall);
        setup_s.push_back(wall / reference * kReferenceSeconds);
      }
    };
    sample_setup();
    const PassResult pass = workload->run_pass(true);
    sample_setup();
    attempted = pass.visits;
    failed = pass.failed;
    errors = pass.errors;
    const double rss = peak_rss_mb();
    auto json_list = [](const std::vector<double>& v) {
      std::string out;
      for (const double x : v) out += (out.empty() ? "" : ", ") + json_number(x);
      return "[" + out + "]";
    };
    // One line per pass for run.py, which runs one pass per process and
    // aggregates the passes of a run. setup_wall_s and reference_s are the
    // raw readings behind the scaled setup_s samples.
    std::printf("pass {\"wall_s\": %s, \"visits\": %llu, \"failed\": %llu, \"digest\": \"%s\", "
                "\"setup_s\": %s, \"setup_wall_s\": %s, \"reference_s\": %s, "
                "\"peak_rss_mb\": %s}\n",
                json_number(pass.wall_s).c_str(), static_cast<unsigned long long>(pass.visits),
                static_cast<unsigned long long>(pass.failed), pass.digest.c_str(),
                json_list(setup_s).c_str(), json_list(setup_wall_s).c_str(),
                json_list(reference_s).c_str(), json_number(rss).c_str());
    std::printf("digest %s %llu %s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), pass.digest.c_str());
    metrics.emplace_back(&kEndToEnd[0], static_cast<double>(pass.visits) / pass.wall_s);
    metrics.emplace_back(&kEndToEnd[1], median(setup_s));
    metrics.emplace_back(&kEndToEnd[2], rss);
  } else {
    Tracer tracer(true);
    std::map<std::string, double> layer;
    const PassResult pass = workload->traced_run(tracer, layer);
    attempted += pass.visits;
    failed += pass.failed;
    errors = pass.errors;
    std::printf("digest %s %llu %s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), pass.digest.c_str());

    const UnitCosts unit = measure_unit_costs();
    layer["sim.schedule_pop_ns"] = unit.schedule_pop_ns;
    layer["net.link_packets_per_s"] = unit.link_packets_per_s;
    layer["transport.tcp_bytes_per_s"] = unit.tcp_bytes_per_s;
    layer["transport.quic_bytes_per_s"] = unit.quic_bytes_per_s;
    // Count x isolated unit cost over the wall time of the calls that drive
    // the simulator. Each estimate includes the layers below it (a transport
    // byte's cost includes its packets and events).
    const double sim_wall = layer["_sim_wall_s"];
    if (sim_wall > 0.0) {
      layer["share.sim_est"] = layer["_events"] * unit.schedule_pop_ns * 1e-9 / sim_wall;
      layer["share.net_est"] = layer["_link_packets"] / unit.link_packets_per_s / sim_wall;
      layer["share.transport_est"] = (layer["_tcp_bytes"] / unit.tcp_bytes_per_s +
                                      layer["_quic_bytes"] / unit.quic_bytes_per_s) /
                                     sim_wall;
    }
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = layer.find(spec.name);
      if (it == layer.end()) errors.push_back(std::string("no value for ") + spec.name);
      metrics.emplace_back(&spec, it == layer.end() ? 0.0 : it->second);
    }
    print_layer_table(tracer, pass.wall_s);
    const std::string trace_path = env.scratch_dir + "/trace-" + args.workload + "-seed" +
                                   std::to_string(args.seed) + ".json";
    if (tracer.write_chrome_trace(trace_path)) {
      std::printf("chrome trace: %s (%zu spans)\n", trace_path.c_str(), tracer.spans().size());
    } else {
      errors.push_back("cannot write " + trace_path);
    }
  }

  const double memlat_after = memory_latency_ns();
  std::printf(
      "host {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"memlat_ns_before\": %s, \"memlat_ns_after\": %s}\n",
      host.nproc, json_string(host.cpu_model).c_str(), json_string(host.compiler).c_str(),
      json_string(host.build_type).c_str(), json_number(memlat_before).c_str(),
      json_number(memlat_after).c_str());
  for (const auto& e : errors) std::printf("check failed: %s\n", e.c_str());

  const bool correct = errors.empty();
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].first->name) + ": {\"value\": " +
           json_number(metrics[i].second) + ", \"unit\": " +
           json_string(metrics[i].first->unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
