// Benchmark program: runs one workload and prints its metrics.
//
//   pcmax_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --slo-ms <ms> [--online-rps <rate>] [--spans <file>]
//
// Workloads: solve-paper, solve-dp-heavy, serve-online, serve-batch (see
// README.md). The last line of standard output is one JSON object with
// `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
// an untraced run (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). The line before it is a report with the host and build
// provenance, the workload parameters, and the sample count of each timing.
#include <cpuid.h>
#include <sched.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include "algo/ptas/dp_table.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every untraced run prints all of these, on every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"solve_ms_p50", "ms"},    {"solve_ms_p90", "ms"},
    {"seq_solve_ms_p50", "ms"}, {"slo_met_frac", "ratio"},
    {"throughput_rps", "1/s"}, {"makespan_over_lb", "ratio"},
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
};

// Every traced run prints all of these; a layer a workload does not drive
// reports 0 and is listed under "not_exercised" in the report.
constexpr MetricSpec kPerLayer[] = {
    {"core.bounds_us", "us/solve"},
    {"core.canonicalize_us", "us/request"},
    {"ptas.probes", "probes/solve"},
    {"ptas.rounding_us", "us/probe"},
    {"ptas.config_enum_us", "us/probe"},
    {"ptas.configs", "configs/probe"},
    {"ptas.dp_ms", "ms/probe"},
    {"ptas.dp_seq_ms", "ms/probe"},
    {"ptas.dp_entries", "entries/probe"},
    {"ptas.dp_config_scans", "scans/probe"},
    {"ptas.dp_scan_rate", "scans/us"},
    {"ptas.dp_parallel_efficiency", "ratio"},
    {"ptas.reconstruct_us", "us/solve"},
    {"ptas.fill_us", "us/solve"},
    {"ptas.dp_share", "ratio"},
    {"ptas.replay_coverage", "ratio"},
    {"parallel.fork_join_us", "us"},
    {"parallel.levels", "levels/probe"},
    {"parallel.sync_share_est", "ratio"},
    {"service.submit_us_p50", "us"},
    {"service.submit_us_p99", "us"},
    {"service.queue_ms_p50", "ms"},
    {"service.queue_ms_p99", "ms"},
    {"service.solve_ms_p50", "ms"},
    {"service.hit_ratio", "ratio"},
    {"service.coalesced_ratio", "ratio"},
    {"service.shed_ratio", "ratio"},
    {"service.degraded_ratio", "ratio"},
    {"service.useful_solve_ratio", "ratio"},
    {"service.cache_lookup_us", "us/lookup"},
    {"service.cache_insert_us", "us/insert"},
    {"service.shard_imbalance", "ratio"},
    {"service.queue_high_watermark", "requests"},
    {"service.generator_lag_ms_p99", "ms"},
    {"service.latency_ms_p50", "ms"},
    {"service.latency_ms_p90", "ms"},
    {"service.latency_ms_p99", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
    {"trace.self_ms.bench", "ms"},
    {"trace.self_ms.core", "ms"},
    {"trace.self_ms.ptas", "ms"},
    {"trace.self_ms.parallel", "ms"},
    {"trace.self_ms.service", "ms"},
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "pcmax_perfbench: " << error << "\n"
            << "usage: pcmax_perfbench --workload <solve-paper|solve-dp-heavy|"
               "serve-online|serve-batch> --seed <n> --seconds <s> --trace <0|1> "
               "--slo-ms <ms> [--online-rps <rate>] [--spans <file>]\n";
  std::exit(2);
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

Settings parse(int argc, char** argv) {
  Settings s;
  bool have_seed = false;
  bool have_slo = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        s.workload = value;
      } else if (flag == "--seed") {
        s.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        s.seconds = std::stod(value);
      } else if (flag == "--trace") {
        s.trace = std::stoi(value) != 0;
      } else if (flag == "--spans") {
        s.spans_path = value;
      } else if (flag == "--online-rps") {
        s.online_rps = std::stod(value);
      } else if (flag == "--slo-ms") {
        s.slo_ms = std::stod(value);
        have_slo = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  static const std::set<std::string> workloads = {"solve-paper", "solve-dp-heavy",
                                                  "serve-online", "serve-batch"};
  if (workloads.count(s.workload) == 0) usage("unknown workload '" + s.workload + "'");
  if (!have_seed) usage("--seed is required");
  if (!have_slo || s.slo_ms <= 0.0) usage("--slo-ms must be positive");
  if (!(s.seconds > 0.0)) usage("--seconds must be positive");
  if (s.workload == "serve-online" && !(s.online_rps > 0.0)) {
    usage("serve-online needs a positive --online-rps");
  }
  s.threads = std::min(4u, online_cpus());
  return s;
}

/// The processor brand string from CPUID leaves 0x80000002-4.
std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

pcmax::JsonValue provenance(const Settings& s) {
  pcmax::JsonValue host = pcmax::JsonValue::make_object();
  host["nproc"] = online_cpus();
  host["hardware_concurrency"] = std::thread::hardware_concurrency();
  host["cpu_model"] = cpu_model();
  host["avx2"] = __builtin_cpu_supports("avx2") != 0;
  host["avx512f"] = __builtin_cpu_supports("avx512f") != 0;
  host["avx512bw"] = __builtin_cpu_supports("avx512bw") != 0;
  host["compiler"] = PERFBENCH_COMPILER;
  host["build_type"] = PERFBENCH_BUILD_TYPE;
#if defined(PCMAX_METRICS)
  host["pcmax_metrics"] = true;
#else
  host["pcmax_metrics"] = false;
#endif
  host["dp_kernel"] =
      pcmax::dp_kernel_name(pcmax::resolve_dp_kernel(pcmax::DpKernel::kGlobalConfigs));
  pcmax::JsonValue run = pcmax::JsonValue::make_object();
  run["workload"] = s.workload;
  run["seed"] = s.seed;
  run["seconds"] = s.seconds;
  run["trace"] = s.trace;
  run["threads"] = s.threads;
  run["slo_ms"] = s.slo_ms;
  if (s.online_rps > 0.0) run["online_rps"] = s.online_rps;
  pcmax::JsonValue out = pcmax::JsonValue::make_object();
  out["host"] = host;
  out["run"] = run;
  return out;
}

/// Adds the trace-derived metrics and zero-fills layers the workload did
/// not drive.
void finish_traced(Outcome& out, const Tracer& tracer) {
  out.metric("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  const std::map<std::string, double> self = tracer.self_ms_by_layer();
  for (const char* layer : {"bench", "core", "ptas", "parallel", "service"}) {
    const auto it = self.find(layer);
    out.metric(std::string("trace.self_ms.") + layer, it == self.end() ? 0.0 : it->second,
               "ms");
  }
  pcmax::JsonValue absent = pcmax::JsonValue::make_array();
  for (const MetricSpec& spec : kPerLayer) {
    const bool present = std::any_of(out.metrics.begin(), out.metrics.end(),
                                     [&](const Metric& m) { return m.name == spec.name; });
    if (!present) {
      out.metric(spec.name, 0.0, spec.unit);
      absent.append(spec.name);
    }
  }
  out.report["not_exercised"] = absent;
}

/// The result line: exactly the catalogue's metrics, in catalogue order.
std::string result_line(const Outcome& out, bool traced) {
  pcmax::JsonValue metrics = pcmax::JsonValue::make_object();
  const auto emit = [&](const MetricSpec& spec) {
    for (const Metric& m : out.metrics) {
      if (m.name != spec.name) continue;
      if (m.unit != spec.unit) {
        throw std::logic_error("metric " + m.name + " reported in " + m.unit);
      }
      pcmax::JsonValue v = pcmax::JsonValue::make_object();
      v["value"] = m.value;
      v["unit"] = m.unit;
      metrics[m.name] = v;
      return;
    }
    throw std::logic_error(std::string("metric ") + spec.name + " was not measured");
  };
  if (traced) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  pcmax::JsonValue line = pcmax::JsonValue::make_object();
  line["correct"] = out.failed == 0;
  line["attempted"] = out.attempted;
  line["failed"] = out.failed;
  line["metrics"] = metrics;
  return line.dump();
}

int run(int argc, char** argv) {
  const Settings settings = parse(argc, argv);
  Tracer tracer(settings.trace);
  Outcome out;
  if (settings.workload == "serve-online") {
    out = run_serve_online(settings, tracer);
  } else if (settings.workload == "serve-batch") {
    out = run_serve_batch(settings, tracer);
  } else {
    out = run_solve(settings, tracer);
  }

  if (settings.trace) {
    finish_traced(out, tracer);
    if (!settings.spans_path.empty()) {
      tracer.write_jsonl(settings.spans_path);
      out.report["spans_file"] = settings.spans_path;
    }
  }
  if (out.attempted == 0) out.fail("no operation was attempted");

  pcmax::JsonValue report = provenance(settings);
  report["workload"] = out.report;
  pcmax::JsonValue errors = pcmax::JsonValue::make_array();
  for (const std::string& e : out.errors) errors.append(e);
  report["errors"] = errors;
  std::cout << "perfbench.report " << report.dump() << "\n"
            << result_line(out, settings.trace) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pcmax_perfbench: " << e.what() << "\n";
    return 1;
  }
}
