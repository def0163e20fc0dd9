// stance_e2e: the repository's end-to-end benchmark driver (one workload per
// process, so setup_s and peak_rss_mb belong to that workload alone).
//
//   stance_e2e --workload=static_paper --seed=1 --seconds=20 [--trace=out.json] [--quick]
//
// Prints every metric as "<workload> <metric> <value> <unit>", then one JSON
// object on the last line of stdout. Without --trace the metrics are the
// end-to-end ones; with --trace the run also records one span per public
// call, writes them as Chrome trace-event JSON, and adds the per-layer
// metrics and the span table. Exit status: 0 when every op's output matched
// its oracle and enough ops were timed; 1 otherwise; 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

using namespace e2e;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? "," : "") + quoted(ms[i].name) + ":{\"value\":" + num(ms[i].value) +
           ",\"unit\":" + quoted(ms[i].unit) + "}";
  }
  return out + "}";
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value.empty()) throw std::invalid_argument("--trace needs a path: --trace=PATH");
      opt.trace_path = value;
    } else if (key == "--quick") {
      opt.quick = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!(opt.seconds >= 0.0)) throw std::invalid_argument("--seconds must be >= 0");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  WorkloadFn fn = nullptr;
  try {
    opt = parse(argc, argv);
    for (const auto& [name, f] : workloads()) {
      if (name == opt.workload) fn = f;
    }
    if (fn == nullptr) throw std::invalid_argument("unknown --workload '" + opt.workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stance_e2e: %s\n", e.what());
    return 2;
  }

  try {
    const bool tracing = !opt.trace_path.empty();
    Tracer tracer(tracing, kRanks, std::size_t{1} << 18);
    Samples samples;
    const WorkloadRun run = fn(opt, tracer, samples);
    const auto e2e_metrics = run.log.end_to_end(run.setup_s);

    std::ostringstream json;
    json << "{\"workload\":" << quoted(opt.workload) << ",\"seed\":" << opt.seed
         << ",\"quick\":" << (opt.quick ? "true" : "false")
         << ",\"correct\":" << (run.log.correct() ? "true" : "false")
         << ",\"attempted\":" << run.log.attempted() << ",\"failed\":" << run.log.failed()
         << ",\"timed_ops\":" << run.log.timed_ops() << ",\"input\":{";
    for (std::size_t i = 0; i < run.input.size(); ++i) {
      json << (i ? "," : "") << quoted(run.input[i].first) << ":" << num(run.input[i].second);
      std::printf("%s input %s %s\n", opt.workload.c_str(), run.input[i].first.c_str(),
                  num(run.input[i].second).c_str());
    }
    json << "},\"metrics\":" << metrics_json(e2e_metrics);
    std::vector<Metric> printed = e2e_metrics;

    if (tracing) {
      const auto layers = per_layer_metrics(tracer, samples);
      printed.insert(printed.end(), layers.begin(), layers.end());
      json << ",\"per_layer\":" << metrics_json(layers) << ",\"spans\":[";
      const auto table = tracer.table();
      for (std::size_t i = 0; i < table.size(); ++i) {
        json << (i ? "," : "") << "{\"name\":" << quoted(table[i].name)
             << ",\"count\":" << table[i].count << ",\"total_ms\":" << num(table[i].total_ms)
             << ",\"self_ms\":" << num(table[i].self_ms) << "}";
      }
      json << "],\"spans_dropped\":" << tracer.dropped()
           << ",\"trace\":" << quoted(opt.trace_path);
      tracer.write_chrome(opt.trace_path, std::size_t{1} << 15);
    }
    json << "}";

    for (const Metric& m : printed) {
      std::printf("%s %s %s %s\n", opt.workload.c_str(), m.name.c_str(), num(m.value).c_str(),
                  m.unit.c_str());
    }
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
    if (!run.log.correct()) {
      std::fprintf(stderr, "stance_e2e: %s produced wrong answers\n", opt.workload.c_str());
      return 1;
    }
    if (!run.log.enough()) {
      std::fprintf(stderr, "stance_e2e: %s timed too few ops (%zu)\n", opt.workload.c_str(),
                   run.log.timed_ops());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stance_e2e: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
}
