// simmr_perfbench: one workload of the SimMR pipeline benchmark.
//
//   simmr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --work-dir <dir> [--spans-out <file>]
//
// Prints every metric as "name value unit", then the operation counts, and
// as its last line one JSON object with the keys correct, attempted,
// failed and metrics. --trace 0 gives the end-to-end metrics, --trace 1
// the per-layer ones (and writes the spans to --spans-out).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "pipeline.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: simmr_perfbench --workload <name> --seed <n>"
               " --seconds <s> --trace <0|1> --work-dir <dir>"
               " [--spans-out <file>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string spans_out;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0.0))
        return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload.empty() || trace < 0 || opt.work_dir.empty())
    return Usage("--workload, --trace and --work-dir are required");
  opt.traced = trace == 1;

  perfbench::RunReport report;
  try {
    report = perfbench::RunWorkload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  for (const auto& failure : report.failures)
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  if (opt.traced && !spans_out.empty()) {
    std::ofstream out(spans_out);
    out << report.spans_jsonl;
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", spans_out.c_str());
      return 1;
    }
  }

  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "error: metric %s is not finite\n", name.c_str());
      return 1;
    }
    std::printf("%-36s %.17g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("attempted %llu failed %llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::printf("%s\n", json.c_str());
  return 0;
}
