// perfbench: runs one workload of the repository benchmark and prints its
// result as one JSON line prefixed "PERFBENCH_RESULT ".  run.py builds this
// binary, passes the frozen settings from config.json, and turns the line
// into the result line BENCHMARK.json describes.
//
//   perfbench --workload sweep-stream --seed 7 --seconds 10 --trace 0
//             [--smoke] [--trace-out FILE] [--reference HEX]
//             [--lo-rps R --hi-rps R]
//
// Exit status: 0 when every check passed, 1 when a check failed (the
// result line is still printed), 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common.h"
#include "src/common/parallel.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunResult;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonMetrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--trace-out FILE] "
               "[--reference HEX] [--lo-rps R --hi-rps R]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if ((v = value()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    }
    if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--trace-out") {
      options.trace_path = v;
    } else if (arg == "--reference") {
      options.reference_digest = v;
    } else if (arg == "--lo-rps") {
      options.serve_lo_rps = std::strtod(v, nullptr);
    } else if (arg == "--hi-rps") {
      options.serve_hi_rps = std::strtod(v, nullptr);
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  RunResult result;
  if (options.workload == "sweep-stream") {
    result = perfbench::RunSweepStream(options);
  } else if (options.workload == "sweep-hybrid") {
    result = perfbench::RunSweepHybrid(options);
  } else if (options.workload == "cluster-replay") {
    result = perfbench::RunClusterReplay(options);
  } else if (options.workload == "serve-open") {
    if (!(options.serve_lo_rps > 0.0 && options.serve_hi_rps > 0.0)) {
      return Usage("serve-open needs --lo-rps and --hi-rps");
    }
    result = perfbench::RunServeOpen(options);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (options.trace) perfbench::FillUnsetPerLayer(result);

  const bool correct = result.errors.empty() && result.failed == 0;
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  std::string errors = "[";
  for (const std::string& error : result.errors) {
    errors += (errors.size() > 1 ? ", " : "") + JsonString(error);
  }
  errors += "]";
  std::string notes = "{";
  for (const auto& [key, text] : result.notes) {
    notes += (notes.size() > 1 ? ", " : "") + JsonString(key) + ": " +
             JsonString(text);
  }
  notes += "}";
  std::printf(
      "PERFBENCH_RESULT {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"seconds\": %s, \"correct\": %s, \"attempted\": %lld, \"failed\": "
      "%lld, \"digest\": %s, \"threads_available\": %d, \"build_type\": %s, "
      "\"compiler\": %s, \"errors\": %s, \"notes\": %s, \"detail\": %s, "
      "\"metrics\": %s}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
      JsonNumber(options.seconds).c_str(), correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), JsonString(result.digest).c_str(),
      faas::HardwareThreads(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(), errors.c_str(), notes.c_str(),
      JsonMetrics(result.detail).c_str(), JsonMetrics(result.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
