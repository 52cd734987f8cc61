// anton_perfbench: one run of one benchmark workload.
//
//   anton_perfbench --workload <md_dhfr|estimate_dhfr512|service_sweep>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--spans <path>]
//
// Prints one JSON object on the last line of standard output: the run's
// metrics (end-to-end ones untraced, per-layer ones traced), diagnostics,
// operation counts and the build/host fingerprint.  perfbench/run.py builds
// this program, runs it and turns that object into the benchmark's result.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using perfbench::Metric;
using perfbench::Outcome;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    char num[64];
    // Non-finite values are not JSON; report them as null so the caller
    // rejects the run instead of parsing garbage.
    if (std::isfinite(ms[i].value)) {
      std::snprintf(num, sizeof num, "%.17g", ms[i].value);
    } else {
      std::snprintf(num, sizeof num, "null");
    }
    if (i > 0) out += ',';
    out += json_string(ms[i].name);
    out += ":{\"value\":";
    out += num;
    out += ",\"unit\":";
    out += json_string(ms[i].unit);
    out += '}';
  }
  return out + "}";
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

int usage(const char* msg) {
  std::fprintf(stderr, "anton_perfbench: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.threads = std::max(1u, std::thread::hardware_concurrency());
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--spans") {
      args.span_path = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");

  Outcome out;
  try {
    if (workload == "md_dhfr") {
      out = perfbench::run_md_dhfr(args);
    } else if (workload == "estimate_dhfr512") {
      out = perfbench::run_estimate_dhfr512(args);
    } else if (workload == "service_sweep") {
      out = perfbench::run_service_sweep(args);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "anton_perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }

#ifdef ANTON_SIMD_AVX2
  const char* simd = "avx2";
#else
  const char* simd = "scalar";
#endif
  std::string errors = "[";
  for (size_t i = 0; i < out.errors.size(); ++i) {
    if (i > 0) errors += ',';
    errors += json_string(out.errors[i]);
  }
  errors += "]";
  std::printf(
      "{\"attempted\":%lld,\"failed\":%lld,\"errors\":%s,\"metrics\":%s,"
      "\"diagnostics\":%s,\"fingerprint\":{\"threads\":%u,\"simd\":%s,"
      "\"build_type\":%s,\"compiler\":%s,\"ANTON_DES_SHARDS\":%s,"
      "\"ANTON_PERF\":%s,\"ANTON_SWEEP_THREADS\":%s}}\n",
      static_cast<long long>(out.attempted), static_cast<long long>(out.failed),
      errors.c_str(), json_metrics(out.metrics).c_str(), json_metrics(out.extra).c_str(),
      args.threads, json_string(simd).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(env_or("ANTON_DES_SHARDS", "unset")).c_str(),
      json_string(env_or("ANTON_PERF", "unset")).c_str(),
      json_string(env_or("ANTON_SWEEP_THREADS", "unset")).c_str());
  return 0;
}
