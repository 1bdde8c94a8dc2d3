// perfbench: runs one named workload of the sigrt runtime from a seed,
// checks its outputs, and prints one JSON result record: counts, host
// fingerprint, every metric with its unit, and any problem found.  Untraced
// runs (--trace 0) measure the end-to-end metrics, traced runs the
// per-layer ones; run.py selects the ones BENCHMARK.json names.
//
//   perfbench --workload apps|nested|serve --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "support/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb {
namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload apps|nested|serve --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n");
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      a.workload = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      a.seconds = std::atof(v);
    } else if (std::strcmp(flag, "--trace") == 0) {
      a.trace = std::atoi(v) != 0;
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0;
}

std::string fingerprint(const RunOutput& out) {
  std::string f;
  json_member(f, "nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  json_member(f, "simd", sigrt::support::simd::to_string(sigrt::support::simd::active()));
  utsname u{};
  json_member(f, "kernel", ::uname(&u) == 0 ? std::string(u.release) : "?");
  json_member(f, "compiler", std::string(__VERSION__));
  json_member(f, "build_type", PERFBENCH_BUILD_TYPE);
  json_member(f, "energy_meter", out.meter);
  json_raw(f, "runtime_config", out.runtime_config.empty() ? "[]" : out.runtime_config);
  return "{" + f + "}";
}

}  // namespace

void RunOutput::fail(const std::string& why) {
  correct = false;
  if (problems.size() < 20) problems.push_back(why);
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
}

void json_member(std::string& out, const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  json_raw(out, key, buf);
}

void json_member(std::string& out, const std::string& key,
                 const std::string& value) {
  std::string quoted(1, '"');
  quoted += json_escape(value);
  quoted += '"';
  json_raw(out, key, quoted);
}

void json_raw(std::string& out, const std::string& key, const std::string& raw) {
  if (!out.empty()) out += ',';
  out += '"';
  out += json_escape(key);
  out += "\":";
  out += raw;
}

std::string json_array(const std::vector<double>& values) {
  std::string r = "[";
  for (const double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6g", r.size() > 1 ? "," : "", v);
    r += buf;
  }
  return r + "]";
}

std::string json_escape(const std::string& s) {
  std::string r;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      r += '\\';
      r += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      r += ' ';
    } else {
      r += c;
    }
  }
  return r;
}

}  // namespace pb

int main(int argc, char** argv) {
  pb::Args args;
  if (!pb::parse(argc, argv, args)) {
    pb::usage();
    return 2;
  }
  pb::RunOutput out;
  try {
    if (args.workload == "apps") {
      out = pb::run_apps(args);
    } else if (args.workload == "nested") {
      out = pb::run_nested(args);
    } else if (args.workload == "serve") {
      out = pb::run_serve(args);
    } else {
      pb::usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // One record line: result counts, fingerprint, config, every metric with
  // its unit, problems.  run.py builds the final result line from it with
  // the metric list in BENCHMARK.json.
  std::string metrics;
  for (const pb::Metric& m : out.metrics) {
    std::string v;
    pb::json_member(v, "value", m.value);
    pb::json_member(v, "unit", m.unit);
    pb::json_raw(metrics, m.name, "{" + v + "}");
  }
  std::string problems = "[";
  for (const std::string& p : out.problems) {
    if (problems.size() > 1) problems += ',';
    problems += '"';
    problems += pb::json_escape(p);
    problems += '"';
  }
  problems += "]";

  std::string record;
  pb::json_raw(record, "correct", out.correct && out.failed == 0 ? "true" : "false");
  pb::json_member(record, "attempted", static_cast<double>(out.attempted));
  pb::json_member(record, "failed", static_cast<double>(out.failed));
  pb::json_member(record, "workload", args.workload);
  pb::json_member(record, "seed", static_cast<double>(args.seed));
  pb::json_member(record, "seconds", args.seconds);
  pb::json_member(record, "trace", args.trace ? 1.0 : 0.0);
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(out.inputs_hash));
  pb::json_member(record, "inputs_fnv", std::string(hash));
  pb::json_raw(record, "fingerprint", pb::fingerprint(out));
  pb::json_member(record, "known_defect",
                  "support::CycleClock anchors its TSC calibration at its first to_ns() "
                  "call, so a first RuntimeStats::busy_s read (and the model meter on it) "
                  "is wrong; counters here are read after warm-up and reported as deltas");
  pb::json_raw(record, "metrics", "{" + metrics + "}");
  pb::json_raw(record, "problems", problems);
  if (!out.record.empty()) record += "," + out.record;
  std::printf("{\"record\":{%s}}\n", record.c_str());
  std::fflush(stdout);
  return 0;
}
