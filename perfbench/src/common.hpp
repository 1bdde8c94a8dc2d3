// Shared vocabulary of the perfbench binary: arguments, clocks, seeded input
// generation, sample statistics and the metric record every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its trace files
};

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: the benchmark's own input generator, so inputs depend only on
/// the seed and never on a generator inside the program under test.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : s_(seed ^ 0x6a09e667f3bcc908ULL) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }
  /// Standard normal (Box-Muller, one value per call).
  double normal() noexcept {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  std::uint64_t s_;
};

/// FNV-1a over raw bytes: output checksums and the inputs fingerprint.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = 1469598103934665603ULL) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  return h;
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
template <typename T>
double percentile(std::vector<T>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return static_cast<double>(v[idx]);
}

template <typename T>
double median(std::vector<T> v) {
  return percentile(v, 0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of one workload produces.  `record` holds extra JSON
/// members (config, counts, bounds, invalid-run reasons) for the result
/// record line printed ahead of the final metrics line.
struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string record;  ///< comma-separated JSON members, no braces
  std::string runtime_config;  ///< JSON array of {workers, policy} objects
  std::string meter;           ///< energy meter backend name
  std::uint64_t inputs_hash = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Marks the run incorrect and says why (stderr + record).
  void fail(const std::string& why);
  std::vector<std::string> problems;
};

/// Appends `"key":value` members to a comma-separated JSON member list.
void json_member(std::string& out, const std::string& key, double value);
void json_member(std::string& out, const std::string& key,
                 const std::string& value);
/// Appends `"key":raw` where `raw` is already JSON.
void json_raw(std::string& out, const std::string& key, const std::string& raw);
std::string json_escape(const std::string& s);
std::string json_array(const std::vector<double>& values);

RunOutput run_apps(const Args& args);
RunOutput run_nested(const Args& args);
RunOutput run_serve(const Args& args);

}  // namespace pb
