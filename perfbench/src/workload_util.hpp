// Pieces the closed-loop workloads share: counter snapshots taken through
// the Runtime's public accessors, the op loop that interleaves traced and
// untraced blocks, and the analysis of one traced op's spans.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/runtime.hpp"
#include "trace.hpp"

namespace pb {

inline double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Runtime, tracker, pool and process counters, summed over runtimes.
/// Read once after warm-up and once at the end; only deltas are reported.
/// (The first read of RuntimeStats::busy_s is wrong: support::CycleClock
/// anchors its TSC calibration at its first to_ns() call, so a first read
/// late in a run converts every accumulated cycle at a ratio measured over
/// a near-empty window.  The warm-up read takes that hit.)
struct CounterSnapshot {
  std::uint64_t spawned = 0, accurate = 0, steals = 0, inline_spawns = 0;
  std::uint64_t dep_edges = 0, handoffs = 0, invol_csw = 0;
  double busy_s = 0.0;
};
CounterSnapshot snapshot(std::initializer_list<const sigrt::Runtime*> runtimes);

/// Group accounting summed over (runtime, group) pairs.  Counts subtract;
/// the Table 2 metrics are the groups' mean at the later snapshot.
struct GroupSnapshot {
  std::uint64_t accurate = 0, approximate = 0, dropped = 0;
  double ratio_diff = 0.0, inversion_fraction = 0.0;

  [[nodiscard]] double accurate_share() const {
    return ratio(accurate, accurate + approximate + dropped);
  }
};
GroupSnapshot group_totals(
    std::initializer_list<std::pair<const sigrt::Runtime*, sigrt::GroupId>> groups);
GroupSnapshot operator-(const GroupSnapshot& later, const GroupSnapshot& earlier);

/// JSON array naming each runtime's worker count and policy.
std::string runtime_config_json(
    std::initializer_list<std::pair<const char*, const sigrt::Runtime*>> runtimes);

/// Drives a closed loop for the run's seconds.  In a traced run, blocks of
/// kBlock ops alternate untraced and traced, so the tracing overhead is the
/// difference of two medians taken under the same conditions.
class OpLoop {
 public:
  static constexpr std::size_t kBlock = 8;

  OpLoop(const Args& args, std::size_t min_ops);

  /// Arms or disarms the tracer for the next op; false when time is up.
  bool next();
  [[nodiscard]] bool traced_op() const noexcept { return traced_; }
  void record(std::int64_t t0, std::int64_t t1);

  [[nodiscard]] std::size_t untraced_count() const { return untraced_ms_.size(); }
  [[nodiscard]] double untraced_pct_ms(double p) const;
  [[nodiscard]] double traced_p50_ms() const;
  [[nodiscard]] double untraced_seconds() const { return untraced_s_; }
  [[nodiscard]] double all_seconds() const { return all_s_; }

 private:
  bool trace_;
  std::size_t min_ops_;
  std::int64_t end_ns_, hard_end_ns_;
  std::size_t count_ = 0;
  bool traced_ = false;
  std::vector<double> untraced_ms_, traced_ms_;
  double untraced_s_ = 0.0, all_s_ = 0.0;
};

/// Per-op analysis of a traced closed-loop run.  consume() drains the span
/// buffers after each traced op (every task has finished, so no thread is
/// recording) and folds the op into running tallies; finish() turns them
/// into per-layer metrics and writes the trace files.
class TraceAnalysis {
 public:
  explicit TraceAnalysis(unsigned workers) : workers_(workers) {}

  void consume(std::int64_t op_t0, std::int64_t op_t1);

  /// `kernel_bytes`: computed bytes one accurate call of each kern.* span
  /// moves, for the computed-bandwidth metrics.
  void finish(RunOutput& out,
              const std::vector<std::pair<std::string, double>>& kernel_bytes,
              const OpLoop& loop, const Args& args, const std::string& workload);

 private:
  /// Spans written as Chrome JSON: the start of the first traced op.
  static constexpr std::size_t kKeptSpans = 20000;

  unsigned workers_;
  std::vector<trace::Span> spans_, kept_;
  std::size_t ops_ = 0;
  trace::SelfTimes self_;
  std::vector<double> core_spawn_ns_, dep_spawn_ns_, queue_wait_us_,
      barrier_exit_us_;
  std::map<std::string, std::vector<double>> kern_ns_;
  double dep_spawn_total_ns_ = 0.0, dep_blocks_ = 0.0, busy_ns_ = 0.0,
         op_ns_ = 0.0, main_self_ns_ = 0.0, worst_main_dev_ = 0.0;
  std::uint64_t spans_total_ = 0;
};

}  // namespace pb
