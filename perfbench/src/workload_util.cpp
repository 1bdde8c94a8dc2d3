#include "workload_util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

namespace pb {

CounterSnapshot snapshot(std::initializer_list<const sigrt::Runtime*> runtimes) {
  CounterSnapshot c;
  for (const sigrt::Runtime* rt : runtimes) {
    const sigrt::RuntimeStats s = rt->stats();
    c.spawned += s.spawned;
    c.accurate += s.accurate;
    c.steals += s.steals;
    c.inline_spawns += s.inline_spawns;
    c.busy_s += s.busy_s;
    c.dep_edges += rt->tracker().stats().edges;
    c.handoffs += rt->pool_stats().handoffs;
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  c.invol_csw = static_cast<std::uint64_t>(ru.ru_nivcsw);
  return c;
}

GroupSnapshot group_totals(
    std::initializer_list<std::pair<const sigrt::Runtime*, sigrt::GroupId>> groups) {
  GroupSnapshot g;
  for (const auto& [rt, id] : groups) {
    const sigrt::GroupReport r = rt->group_report(id);
    g.accurate += r.accurate;
    g.approximate += r.approximate;
    g.dropped += r.dropped;
    g.ratio_diff += r.ratio_diff() / static_cast<double>(groups.size());
    g.inversion_fraction += r.inversion_fraction / static_cast<double>(groups.size());
  }
  return g;
}

GroupSnapshot operator-(const GroupSnapshot& later, const GroupSnapshot& earlier) {
  GroupSnapshot d = later;
  d.accurate -= earlier.accurate;
  d.approximate -= earlier.approximate;
  d.dropped -= earlier.dropped;
  return d;
}

std::string runtime_config_json(
    std::initializer_list<std::pair<const char*, const sigrt::Runtime*>> runtimes) {
  std::string s = "[";
  for (const auto& [name, rt] : runtimes) {
    if (s.size() > 1) s += ',';
    s += "{\"name\":\"" + std::string(name) +
         "\",\"workers\":" + std::to_string(rt->config().workers) +
         ",\"policy\":\"" + sigrt::to_string(rt->config().policy) + "\"}";
  }
  return s + "]";
}

// --- OpLoop ------------------------------------------------------------------

OpLoop::OpLoop(const Args& args, std::size_t min_ops)
    : trace_(args.trace), min_ops_(min_ops) {
  const std::int64_t now = now_ns();
  end_ns_ = now + static_cast<std::int64_t>(args.seconds * 1e9);
  hard_end_ns_ = now + static_cast<std::int64_t>(2.0 * args.seconds * 1e9);
}

bool OpLoop::next() {
  const std::int64_t t = now_ns();
  if (t >= hard_end_ns_ || (t >= end_ns_ && count_ >= min_ops_)) {
    trace::arm(false);
    return false;
  }
  traced_ = trace_ && (count_ / kBlock) % 2 == 1;
  trace::arm(traced_);
  ++count_;
  return true;
}

void OpLoop::record(std::int64_t t0, std::int64_t t1) {
  const double ms = static_cast<double>(t1 - t0) * 1e-6;
  (traced_ ? traced_ms_ : untraced_ms_).push_back(ms);
  if (!traced_) untraced_s_ += ms * 1e-3;
  all_s_ += ms * 1e-3;
}

double OpLoop::untraced_pct_ms(double p) const {
  std::vector<double> v = untraced_ms_;
  return percentile(v, p);
}

double OpLoop::traced_p50_ms() const { return median(traced_ms_); }

// --- TraceAnalysis -----------------------------------------------------------

void TraceAnalysis::consume(std::int64_t op_t0, std::int64_t op_t1) {
  spans_.clear();
  trace::drain(spans_);
  ++ops_;
  spans_total_ += spans_.size();
  trace::add_self_times(spans_, self_);
  if (ops_ == 1) {  // the first traced op's earliest spans, across threads
    kept_ = spans_;
    std::sort(kept_.begin(), kept_.end(),
              [](const trace::Span& a, const trace::Span& b) { return a.t0 < b.t0; });
    kept_.resize(std::min(kept_.size(), kKeptSpans));
  }

  std::uint32_t main_tid = 0;
  for (const trace::Span& s : spans_) {
    if (s.parent == 0 && std::strncmp(s.name, "op.", 3) == 0) main_tid = s.tid;
  }
  std::unordered_map<std::uint64_t, std::int64_t> spawn_end;
  std::unordered_map<std::uint64_t, double> waits_in_body;
  std::vector<std::int64_t> body_ends;
  std::vector<std::pair<std::int64_t, std::int64_t>> main_waits;
  double main_self = 0.0;
  for (const trace::Span& s : spans_) {
    const double dur = static_cast<double>(s.t1 - s.t0);
    if (s.tid == main_tid) main_self += s.parent == 0 ? dur : 0.0;
    if (std::strcmp(s.name, "core.spawn") == 0) {
      spawn_end.emplace(s.id, s.t1);
      if (s.arg == 0) {
        core_spawn_ns_.push_back(dur);
      } else {
        dep_spawn_ns_.push_back(dur);
        dep_spawn_total_ns_ += dur;
        dep_blocks_ += static_cast<double>(s.arg);
      }
    } else if (std::strcmp(s.name, "task.body") == 0) {
      body_ends.push_back(s.t1);
    } else if (std::strcmp(s.name, "core.wait") == 0) {
      if (s.tid == main_tid) {
        main_waits.emplace_back(s.t0, s.t1);
      } else {
        waits_in_body[s.parent] += dur;
      }
    } else if (std::strncmp(s.name, "kern.", 5) == 0 && s.arg == 0) {
      kern_ns_[s.name].push_back(dur);
    }
  }
  for (const trace::Span& s : spans_) {
    if (std::strcmp(s.name, "task.body") != 0) continue;
    const auto w = waits_in_body.find(s.id);
    busy_ns_ += static_cast<double>(s.t1 - s.t0) - (w == waits_in_body.end() ? 0.0 : w->second);
    const auto sp = spawn_end.find(s.link);
    if (sp != spawn_end.end()) {
      queue_wait_us_.push_back(
          static_cast<double>(std::max<std::int64_t>(0, s.t0 - sp->second)) * 1e-3);
    }
  }
  // Barrier exit: from the last body that ended inside a main-thread wait's
  // window to that wait returning.
  std::sort(body_ends.begin(), body_ends.end());
  std::sort(main_waits.begin(), main_waits.end());
  std::int64_t prev = op_t0;
  for (const auto& [w0, w1] : main_waits) {
    const auto it = std::upper_bound(body_ends.begin(), body_ends.end(), w1);
    if (it != body_ends.begin() && *(it - 1) > prev) {
      barrier_exit_us_.push_back(static_cast<double>(w1 - *(it - 1)) * 1e-3);
    }
    prev = w1;
  }
  const double op = static_cast<double>(op_t1 - op_t0);
  op_ns_ += op;
  main_self_ns_ += main_self;
  worst_main_dev_ = std::max(worst_main_dev_, std::abs(main_self / op - 1.0));
}

void TraceAnalysis::finish(
    RunOutput& out, const std::vector<std::pair<std::string, double>>& kernel_bytes,
    const OpLoop& loop, const Args& args, const std::string& workload) {
  if (!args.trace) return;
  const double core_p50 = percentile(core_spawn_ns_, 0.5);
  out.add("core.spawn_ns_p50", core_p50, "ns");
  out.add("core.queue_wait_us_p50", percentile(queue_wait_us_, 0.5), "us");
  out.add("core.queue_wait_us_p99", percentile(queue_wait_us_, 0.99), "us");
  out.add("core.barrier_exit_us_p50", percentile(barrier_exit_us_, 0.5), "us");
  out.add("core.busy_share", op_ns_ > 0 ? busy_ns_ / (workers_ * op_ns_) : 0.0, "ratio");
  const double n_dep = static_cast<double>(dep_spawn_ns_.size());
  out.add("dep.spawn_us_p50", percentile(dep_spawn_ns_, 0.5) * 1e-3, "us");
  out.add("dep.blocks_per_task", n_dep > 0 ? dep_blocks_ / n_dep : 0.0, "count");
  out.add("dep.ns_per_block",
          dep_blocks_ > 0 ? (dep_spawn_total_ns_ - n_dep * core_p50) / dep_blocks_ : 0.0,
          "ns");
  for (const auto& [name, bytes] : kernel_bytes) {
    const double p50 = percentile(kern_ns_[name], 0.5);
    out.add(name + "_us_p50", p50 * 1e-3, "us");
    out.add(name + "_gbps", p50 > 0 ? bytes / p50 : 0.0, "GB/s");
  }
  const double untraced = loop.untraced_pct_ms(0.5);
  out.add("trace.overhead_share", untraced > 0 ? loop.traced_p50_ms() / untraced - 1.0 : 0.0,
          "ratio");
  out.add("trace.main_self_share", op_ns_ > 0 ? main_self_ns_ / op_ns_ : 0.0, "ratio");
  out.add("trace.nest_errors", static_cast<double>(self_.nest_errors), "count");
  out.add("trace.dropped_spans", static_cast<double>(trace::dropped()), "count");
  out.add("trace.spans_per_op", ratio(spans_total_, ops_), "count");
  if (self_.nest_errors != 0) out.fail("trace: spans not nested inside their parent");
  if (worst_main_dev_ > 0.05) {
    out.fail("trace: main-thread self times differ from op wall time by " +
             std::to_string(worst_main_dev_ * 100.0) + "%");
  }
  if (trace::dropped() != 0) out.fail("trace: span buffers overflowed");

  std::string layers = "{";
  for (const auto& [layer, ns] : self_.by_layer_ns) {
    if (layers.size() > 1) layers += ',';
    layers += "\"" + layer + "\":" + std::to_string(ns * 1e-6 / static_cast<double>(ops_));
  }
  json_member(out.record, "self_ms_per_traced_op", layers + "}");
  if (!args.out_dir.empty()) {
    const std::string base =
        args.out_dir + "/" + workload + "-seed" + std::to_string(args.seed);
    if (!trace::write_chrome_json(base + ".trace.json", kept_) ||
        !trace::write_self_time_table(base + ".selftime.txt", self_,
                                      static_cast<double>(ops_))) {
      out.fail("trace: cannot write " + base + ".*");
    }
    json_member(out.record, "trace_files", base + ".{trace.json,selftime.txt}");
  }
}

}  // namespace pb
