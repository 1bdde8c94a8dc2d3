// `nested` workload: one op is one binary divide-and-conquer tree
// (Fibonacci-style, with a leaf cutoff) launched from the main thread.
// Children are spawned inside task bodies and joined with in-task
// wait_all(), so worker-side spawning, stealing, helping barriers and
// park/wake do all the work; there are no clauses and leaf work is a few
// additions.  The seed picks the recurrence's two initial values, so the
// exact result differs per seed while the tree, and the work, do not.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "alloc_count.hpp"
#include "common.hpp"
#include "core/runtime.hpp"
#include "trace.hpp"
#include "workload_util.hpp"

namespace pb {
namespace {

constexpr int kTreeN = 32;
constexpr int kCutoff = 12;
constexpr std::size_t kWarmupOps = 8;
constexpr int kWarmupTreeN = kTreeN - 6;  // ~1/18 of an op: every path, little time
constexpr int kSetups = 5;
constexpr std::size_t kMinOps = 100;  // p90 needs ten samples beyond it

/// G(n) with G(0) = a, G(1) = b, G(n) = G(n-1) + G(n-2) (mod 2^64).
std::uint64_t leaf_value(int n, std::uint64_t a, std::uint64_t b) {
  for (int i = 0; i < n; ++i) {
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

struct Tree {
  sigrt::Runtime* rt = nullptr;
  std::uint64_t a = 0, b = 0;
};

void spawn_node(const Tree* t, int n, std::uint64_t* out);

void node(const Tree* t, int n, std::uint64_t* out) {
  if (n < kCutoff) {
    trace::Scope k("kern.leaf");
    *out = leaf_value(n, t->a, t->b);
    return;
  }
  std::uint64_t left = 0, right = 0;
  spawn_node(t, n - 1, &left);
  spawn_node(t, n - 2, &right);
  {
    trace::Scope w("core.wait");
    t->rt->wait_all();  // in-task: helping barrier over this node's children
  }
  *out = left + right;
}

void spawn_node(const Tree* t, int n, std::uint64_t* out) {
  trace::Scope sp("core.spawn");
  const std::uint64_t link = sp.id();
  t->rt->spawn(sigrt::task([t, n, out, link] {
    trace::Scope b("task.body", link);
    node(t, n, out);
  }));
}

/// The same recursion in a plain serial loop: the speed-up baseline.
std::uint64_t serial(int n, std::uint64_t a, std::uint64_t b) {
  if (n < kCutoff) return leaf_value(n, a, b);
  return serial(n - 1, a, b) + serial(n - 2, a, b);
}

std::uint64_t run_op(Tree& t, int n = kTreeN) {
  trace::Scope op("op.tree");
  std::uint64_t result = 0;
  spawn_node(&t, n, &result);
  trace::Scope w("core.wait");
  t.rt->wait_all();
  return result;
}

}  // namespace

RunOutput run_nested(const Args& args) {
  RunOutput out;
  trace::set_thread_capacity(std::size_t{1} << 17);
  Rng rng(args.seed);
  Tree t;
  t.a = rng.next() >> 8;
  t.b = rng.next() >> 8;
  const std::uint64_t expected = leaf_value(kTreeN, t.a, t.b);
  out.inputs_hash = fnv1a(&t.a, sizeof t.a, fnv1a(&t.b, sizeof t.b));

  std::vector<double> setups;
  std::unique_ptr<sigrt::Runtime> rt;
  std::vector<double> serial_ms;
  for (int i = 0; i < kSetups; ++i) {
    rt.reset();
    const std::int64_t t0 = now_ns();
    const std::int64_t s0 = now_ns();
    if (serial(kTreeN, t.a, t.b) != expected) out.fail("nested: serial tree disagrees");
    serial_ms.push_back(static_cast<double>(now_ns() - s0) * 1e-6);
    rt = std::make_unique<sigrt::Runtime>(sigrt::RuntimeConfig{
        .workers = sigrt::RuntimeConfig::default_workers(),
        .policy = sigrt::PolicyKind::Agnostic});
    t.rt = rt.get();
    for (std::size_t w = 0; w < kWarmupOps; ++w) run_op(t, kWarmupTreeN);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  out.runtime_config = runtime_config_json({{"nested", rt.get()}});
  out.meter = rt->meter().name();

  const CounterSnapshot c0 = snapshot({rt.get()});
  OpLoop loop(args, kMinOps);
  TraceAnalysis ta(rt->config().workers);
  double joules = 0.0;
  std::uint64_t allocs = 0, untraced_ok = 0;
  while (loop.next()) {
    const std::uint64_t n0 = alloc::count();
    const double j0 = rt->meter().joules_now();
    const std::int64_t t0 = now_ns();
    const std::uint64_t got = run_op(t);
    const std::int64_t t1 = now_ns();
    const double j1 = rt->meter().joules_now();
    const std::uint64_t n1 = alloc::count();
    loop.record(t0, t1);
    const bool ok = got == expected;
    ++out.attempted;
    if (!loop.traced_op()) {
      allocs += n1 - n0;
      joules += j1 - j0;
      untraced_ok += ok ? 1 : 0;
    } else {
      ta.consume(t0, t1);
    }
    if (!ok) {
      ++out.failed;
      out.fail("nested: tree result " + std::to_string(got) + " != " +
               std::to_string(expected));
    }
  }
  const CounterSnapshot c1 = snapshot({rt.get()});

  const auto untraced = static_cast<double>(loop.untraced_count());
  const double p50 = loop.untraced_pct_ms(0.50);
  const std::uint64_t tasks = c1.spawned - c0.spawned;
  out.add("setup_s", median(setups), "s");
  json_raw(out.record, "setups_s", json_array(setups));
  out.add("op_ms_p50", p50, "ms");
  out.add("op_ms_p90", loop.untraced_pct_ms(0.90), "ms");
  out.add("op_ms_p99", loop.untraced_pct_ms(0.99), "ms");  // record only
  out.add("energy_j", untraced > 0 ? joules / untraced : 0.0, "J");
  out.add("accurate_share", ratio(c1.accurate - c0.accurate, tasks), "ratio");
  out.add("ok_share", 1.0 - ratio(out.failed, out.attempted), "ratio");
  out.add("goodput_hz", static_cast<double>(untraced_ok) / loop.untraced_seconds(), "1/s");
  out.add("tasks_per_s", static_cast<double>(tasks) / loop.all_seconds(), "1/s");

  out.add("core.steals_per_task", ratio(c1.steals - c0.steals, tasks), "count");
  out.add("core.inline_spawns_per_task", ratio(c1.inline_spawns - c0.inline_spawns, tasks),
          "count");
  out.add("core.handoffs_per_op", ratio(c1.handoffs - c0.handoffs, out.attempted), "count");
  out.add("core.invol_csw_per_task", ratio(c1.invol_csw - c0.invol_csw, tasks), "count");
  out.add("core.speedup_vs_serial", median(serial_ms) / p50, "ratio");
  out.add("dep.edges_per_task", ratio(c1.dep_edges - c0.dep_edges, tasks), "count");
  out.add("energy.busy_ms_per_op",
          (c1.busy_s - c0.busy_s) * 1e3 / static_cast<double>(out.attempted), "ms");
  out.add("alloc.per_op", untraced > 0 ? static_cast<double>(allocs) / untraced : 0.0,
          "count");
  ta.finish(out, {}, loop, args, "nested");

  json_member(out.record, "tree_n", kTreeN);
  json_member(out.record, "cutoff", kCutoff);
  json_member(out.record, "tasks_per_op", ratio(tasks, out.attempted));
  json_member(out.record, "serial_ms", median(serial_ms));
  json_member(out.record, "untraced_ops", untraced);
  return out;
}

}  // namespace pb
