#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common.hpp"

namespace pb::trace {

std::atomic<bool> g_armed{false};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::uint64_t seq = 0;
  /// Capacity reserved once (pages are touched as spans arrive); never
  /// grows, so recording never reallocates.
  std::vector<Span> spans;
  std::uint64_t dropped = 0;
  bool exited = false;  ///< owning thread ended; freed by the next drain()
  static constexpr int kMaxDepth = 256;
  std::uint64_t stack[kMaxDepth] = {};
  int depth = 0;
};

namespace {

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;  // guarded by mutex
std::uint32_t g_next_tid = 1;                           // guarded by mutex
std::uint64_t g_dropped = 0;  ///< drops of drained buffers, guarded by mutex
std::atomic<std::size_t> g_capacity{std::size_t{1} << 16};

/// Marks the thread's buffer exited when the thread ends, so drain() can
/// free it once its spans are out.
struct Registration {
  ThreadBuffer* buf = nullptr;
  ~Registration() {
    if (buf == nullptr) return;
    std::lock_guard lock(g_registry_mutex);
    buf->exited = true;
  }
};
thread_local Registration t_reg;

ThreadBuffer& local() {
  if (t_reg.buf == nullptr) {
    auto b = std::make_unique<ThreadBuffer>();
    b->spans.reserve(g_capacity.load(std::memory_order_relaxed));
    std::lock_guard lock(g_registry_mutex);
    b->tid = g_next_tid++;
    t_reg.buf = b.get();
    g_registry.push_back(std::move(b));
  }
  return *t_reg.buf;
}

std::uint64_t next_id(ThreadBuffer& b) noexcept {
  return (static_cast<std::uint64_t>(b.tid) << 44) | ++b.seq;
}

void append(ThreadBuffer& b, const Span& s) noexcept {
  if (b.spans.size() < b.spans.capacity()) {
    b.spans.push_back(s);
  } else {
    ++b.dropped;
  }
}

}  // namespace

void arm(bool on) noexcept { g_armed.store(on, std::memory_order_relaxed); }

void set_thread_capacity(std::size_t spans) {
  g_capacity.store(spans, std::memory_order_relaxed);
}

void Scope::open(const char* name, std::uint64_t link,
                 std::uint64_t arg) noexcept {
  ThreadBuffer& b = local();
  buf_ = &b;
  span_.name = name;
  span_.id = next_id(b);
  span_.parent =
      b.depth > 0 ? b.stack[std::min(b.depth, ThreadBuffer::kMaxDepth) - 1] : 0;
  span_.link = link;
  span_.arg = arg;
  span_.tid = b.tid;
  if (b.depth < ThreadBuffer::kMaxDepth) b.stack[b.depth] = span_.id;
  ++b.depth;
  span_.t0 = now_ns();
}

void Scope::close() noexcept {
  span_.t1 = now_ns();
  --buf_->depth;
  append(*buf_, span_);
}

std::uint64_t record(const char* name, std::int64_t t0, std::int64_t t1,
                     std::uint64_t link, std::uint64_t arg) noexcept {
  if (!armed()) return 0;
  ThreadBuffer& b = local();
  Span s;
  s.name = name;
  s.id = next_id(b);
  s.parent =
      b.depth > 0 ? b.stack[std::min(b.depth, ThreadBuffer::kMaxDepth) - 1] : 0;
  s.link = link;
  s.t0 = t0;
  s.t1 = t1;
  s.arg = arg;
  s.tid = b.tid;
  append(b, s);
  return s.id;
}

void drain(std::vector<Span>& out) {
  std::lock_guard lock(g_registry_mutex);
  for (auto& b : g_registry) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();  // keeps the reserved capacity
    g_dropped += b->dropped;
    b->dropped = 0;
  }
  std::erase_if(g_registry, [](const auto& b) { return b->exited; });
}

std::uint64_t dropped() {
  std::lock_guard lock(g_registry_mutex);
  std::uint64_t d = g_dropped;
  for (auto& b : g_registry) d += b->dropped;
  return d;
}

void add_self_times(const std::vector<Span>& spans, SelfTimes& st) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;  // parent outside this window
    const Span& p = spans[it->second];
    if (s.t0 < p.t0 || s.t1 > p.t1 || p.tid != s.tid) ++st.nest_errors;
    child_ns[it->second] += static_cast<double>(s.t1 - s.t0);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self = static_cast<double>(s.t1 - s.t0) - child_ns[i];
    const std::string name = s.name;
    st.by_name_ns[name] += self;
    st.count_by_name[name] += 1;
    st.by_layer_ns[name.substr(0, name.find('.'))] += self;
  }
}

bool write_chrome_json(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t base = spans.empty() ? 0 : spans.front().t0;
  for (const Span& s : spans) base = std::min(base, s.t0);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"link\":%llu,\"arg\":%llu}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<int>(std::string(s.name).find('.')), s.name,
                 s.tid, static_cast<double>(s.t0 - base) * 1e-3,
                 static_cast<double>(s.t1 - s.t0) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.link),
                 static_cast<unsigned long long>(s.arg));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

bool write_self_time_table(const std::string& path, const SelfTimes& st,
                           double ops) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double per = ops > 0 ? 1.0 / ops : 0.0;
  std::fprintf(f, "%-8s %-22s %10s %12s %12s\n", "layer", "span", "count",
               "self_ms", "self_ms/op");
  for (const auto& [layer, ns] : st.by_layer_ns) {
    std::fprintf(f, "%-8s %-22s %10s %12.3f %12.4f\n", layer.c_str(), "*", "",
                 ns * 1e-6, ns * 1e-6 * per);
    for (const auto& [name, nns] : st.by_name_ns) {
      if (name.substr(0, name.find('.')) != layer) continue;
      std::fprintf(f, "%-8s %-22s %10llu %12.3f %12.4f\n", "", name.c_str(),
                   static_cast<unsigned long long>(st.count_by_name.at(name)),
                   nns * 1e-6, nns * 1e-6 * per);
    }
  }
  std::fprintf(f, "nest_errors %llu\n",
               static_cast<unsigned long long>(st.nest_errors));
  return std::fclose(f) == 0;
}

}  // namespace pb::trace
