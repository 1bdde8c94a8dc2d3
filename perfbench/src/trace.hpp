// Span recorder for the traced run.
//
// Spans are recorded only from the benchmark's own files, around its calls
// into each layer of the program (spawn, barrier, task body, kernel, wire
// request).  Each thread appends to its own preallocated buffer, so
// recording takes no lock and allocates nothing after a thread's first
// span; the buffers are read back with drain() only when no thread is
// recording (after a barrier or a join), and written out when the run ends
// as Chrome trace-event JSON plus a per-layer self-time table.
//
// A span carries the span that was open on its thread when it began
// (`parent`: same-thread nesting) and, optionally, a `link` to the span on
// another thread that caused it (a task body links to the spawn call that
// created it).  Disarmed, a Scope costs one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb::trace {

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< enclosing span on the same thread, 0 = none
  std::uint64_t link = 0;    ///< causing span on another thread, 0 = none
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint64_t arg = 0;  ///< free slot (request id, block count, ...)
  std::uint32_t tid = 0;
};

extern std::atomic<bool> g_armed;

inline bool armed() noexcept { return g_armed.load(std::memory_order_relaxed); }
void arm(bool on) noexcept;

/// Span capacity reserved for threads that record their first span after
/// this call (default 1 << 16).  Generator threads raise it before they
/// start; a full buffer counts further spans as dropped.
void set_thread_capacity(std::size_t spans);

struct ThreadBuffer;

/// Opens a span on construction and records it on destruction.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t link = 0,
                 std::uint64_t arg = 0) noexcept {
    if (armed()) open(name, link, arg);
  }
  ~Scope() {
    if (buf_ != nullptr) close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// This span's id (0 when disarmed): the link a spawned task carries.
  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }
  void set_arg(std::uint64_t arg) noexcept { span_.arg = arg; }

 private:
  void open(const char* name, std::uint64_t link, std::uint64_t arg) noexcept;
  void close() noexcept;

  ThreadBuffer* buf_ = nullptr;
  Span span_{};
};

/// Records an already-measured span on the calling thread (times reported
/// by another process or thread, e.g. a handler's body time carried back in
/// a response payload).  Returns its id; no-op (0) when disarmed.
std::uint64_t record(const char* name, std::int64_t t0, std::int64_t t1,
                     std::uint64_t link, std::uint64_t arg) noexcept;

/// Appends every thread's recorded spans to `out` and empties the buffers.
/// Only valid while no thread records (after a barrier or a join).
void drain(std::vector<Span>& out);

/// Spans lost to full buffers since the start of the run.
std::uint64_t dropped();

/// Per-name and per-layer self time (self = duration minus the durations of
/// the spans directly nested in it), accumulated over successive windows.
struct SelfTimes {
  std::map<std::string, double> by_name_ns;
  std::map<std::string, std::uint64_t> count_by_name;
  std::map<std::string, double> by_layer_ns;  ///< layer = name up to '.'
  std::uint64_t nest_errors = 0;  ///< children not inside their parent
};
void add_self_times(const std::vector<Span>& spans, SelfTimes& st);

/// Chrome trace-event JSON ("X" events, one pid, tid per recording thread,
/// parent/link ids in args).  Returns false on I/O failure.
bool write_chrome_json(const std::string& path, const std::vector<Span>& spans);

/// Writes the self-time table (layer, name, count, total and per-op ms).
bool write_self_time_table(const std::string& path, const SelfTimes& st,
                           double ops);

}  // namespace pb::trace
