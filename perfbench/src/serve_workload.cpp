// `serve` workload: the wire path over loopback TCP, in four phases per
// run against three Server + NetServer tiers built at set-up (burst and
// peak share the controller-off tier):
//
//   nominal   open-loop Poisson over three classes (sobel 64^2, dct 32^2,
//             kmeans 512x8) at a fixed rate of a quarter of the mix's
//             closed-loop capacity, QoS controller on;
//   overload  the same mix at a fixed rate of 1.33x that capacity;
//   burst     closed-loop ops of 1024 pipelined mix requests on one
//             connection, controller off: the end-to-end op time and rate;
//   peak      closed-loop pipelined requests on an FNV kernel, controller
//             off.
//
// The phases interleave over kRounds rounds.  Both open-loop rates
// are constants (kNominalHz, kOverloadHz); they are never derived from this
// run's own calibration or worker count.  Load comes from this process: each
// open-loop connection has a sender thread (the main thread drives the
// first) and a reader thread, and the peak phase runs one thread per
// connection, never more threads or connections than nproc.  Open-loop
// latency is timed from each request's scheduled send time.
//
// Every request carries its id in the payload; every Ok/OkApprox response
// carries the id back plus a checksum of the handler's output, compared
// against checksums computed serially at set-up.
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "apps/kernels.hpp"
#include "common.hpp"
#include "net/net.hpp"
#include "serve/serve.hpp"
#include "trace.hpp"
#include "workload_util.hpp"

namespace pb {
namespace {

namespace kern = sigrt::apps::kern;
using sigrt::net::Status;

// Fixed open-loop rates (requests/s over the three-class mix).  The mix's
// closed-loop capacity at ratio 1.0 on 4 workers measured 36-37k req/s on a
// 4-CPU host (2 connections x 64 in flight).  Nominal sits at a quarter of
// it, so a host that runs 40% slower for a while (seen on a shared VM)
// still serves it at ratio 1.0.  Overload offers 1.33x that capacity: the
// ladder degrades and sheds, and the server never had to close a connection
// at its out-queue cap (at 80k req/s it did).
constexpr double kNominalHz = 9000.0;
constexpr double kOverloadHz = 48000.0;
// Share of --seconds each phase runs for.
constexpr double kNominalShare = 0.3, kOverloadShare = 0.2, kBurstShare = 0.25,
                 kPeakShare = 0.25;
/// Requests per burst op (closed loop, one connection, one flush).  Long
/// enough (~25 ms) that a scheduling stall of a few milliseconds moves one
/// op's time by a fraction, not a multiple.
constexpr std::size_t kBurst = 1024;
/// Generator lag bound at nominal load: the tightest class deadline.
constexpr double kLagBoundUs = 25'000.0;
/// Slice lengths the end-to-end medians are taken over.
constexpr std::int64_t kNominalSliceNs = 250'000'000;
constexpr std::int64_t kOverloadSliceNs = 500'000'000;
constexpr std::int64_t kPeakSliceNs = 250'000'000;
constexpr std::size_t kInputs = 32;       // distinct inputs per class
/// Open loop: one sender + one reader thread per connection; peak: one
/// thread per connection.  Either way at most nproc generator threads.
constexpr unsigned kOpenConnections = 2;
constexpr unsigned kPeakConnections = 2;
constexpr unsigned kPeakWindow = 64;
constexpr std::size_t kPeakPayload = 64;
constexpr int kSetups = 5;
constexpr int kRounds = 3;

enum Kernel : std::uint32_t { kSobel = 0, kDct = 1, kKmeans = 2, kFnv = 3 };
constexpr const char* kKernelNames[] = {"sobel", "dct", "kmeans", "fnv"};
constexpr double kDeadlineMs[] = {25.0, 25.0, 50.0};

constexpr std::size_t kSobelEdge = 64;
constexpr std::size_t kDctEdge = 32;
constexpr std::size_t kKmPoints = 512, kKmDims = 8, kKmK = 4;
constexpr std::size_t kInputBytes[] = {kSobelEdge * kSobelEdge, kDctEdge * kDctEdge,
                                       kKmPoints * kKmDims * sizeof(double)};

// --- handlers: payload = u64 id | input; reply = id, checksum, t0, t1 -------

void reply(std::vector<std::uint8_t>& out, std::uint64_t id, std::uint64_t sum,
           std::int64_t t0) {
  const std::int64_t t1 = now_ns();
  const std::size_t base = out.size();
  out.resize(base + 32);
  std::memcpy(out.data() + base, &id, 8);
  std::memcpy(out.data() + base + 8, &sum, 8);
  std::memcpy(out.data() + base + 16, &t0, 8);
  std::memcpy(out.data() + base + 24, &t1, 8);
}

std::uint64_t payload_id(const std::uint8_t* p, std::size_t n) {
  std::uint64_t id = ~0ULL;
  if (n >= 8) std::memcpy(&id, p, 8);
  return id;
}

void sobel_handler(const std::uint8_t* p, std::size_t n, bool approx,
                   std::vector<std::uint8_t>& out) {
  const std::int64_t t0 = now_ns();
  thread_local std::array<std::uint8_t, kSobelEdge * kSobelEdge> res{};
  std::uint64_t sum = 0;
  if (n == 8 + kInputBytes[kSobel]) {
    if (approx) {
      kern::sobel_band_approx(res.data(), p + 8, kSobelEdge, 1, kSobelEdge - 1);
    } else {
      kern::sobel_band_accurate(res.data(), p + 8, kSobelEdge, 1, kSobelEdge - 1);
    }
    sum = fnv1a(res.data(), res.size());
  }
  reply(out, payload_id(p, n), sum, t0);
}

/// Accurate: every DCT band of the 4x4 blocks; approximate: the four
/// lowest-frequency bands only (drop-style, like JPEG truncation).
void dct_handler(const std::uint8_t* p, std::size_t n, bool approx,
                 std::vector<std::uint8_t>& out) {
  const std::int64_t t0 = now_ns();
  struct Tables {
    std::array<double, 64> ct{};
    std::array<double, 8> alpha{};
    Tables() {
      for (std::size_t u = 0; u < 8; ++u) {
        for (std::size_t x = 0; x < 8; ++x) {
          ct[u * 8 + x] = std::cos((2.0 * static_cast<double>(x) + 1.0) *
                                   static_cast<double>(u) * 3.14159265358979323846 / 16.0);
        }
        alpha[u] = u == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      }
    }
  };
  static const Tables t;
  thread_local std::array<float, kDctEdge * kDctEdge> coeffs{};
  std::uint64_t sum = 0;
  if (n == 8 + kInputBytes[kDct]) {
    coeffs.fill(0.0f);
    const std::size_t bands = approx ? 4 : 15;
    for (std::size_t by = 0; by < kDctEdge / 8; ++by) {
      for (std::size_t bx = 0; bx < kDctEdge / 8; ++bx) {
        float* block = coeffs.data() + (by * (kDctEdge / 8) + bx) * 64;
        for (std::size_t band = 0; band < bands; ++band) {
          kern::dct_block_band(block, p + 8, kDctEdge, bx * 8, by * 8, band,
                               t.ct.data(), t.alpha.data());
        }
      }
    }
    sum = fnv1a(coeffs.data(), coeffs.size() * sizeof(float));
  }
  reply(out, payload_id(p, n), sum, t0);
}

/// Lloyd iterations from fixed seeds: 6 accurate, 1 when approximate.
void kmeans_handler(const std::uint8_t* p, std::size_t n, bool approx,
                    std::vector<std::uint8_t>& out) {
  const std::int64_t t0 = now_ns();
  thread_local std::array<double, kKmPoints * kKmDims> pts{};
  std::uint64_t sum = 0;
  if (n == 8 + kInputBytes[kKmeans]) {
    std::memcpy(pts.data(), p + 8, kInputBytes[kKmeans]);
    std::array<double, kKmK * kKmDims> c{};
    for (std::size_t k = 0; k < kKmK; ++k) {
      std::copy_n(pts.data() + k * (kKmPoints / kKmK) * kKmDims, kKmDims,
                  c.data() + k * kKmDims);
    }
    const int iterations = approx ? 1 : 6;
    for (int it = 0; it < iterations; ++it) {
      std::array<double, kKmK * kKmDims> s{};
      std::array<double, kKmK> cnt{};
      for (std::size_t i = 0; i < kKmPoints; ++i) {
        const double* q = pts.data() + i * kKmDims;
        const std::size_t best = kern::nearest_centroid(q, c.data(), kKmK, kKmDims, kKmDims);
        for (std::size_t d = 0; d < kKmDims; ++d) s[best * kKmDims + d] += q[d];
        cnt[best] += 1.0;
      }
      for (std::size_t k = 0; k < kKmK; ++k) {
        if (cnt[k] == 0.0) continue;
        for (std::size_t d = 0; d < kKmDims; ++d) c[k * kKmDims + d] = s[k * kKmDims + d] / cnt[k];
      }
    }
    sum = fnv1a(c.data(), c.size() * sizeof(double));
  }
  reply(out, payload_id(p, n), sum, t0);
}

void fnv_handler(const std::uint8_t* p, std::size_t n, bool /*approx*/,
                 std::vector<std::uint8_t>& out) {
  const std::int64_t t0 = now_ns();
  reply(out, payload_id(p, n), fnv1a(p, n), t0);
}

using HandlerFn = void (*)(const std::uint8_t*, std::size_t, bool,
                           std::vector<std::uint8_t>&);
constexpr HandlerFn kHandlers[] = {sobel_handler, dct_handler, kmeans_handler,
                                   fnv_handler};

// --- inputs -------------------------------------------------------------------

struct Inputs {
  /// payloads[kernel][i]: 8 id bytes (filled per request) + input bytes.
  std::vector<std::vector<std::uint8_t>> payloads[3];
  std::uint64_t expected[3][kInputs][2] = {};  ///< [accurate, approximate]
  std::uint64_t hash = 0;
};

void make_inputs(Rng& rng, Inputs& in) {
  for (std::uint32_t k = 0; k < 3; ++k) {
    in.payloads[k].resize(kInputs);
    for (std::size_t i = 0; i < kInputs; ++i) {
      std::vector<std::uint8_t>& buf = in.payloads[k][i];
      buf.assign(8 + kInputBytes[k], 0);
      if (k == kKmeans) {
        for (std::size_t j = 0; j < kKmPoints; ++j) {
          for (std::size_t d = 0; d < kKmDims; ++d) {
            const double v = static_cast<double>(j % kKmK) * 6.0 + 1.5 * rng.normal();
            std::memcpy(buf.data() + 8 + (j * kKmDims + d) * 8, &v, 8);
          }
        }
      } else {
        for (std::size_t j = 8; j < buf.size(); ++j) {
          buf[j] = static_cast<std::uint8_t>(rng.next() >> 56);
        }
      }
      std::vector<std::uint8_t> r;
      for (int approx = 0; approx < 2; ++approx) {
        r.clear();
        kHandlers[k](buf.data(), buf.size(), approx != 0, r);
        std::memcpy(&in.expected[k][i][approx], r.data() + 8, 8);
      }
      in.hash = fnv1a(buf.data() + 8, buf.size() - 8, in.hash);
    }
  }
}

// --- servers ------------------------------------------------------------------

/// One Server + NetServer pair.  Teardown follows the net shutdown
/// contract: drain the serve tier first, then stop the frontend.
struct Tier {
  std::unique_ptr<sigrt::serve::Server> srv;
  std::unique_ptr<sigrt::net::NetServer> net;
  std::vector<sigrt::serve::ClassId> classes;

  Tier(bool controller, bool mix) {
    sigrt::serve::ServerOptions so;
    so.runtime.workers = sigrt::RuntimeConfig::default_workers();
    so.epoch_ms = controller ? 10.0 : 0.0;
    srv = std::make_unique<sigrt::serve::Server>(so);
    net = std::make_unique<sigrt::net::NetServer>(*srv, sigrt::net::NetServerOptions{});
    if (mix) {
      for (std::uint32_t k = 0; k < 3; ++k) {
        sigrt::serve::RequestClassConfig cfg;
        cfg.name = kKernelNames[k];
        cfg.qos.deadline_ns = kDeadlineMs[k] * 1e6;
        cfg.qos.quality_floor = 0.05;
        cfg.qos.backlog_high = 64;
        cfg.qos.backlog_low = 16;
        cfg.max_in_flight = 256;
        classes.push_back(srv->register_class(cfg));
        net->register_kernel(k, {.fn = kHandlers[k], .significance = 0.5});
      }
    } else {
      sigrt::serve::RequestClassConfig cfg;
      cfg.name = "peak";
      cfg.criticality = sigrt::serve::Criticality::Critical;
      cfg.qos.deadline_ns = 100e6;
      cfg.max_in_flight = 4096;
      classes.push_back(srv->register_class(cfg));
      net->register_kernel(kFnv, {.fn = fnv_handler, .significance = 1.0});
      for (std::uint32_t k = 0; k < 3; ++k) {  // the burst ops' mix
        net->register_kernel(k, {.fn = kHandlers[k], .significance = 0.5});
      }
    }
    net->start();
  }
  ~Tier() {
    srv->close();
    net->stop();
  }
  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;
};

bool is_timeout(const std::system_error& e) {
  return e.code() == std::errc::resource_unavailable_try_again ||
         e.code() == std::errc::operation_would_block;
}

/// Threads joined on every exit path, including a throwing flush().
/// Declare it after everything its threads use.
class Threads {
 public:
  Threads() = default;
  ~Threads() { join(); }
  Threads(const Threads&) = delete;
  Threads& operator=(const Threads&) = delete;

  template <class... A>
  void spawn(A&&... a) {
    threads_.emplace_back(std::forward<A>(a)...);
  }
  void join() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::vector<std::thread> threads_;
};

// --- open-loop phase ------------------------------------------------------------

struct Planned {
  std::int64_t due_off_ns = 0;
  std::uint8_t kernel = 0;
  std::uint8_t input = 0;
};

struct Outcome {
  std::int64_t recv_ns = 0;
  std::int64_t server_ns = 0;
  std::int64_t h0 = 0, h1 = 0;  ///< handler body, from the reply
  Status status = Status::Ok;
  bool answered = false;
  bool valid = false;  ///< status/payload check passed
};

struct OpenLoopResult {
  std::size_t sent = 0;
  std::vector<Outcome> outcomes;
  std::vector<std::uint8_t> kernel;
  std::vector<std::int64_t> due_ns, sent_ns;
  std::vector<double> lag_us;
  std::int64_t t_start = 0;
  std::string error;
};

std::vector<Planned> plan(std::uint64_t seed, double rate_hz, double seconds) {
  Rng rng(seed);
  std::vector<Planned> p;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate_hz;
    if (t >= seconds) break;
    Planned r;
    r.due_off_ns = static_cast<std::int64_t>(t * 1e9);
    r.kernel = static_cast<std::uint8_t>(rng.next() % 3);
    r.input = static_cast<std::uint8_t>(rng.next() % kInputs);
    p.push_back(r);
  }
  return p;
}

/// Sleeps (no spinning: a spinning generator takes a CPU from the server it
/// measures) until steady-clock time `t`.
void sleep_until_ns(std::int64_t t) {
  const std::int64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

OpenLoopResult run_open_loop(Tier& tier, const Inputs& in, const std::vector<Planned>& p,
                             std::int64_t t_start) {
  OpenLoopResult r;
  r.t_start = t_start;
  const std::size_t n = p.size();
  r.outcomes.assign(n, Outcome{});
  r.due_ns.assign(n, 0);
  r.sent_ns.assign(n, 0);
  r.kernel.resize(n);
  for (std::size_t i = 0; i < n; ++i) r.kernel[i] = p[i].kernel;
  std::unique_ptr<std::atomic<std::int64_t>[]> sent_at(new std::atomic<std::int64_t>[n]);
  for (std::size_t i = 0; i < n; ++i) sent_at[i].store(0, std::memory_order_relaxed);

  sigrt::net::Client c;
  c.connect("127.0.0.1", tier.net->port());
  c.set_receive_timeout_ms(50);
  std::atomic<std::size_t> to_receive{SIZE_MAX};
  std::atomic<bool> abort{false};
  std::string reader_error;

  Threads reader;
  reader.spawn([&] {
    sigrt::net::Client::Response resp;
    std::size_t received = 0;
    std::int64_t give_up = 0;
    while (received < to_receive.load(std::memory_order_acquire)) {
      if (abort.load(std::memory_order_relaxed)) {
        if (give_up == 0) give_up = now_ns() + 3'000'000'000LL;
        if (now_ns() > give_up) break;
      }
      try {
        if (!c.read_response(resp)) {
          reader_error = "server closed the connection";
          break;
        }
      } catch (const std::system_error& e) {
        if (is_timeout(e)) continue;
        reader_error = e.what();
        break;
      } catch (const std::exception& e) {
        reader_error = e.what();
        break;
      }
      const std::int64_t t = now_ns();
      const std::uint32_t id = resp.header.id;
      if (id >= n || r.outcomes[id].answered) {
        reader_error = "response for unknown or repeated id";
        break;
      }
      Outcome& o = r.outcomes[id];
      o.answered = true;
      o.recv_ns = t;
      o.status = resp.header.status;
      o.server_ns = resp.header.server_ns;
      ++received;
      if (o.status == Status::Ok || o.status == Status::OkApprox) {
        if (resp.payload.size() == 32) {
          std::uint64_t rid = 0, sum = 0;
          std::memcpy(&rid, resp.payload.data(), 8);
          std::memcpy(&sum, resp.payload.data() + 8, 8);
          std::memcpy(&o.h0, resp.payload.data() + 16, 8);
          std::memcpy(&o.h1, resp.payload.data() + 24, 8);
          const Planned& pl = p[id];
          o.valid = rid == id &&
                    sum == in.expected[pl.kernel][pl.input][o.status == Status::OkApprox];
        }
      } else {
        o.valid = o.status == Status::Shed || o.status == Status::Expired ||
                  o.status == Status::OkDropped;
      }
      const std::int64_t s = sent_at[id].load(std::memory_order_relaxed);
      if (s != 0) {
        const std::uint64_t rtt = trace::record("net.rtt", s, t, 0, id);
        if (o.h1 > o.h0) trace::record("kern.handler", o.h0, o.h1, rtt, p[id].kernel);
      }
    }
  });

  // Wake on time: the default 50 us timer slack would show up as lag.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  std::vector<std::uint8_t> frame;  // id + input, the request payload
  std::size_t i = 0;
  try {
    while (i < n) {
      sleep_until_ns(r.t_start + p[i].due_off_ns);
      trace::Scope send("gen.send", 0, i);
      const std::int64_t now = now_ns();
      // Everything already due goes out in one flush.
      std::size_t batch = 0;
      while (i < n && r.t_start + p[i].due_off_ns <= now && batch < 64) {
        const std::vector<std::uint8_t>& input = in.payloads[p[i].kernel][p[i].input];
        frame.assign(input.begin(), input.end());
        const std::uint64_t id = i;
        std::memcpy(frame.data(), &id, 8);
        sigrt::net::RequestHeader h;
        h.id = static_cast<std::uint32_t>(i);
        h.cls = tier.classes[p[i].kernel];
        h.kernel = p[i].kernel;
        c.enqueue(h, frame.data(), frame.size());
        r.due_ns[i] = r.t_start + p[i].due_off_ns;
        r.sent_ns[i] = now;
        r.lag_us.push_back(static_cast<double>(now - r.due_ns[i]) * 1e-3);
        sent_at[i].store(now, std::memory_order_relaxed);
        ++i;
        ++batch;
      }
      c.flush();
    }
  } catch (const std::exception& e) {
    r.error = std::string("send: ") + e.what();
    abort.store(true, std::memory_order_relaxed);
  }
  r.sent = i;
  to_receive.store(i, std::memory_order_release);
  abort.store(true, std::memory_order_relaxed);  // bounded drain from here
  reader.join();
  if (r.error.empty() && !reader_error.empty()) r.error = "receive: " + reader_error;
  return r;
}

/// Splits an open-loop schedule round-robin over kOpenConnections
/// connections, each with its own sender (the calling thread drives the
/// first) and reader thread, all against one start time.
std::vector<OpenLoopResult> run_open_loop_split(Tier& tier, const Inputs& in,
                                                const std::vector<Planned>& p) {
  std::vector<std::vector<Planned>> parts(kOpenConnections);
  for (std::size_t i = 0; i < p.size(); ++i) parts[i % kOpenConnections].push_back(p[i]);
  const std::int64_t t_start = now_ns() + 2'000'000;
  std::vector<OpenLoopResult> res(kOpenConnections);
  {
    Threads helpers;
    for (unsigned k = 1; k < kOpenConnections; ++k) {
      helpers.spawn([&, k] {
        try {
          res[k] = run_open_loop(tier, in, parts[k], t_start);
        } catch (const std::exception& e) {
          res[k].error = e.what();
        }
      });
    }
    try {
      res[0] = run_open_loop(tier, in, parts[0], t_start);
    } catch (const std::exception& e) {
      res[0].error = e.what();
    }
  }
  return res;
}

// --- closed-loop peak phase -------------------------------------------------


struct PeakResult {
  std::uint64_t sent = 0, answered = 0, invalid = 0;
  std::vector<std::uint64_t> per_slice;  ///< responses per whole kPeakSliceNs slice
  std::vector<double> flush_us, handler_us;
  std::string error;
};

void peak_connection(std::uint16_t port, std::int64_t t_measure, std::int64_t t_end,
                     std::uint32_t cls, PeakResult& r) {
  sigrt::net::Client c;
  std::array<std::uint8_t, kPeakPayload> payload{};
  for (std::size_t i = 8; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(0xa5u + i);
  }
  std::array<std::uint64_t, 4096> expected{};
  std::uint32_t next_id = 0;
  sigrt::net::RequestHeader h;
  h.cls = cls;
  h.kernel = kFnv;
  const auto send_one = [&] {
    const std::uint64_t id = next_id;
    std::memcpy(payload.data(), &id, 8);
    expected[id & 4095] = fnv1a(payload.data(), payload.size());
    h.id = next_id++;
    c.enqueue(h, payload.data(), payload.size());
    ++r.sent;
  };
  sigrt::net::Client::Response resp;
  const auto read_one = [&]() -> bool {
    for (;;) {
      try {
        if (!c.read_response(resp)) return false;
        break;
      } catch (const std::system_error& e) {
        if (!is_timeout(e)) throw;
        if (now_ns() > t_end + 3'000'000'000LL) return false;
      }
    }
    const std::int64_t t = now_ns();
    ++r.answered;
    if (t >= t_measure && t < t_end) {
      const auto slice = static_cast<std::size_t>((t - t_measure) / kPeakSliceNs);
      if (slice >= r.per_slice.size()) r.per_slice.resize(slice + 1, 0);
      ++r.per_slice[slice];
    }
    std::uint64_t rid = ~0ULL, sum = 0;
    std::int64_t h0 = 0, h1 = 0;
    if (resp.payload.size() == 32) {
      std::memcpy(&rid, resp.payload.data(), 8);
      std::memcpy(&sum, resp.payload.data() + 8, 8);
      std::memcpy(&h0, resp.payload.data() + 16, 8);
      std::memcpy(&h1, resp.payload.data() + 24, 8);
    }
    if (resp.header.status != Status::Ok || rid != resp.header.id ||
        sum != expected[rid & 4095]) {
      ++r.invalid;
    } else if (t >= t_measure && (r.answered & 15) == 0) {
      r.handler_us.push_back(static_cast<double>(h1 - h0) * 1e-3);
    }
    return true;
  };
  try {
    c.connect("127.0.0.1", port);
    c.set_receive_timeout_ms(50);
    for (unsigned i = 0; i < kPeakWindow; ++i) send_one();
    c.flush();
    constexpr unsigned kBatch = kPeakWindow / 2;
    while (now_ns() < t_end) {
      for (unsigned i = 0; i < kBatch; ++i) {
        if (!read_one()) throw std::runtime_error("connection closed");
      }
      for (unsigned i = 0; i < kBatch; ++i) send_one();
      const std::int64_t f0 = now_ns();
      c.flush();
      if (f0 >= t_measure) r.flush_us.push_back(static_cast<double>(now_ns() - f0) * 1e-3);
    }
    while (r.answered < r.sent) {
      if (!read_one()) break;
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
}

// --- closed-loop burst phase -----------------------------------------------

struct BurstResult {
  std::vector<double> op_ms;
  std::uint64_t sent = 0, bad = 0;
  std::string error;
};

/// Closed-loop mix bursts on one connection: each op sends kBurst requests
/// of the three-class mix in one flush and ends when every response is in.
/// Runs on the controller-off tier, so every request is served accurately.
BurstResult run_bursts(Tier& tier, const Inputs& in, std::uint64_t seed, double seconds) {
  BurstResult r;
  Rng rng(seed);
  std::array<std::uint8_t, kBurst> kernel{}, input{};
  std::array<bool, kBurst> seen{};
  std::vector<std::uint8_t> frame;
  sigrt::net::Client c;
  sigrt::net::Client::Response resp;
  try {
    c.connect("127.0.0.1", tier.net->port());
    c.set_receive_timeout_ms(50);
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < end) {
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < kBurst; ++i) {
        kernel[i] = static_cast<std::uint8_t>(rng.next() % 3);
        input[i] = static_cast<std::uint8_t>(rng.next() % kInputs);
        const std::vector<std::uint8_t>& payload = in.payloads[kernel[i]][input[i]];
        frame.assign(payload.begin(), payload.end());
        const std::uint64_t id = i;
        std::memcpy(frame.data(), &id, 8);
        sigrt::net::RequestHeader h;
        h.id = static_cast<std::uint32_t>(i);
        h.cls = tier.classes[0];
        h.kernel = kernel[i];
        c.enqueue(h, frame.data(), frame.size());
      }
      c.flush();
      r.sent += kBurst;
      seen.fill(false);
      std::size_t got = 0;
      std::int64_t last_progress = now_ns();
      while (got < kBurst) {
        try {
          if (!c.read_response(resp)) throw std::runtime_error("server closed the connection");
        } catch (const std::system_error& e) {
          if (!is_timeout(e)) throw;
          if (now_ns() - last_progress > 5'000'000'000LL) {
            throw std::runtime_error("no response for 5 s");
          }
          continue;
        }
        last_progress = now_ns();
        const std::uint32_t id = resp.header.id;
        if (id >= kBurst || seen[id]) throw std::runtime_error("unknown or repeated id");
        seen[id] = true;
        ++got;
        std::uint64_t rid = ~0ULL, sum = 0;
        if (resp.payload.size() == 32) {
          std::memcpy(&rid, resp.payload.data(), 8);
          std::memcpy(&sum, resp.payload.data() + 8, 8);
        }
        const Status st = resp.header.status;
        const bool ok = (st == Status::Ok || st == Status::OkApprox) && rid == id &&
                        sum == in.expected[kernel[id]][input[id]][st == Status::OkApprox];
        r.bad += ok ? 0 : 1;
      }
      r.op_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
  } catch (const std::exception& e) {
    r.error = e.what();
    r.bad += r.sent - r.op_ms.size() * kBurst;  // the unfinished burst
  }
  return r;
}

PeakResult run_peak(Tier& tier, double seconds) {
  const std::int64_t t0 = now_ns();
  const std::int64_t t_measure = t0 + static_cast<std::int64_t>(0.25 * seconds * 1e9);
  const std::int64_t t_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<PeakResult> parts(kPeakConnections);
  {
    Threads threads;
    for (unsigned i = 0; i < kPeakConnections; ++i) {
      threads.spawn(peak_connection, tier.net->port(), t_measure, t_end, tier.classes[0],
                    std::ref(parts[i]));
    }
  }
  PeakResult r;
  r.per_slice.assign(
      std::max<std::int64_t>(1, (t_end - t_measure) / kPeakSliceNs), 0);  // whole slices
  for (PeakResult& p : parts) {
    r.sent += p.sent;
    r.answered += p.answered;
    r.invalid += p.invalid;
    for (std::size_t i = 0; i < std::min(r.per_slice.size(), p.per_slice.size()); ++i) {
      r.per_slice[i] += p.per_slice[i];
    }
    r.flush_us.insert(r.flush_us.end(), p.flush_us.begin(), p.flush_us.end());
    r.handler_us.insert(r.handler_us.end(), p.handler_us.begin(), p.handler_us.end());
    if (r.error.empty()) r.error = p.error;
  }
  return r;
}

// --- set-up -------------------------------------------------------------------

struct Setup {
  Inputs in;
  std::unique_ptr<Tier> nominal, overload, peak;
};

std::unique_ptr<Setup> set_up(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  Rng rng(seed);
  make_inputs(rng, s->in);
  s->nominal = std::make_unique<Tier>(true, true);
  s->overload = std::make_unique<Tier>(true, true);
  s->peak = std::make_unique<Tier>(false, false);
  // Warm-up: pools, framing buffers and response capacities reach their
  // high-water marks before anything is measured.
  const std::vector<Planned> warm = plan(seed ^ 0x77, 2000.0, 0.15);
  run_open_loop_split(*s->nominal, s->in, warm);
  run_open_loop_split(*s->overload, s->in, warm);
  run_peak(*s->peak, 0.15);
  return s;
}

struct ClassTotals {
  std::uint64_t submitted = 0, shed = 0, degraded = 0, perforated = 0, expired = 0,
                served = 0, served_accurate = 0;
};

ClassTotals class_totals(const Tier& t) {
  ClassTotals c;
  for (const auto cls : t.classes) {
    const sigrt::serve::ClassReport r = t.srv->class_report(cls);
    c.submitted += r.submitted + r.shed;
    c.shed += r.shed;
    c.degraded += r.degraded;
    c.perforated += r.perforated;
    c.expired += r.expired;
    c.served += r.served();
    c.served_accurate += r.served_accurate;
  }
  return c;
}


/// Per-slice tallies of one open-loop phase (slices by scheduled time).
struct Slices {
  std::vector<std::vector<double>> lat_ms;  ///< served, from scheduled send
  std::vector<std::uint64_t> good, accurate, approximate;

  void grow(std::size_t n) {
    if (lat_ms.size() >= n) return;
    lat_ms.resize(n);
    good.resize(n, 0);
    accurate.resize(n, 0);
    approximate.resize(n, 0);
  }
  [[nodiscard]] double accurate_share(std::size_t i) const {
    return ratio(accurate[i], accurate[i] + approximate[i]);
  }
  /// Median over slices of a per-slice latency percentile.
  [[nodiscard]] double lat_pct_median(double p) {
    std::vector<double> v;
    for (auto& l : lat_ms) {
      if (l.size() >= 100) v.push_back(percentile(l, p));
    }
    return median(v);
  }
};

}  // namespace

RunOutput run_serve(const Args& args) {
  RunOutput out;
  trace::set_thread_capacity(std::size_t{1} << 17);
  std::vector<double> setups;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    const std::int64_t t0 = now_ns();
    s = set_up(args.seed);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  out.inputs_hash = s->in.hash;
  const sigrt::Runtime* rts[] = {&s->nominal->srv->runtime(), &s->overload->srv->runtime(),
                                 &s->peak->srv->runtime()};
  out.runtime_config = runtime_config_json(
      {{"serve/nominal", rts[0]}, {"serve/overload", rts[1]}, {"serve/peak", rts[2]}});
  out.meter = s->nominal->srv->runtime().meter().name();
  const auto net_counters = [&] {
    sigrt::net::NetServer::Counters c;
    for (const Tier* t : {s->nominal.get(), s->overload.get(), s->peak.get()}) {
      const auto k = t->net->counters();
      c.responses += k.responses;
      c.protocol_errors += k.protocol_errors;
    }
    return c;
  };
  // Counters are read once here, after warm-up, and reported as deltas.
  const CounterSnapshot c0 = snapshot({rts[0], rts[1], rts[2]});
  const auto n0 = net_counters();

  // The three phases run kRounds times, interleaved, so each phase's
  // figures span the whole run instead of one stretch of it.  A traced run
  // traces the second half of each nominal round, so the tracing overhead
  // compares halves run under the same load; overload and peak figures come
  // from counters and the client's own timings.
  std::vector<std::vector<OpenLoopResult>> nominal[2], overload;
  std::vector<PeakResult> peaks;
  BurstResult bursts;
  sigrt::Runtime& nominal_rt = s->nominal->srv->runtime();
  double nominal_joules = 0.0;
  std::uint64_t peak_allocs = 0;
  const ClassTotals o0 = class_totals(*s->overload);
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = args.seed + 1000 * static_cast<std::uint64_t>(round);
    const double nominal_s = kNominalShare * args.seconds / kRounds;
    const double j0 = nominal_rt.meter().joules_now();
    if (args.trace) {
      const std::vector<Planned> half = plan(seed, kNominalHz, nominal_s / 2);
      nominal[0].push_back(run_open_loop_split(*s->nominal, s->in, half));
      trace::arm(true);
      nominal[1].push_back(run_open_loop_split(*s->nominal, s->in, half));
      trace::arm(false);
    } else {
      nominal[0].push_back(
          run_open_loop_split(*s->nominal, s->in, plan(seed, kNominalHz, nominal_s)));
    }
    nominal_joules += nominal_rt.meter().joules_now() - j0;

    overload.push_back(run_open_loop_split(
        *s->overload, s->in,
        plan(seed + 1, kOverloadHz, kOverloadShare * args.seconds / kRounds)));

    BurstResult b = run_bursts(*s->peak, s->in, seed + 2, kBurstShare * args.seconds / kRounds);
    bursts.op_ms.insert(bursts.op_ms.end(), b.op_ms.begin(), b.op_ms.end());
    bursts.sent += b.sent;
    bursts.bad += b.bad;
    if (bursts.error.empty()) bursts.error = b.error;

    const std::uint64_t a0 = alloc::count();
    peaks.push_back(run_peak(*s->peak, kPeakShare * args.seconds / kRounds));
    peak_allocs += alloc::count() - a0;
  }
  const ClassTotals o1 = class_totals(*s->overload);
  double final_ratio = 0.0;
  for (const auto cls : s->overload->classes) {
    final_ratio += s->overload->srv->class_report(cls).ratio /
                   static_cast<double>(s->overload->classes.size());
  }
  const CounterSnapshot c1 = snapshot({rts[0], rts[1], rts[2]});
  const auto n1 = net_counters();
  PeakResult peak;
  for (const PeakResult& p : peaks) {
    peak.sent += p.sent;
    peak.answered += p.answered;
    peak.invalid += p.invalid;
    peak.per_slice.insert(peak.per_slice.end(), p.per_slice.begin(), p.per_slice.end());
    peak.flush_us.insert(peak.flush_us.end(), p.flush_us.begin(), p.flush_us.end());
    peak.handler_us.insert(peak.handler_us.end(), p.handler_us.begin(), p.handler_us.end());
    if (peak.error.empty()) peak.error = p.error;
  }

  // Fold the open-loop outcomes.  `failed` counts wrong outputs, Bad*/
  // Timeout statuses and missing responses; Shed/Expired/OkDropped are the
  // server's designed overload answers and only lower ok_share.
  Slices nominal_slices[2], overload_slices;
  std::vector<double> server_us, wait_us, wire_us, nominal_lag_us, overload_lag_us;
  std::vector<double> handler_us[3];
  std::uint64_t sent[3] = {};    // nominal, traced nominal, overload
  std::uint64_t not_ok[3] = {};  // requests not answered Ok/OkApprox, per phase
  const auto fold = [&](const OpenLoopResult& r, int phase, Slices& sl,
                        std::int64_t slice_ns, std::size_t first_slice,
                        std::size_t slices) {
    sent[phase] += r.sent;
    auto& lag = phase == 2 ? overload_lag_us : nominal_lag_us;
    lag.insert(lag.end(), r.lag_us.begin(), r.lag_us.end());
    if (!r.error.empty()) out.fail("serve: " + r.error);
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < r.sent; ++i) {
      const Outcome& o = r.outcomes[i];
      if (!o.answered || !o.valid) {
        ++bad;
        ++not_ok[phase];
        continue;
      }
      if (o.status != Status::Ok && o.status != Status::OkApprox) {
        ++not_ok[phase];
        continue;
      }
      const std::uint8_t k = r.kernel[i];
      const auto local = static_cast<std::size_t>((r.due_ns[i] - r.t_start) / slice_ns);
      if (local < slices) {  // whole slices only
        const std::size_t slice = first_slice + local;
        const double ms = static_cast<double>(o.recv_ns - r.due_ns[i]) * 1e-6;
        sl.lat_ms[slice].push_back(ms);
        (o.status == Status::Ok ? sl.accurate : sl.approximate)[slice] += 1;
        if (ms <= kDeadlineMs[k]) sl.good[slice] += 1;
      }
      if (o.status == Status::Ok) {
        handler_us[k].push_back(static_cast<double>(o.h1 - o.h0) * 1e-3);
      }
      if (phase == 0) {
        server_us.push_back(static_cast<double>(o.server_ns) * 1e-3);
        wait_us.push_back(static_cast<double>(o.server_ns - (o.h1 - o.h0)) * 1e-3);
        wire_us.push_back(static_cast<double>(o.recv_ns - r.sent_ns[i] - o.server_ns) * 1e-3);
      }
    }
    if (bad != 0) {
      out.failed += bad;
      out.fail("serve: " + std::to_string(bad) +
               " requests with a wrong payload, an error status or no response");
    }
  };
  // Each round's connections share one start time, so they share slices.
  const auto fold_rounds = [&](const std::vector<std::vector<OpenLoopResult>>& rounds,
                               int phase, Slices& sl, std::int64_t slice_ns,
                               double round_s) {
    const auto slices = std::max<std::size_t>(
        1, static_cast<std::size_t>(round_s * 1e9 / static_cast<double>(slice_ns)));
    for (const std::vector<OpenLoopResult>& round : rounds) {
      const std::size_t first = sl.lat_ms.size();
      sl.grow(first + slices);
      for (const OpenLoopResult& r : round) fold(r, phase, sl, slice_ns, first, slices);
    }
  };
  const double nominal_round_s =
      kNominalShare * args.seconds / kRounds / (args.trace ? 2.0 : 1.0);
  fold_rounds(nominal[0], 0, nominal_slices[0], kNominalSliceNs, nominal_round_s);
  fold_rounds(nominal[1], 1, nominal_slices[1], kNominalSliceNs, nominal_round_s);
  fold_rounds(overload, 2, overload_slices, kOverloadSliceNs,
              kOverloadShare * args.seconds / kRounds);
  const std::uint64_t peak_bad = peak.invalid + (peak.sent - peak.answered);
  if (!peak.error.empty()) out.fail("serve peak: " + peak.error);
  if (peak_bad != 0) {
    out.failed += peak_bad;
    out.fail("serve peak: " + std::to_string(peak_bad) + " wrong or missing responses");
  }
  if (!bursts.error.empty()) out.fail("serve bursts: " + bursts.error);
  if (bursts.bad != 0) {
    out.failed += bursts.bad;
    out.fail("serve bursts: " + std::to_string(bursts.bad) + " wrong or missing responses");
  }
  out.attempted = sent[0] + sent[1] + sent[2] + bursts.sent + peak.sent;

  // Generator validity: at nominal load the generator must hold its
  // schedule to within the tightest class deadline at p99.  (In overload it
  // shares CPUs with a saturated server by design; its lag is reported and
  // already counted in latency, which runs from the scheduled send time.)
  const double lag_p99 = percentile(nominal_lag_us, 0.99);
  if (lag_p99 > kLagBoundUs) {
    out.fail("serve: nominal generator lag p99 " + std::to_string(lag_p99) +
             " us exceeds the bound; the run is invalid");
  }

  // End-to-end values are medians over fixed time slices of each phase, so
  // a stall that hits a few slices moves a run's figure little.
  std::vector<double> good_hz, nominal_acc, overload_good, overload_acc, peak_hz;
  for (std::size_t i = 0; i < nominal_slices[0].good.size(); ++i) {
    good_hz.push_back(static_cast<double>(nominal_slices[0].good[i]) /
                      (static_cast<double>(kNominalSliceNs) * 1e-9));
    nominal_acc.push_back(nominal_slices[0].accurate_share(i));
  }
  for (std::size_t i = 0; i < overload_slices.good.size(); ++i) {
    const std::uint64_t served = overload_slices.accurate[i] + overload_slices.approximate[i];
    overload_good.push_back(ratio(overload_slices.good[i], served));
    overload_acc.push_back(overload_slices.accurate_share(i));
  }
  for (const std::uint64_t n : peak.per_slice) {
    peak_hz.push_back(static_cast<double>(n) / (kPeakSliceNs * 1e-9));
  }
  const std::uint64_t tasks = c1.spawned - c0.spawned;
  const std::uint64_t submitted = o1.submitted - o0.submitted;
  out.add("setup_s", median(setups), "s");
  json_raw(out.record, "setups_s", json_array(setups));
  std::vector<double> op_ms = bursts.op_ms;
  out.add("op_ms_p50", percentile(op_ms, 0.50), "ms");
  out.add("op_ms_p90", percentile(op_ms, 0.90), "ms");
  out.add("op_ms_p99", percentile(op_ms, 0.99), "ms");  // record only
  out.add("energy_j", ratio(1, sent[0] + sent[1]) * nominal_joules, "J");
  out.add("accurate_share", median(nominal_acc), "ratio");
  // Shedding is the designed answer to overload, so ok_share covers the
  // nominal, burst and peak phases; overload shares are per-layer metrics.
  out.add("ok_share",
          1.0 - ratio(not_ok[0] + bursts.bad + peak_bad, sent[0] + bursts.sent + peak.sent),
          "ratio");
  out.add("goodput_hz", median(good_hz), "1/s");
  out.add("tasks_per_s", static_cast<double>(kBurst) / (percentile(op_ms, 0.50) * 1e-3), "1/s");

  for (std::uint32_t k = 0; k < 3; ++k) {
    out.add(std::string("kern.handler_") + kKernelNames[k] + "_us_p50",
            percentile(handler_us[k], 0.5), "us");
  }
  std::vector<double> fnv_us = peak.handler_us;
  out.add("kern.handler_fnv_us_p50", percentile(fnv_us, 0.5), "us");
  out.add("serve.nominal_lat_us_p50", nominal_slices[0].lat_pct_median(0.50) * 1e3, "us");
  out.add("serve.nominal_lat_us_p99", nominal_slices[0].lat_pct_median(0.99) * 1e3, "us");
  out.add("serve.server_us_p50", percentile(server_us, 0.50), "us");
  out.add("serve.server_us_p99", percentile(server_us, 0.99), "us");
  out.add("serve.wait_us_p50", percentile(wait_us, 0.50), "us");
  out.add("serve.shed_share", ratio(o1.shed - o0.shed, submitted), "ratio");
  out.add("serve.degraded_share", ratio(o1.degraded - o0.degraded, submitted), "ratio");
  out.add("serve.perforated_share", ratio(o1.perforated - o0.perforated, submitted), "ratio");
  out.add("serve.expired_share", ratio(o1.expired - o0.expired, submitted), "ratio");
  out.add("serve.final_ratio", final_ratio, "ratio");
  out.add("serve.overload_accurate_share", median(overload_acc), "ratio");
  out.add("serve.overload_in_deadline_share", median(overload_good), "ratio");
  out.add("net.wire_us_p50", percentile(wire_us, 0.50), "us");
  out.add("net.wire_us_p99", percentile(wire_us, 0.99), "us");
  std::vector<double> peak_flush = peak.flush_us;
  out.add("net.flush_us_p50", percentile(peak_flush, 0.50), "us");
  out.add("net.peak_req_per_s", median(peak_hz), "1/s");
  out.add("net.responses_per_sent", ratio(n1.responses - n0.responses, out.attempted), "ratio");
  out.add("net.protocol_errors", static_cast<double>(n1.protocol_errors - n0.protocol_errors),
          "count");
  out.add("gen.lag_us_p99", lag_p99, "us");
  out.add("core.steals_per_task", ratio(c1.steals - c0.steals, tasks), "count");
  out.add("core.inline_spawns_per_task", ratio(c1.inline_spawns - c0.inline_spawns, tasks),
          "count");
  out.add("core.handoffs_per_op", ratio(c1.handoffs - c0.handoffs, out.attempted), "count");
  out.add("core.invol_csw_per_task", ratio(c1.invol_csw - c0.invol_csw, tasks), "count");
  out.add("alloc.per_op", ratio(peak_allocs, peak.sent), "count");
  out.add("energy.busy_ms_per_op",
          (c1.busy_s - c0.busy_s) * 1e3 / static_cast<double>(out.attempted), "ms");

  if (args.trace) {
    std::vector<trace::Span> spans;
    trace::drain(spans);
    trace::SelfTimes st;
    trace::add_self_times(spans, st);
    const double traced_requests = static_cast<double>(sent[1]);
    out.add("trace.overhead_share",
            nominal_slices[1].lat_pct_median(0.5) / nominal_slices[0].lat_pct_median(0.5) - 1.0,
            "ratio");
    out.add("trace.nest_errors", static_cast<double>(st.nest_errors), "count");
    out.add("trace.dropped_spans", static_cast<double>(trace::dropped()), "count");
    out.add("trace.spans_per_op", static_cast<double>(spans.size()) / traced_requests, "count");
    if (st.nest_errors != 0) out.fail("trace: spans not nested inside their parent");
    if (trace::dropped() != 0) out.fail("trace: span buffers overflowed");
    if (!args.out_dir.empty()) {
      const std::string base = args.out_dir + "/serve-seed" + std::to_string(args.seed);
      std::sort(spans.begin(), spans.end(),
                [](const trace::Span& a, const trace::Span& b) { return a.t0 < b.t0; });
      spans.resize(std::min<std::size_t>(spans.size(), 20000));  // the earliest
      if (!trace::write_chrome_json(base + ".trace.json", spans) ||
          !trace::write_self_time_table(base + ".selftime.txt", st, traced_requests)) {
        out.fail("trace: cannot write " + base + ".*");
      }
      json_member(out.record, "trace_files", base + ".{trace.json,selftime.txt}");
    }
  }

  std::string& r = out.record;
  json_member(r, "nominal_hz", kNominalHz);
  json_member(r, "overload_hz", kOverloadHz);
  json_member(r, "lag_bound_us", kLagBoundUs);
  json_member(r, "overload_lag_us_p99", percentile(overload_lag_us, 0.99));
  json_member(r, "overload_sent", static_cast<double>(sent[2]));
  json_member(r, "overload_shed_share", ratio(o1.shed - o0.shed, submitted));
  json_member(r, "peak_sent", static_cast<double>(peak.sent));
  return out;
}

}  // namespace pb
