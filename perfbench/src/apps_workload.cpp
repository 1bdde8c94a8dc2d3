// `apps` workload: one op is one pass over four paper programs at the
// Medium degree, each written the way Listing 1 writes it, on one
// long-lived Runtime per policy (GTB: Sobel, Jacobi; LQH: DCT, K-means).
// Closed loop; the main thread is the only producer.  Every op's outputs
// are checked against serial accurate references computed at set-up.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "apps/dct.hpp"
#include "apps/jacobi.hpp"
#include "apps/kernels.hpp"
#include "apps/kmeans.hpp"
#include "apps/sobel.hpp"
#include "common.hpp"
#include "core/runtime.hpp"
#include "metrics/quality.hpp"
#include "support/image.hpp"
#include "trace.hpp"
#include "workload_util.hpp"

namespace pb {
namespace {

using sigrt::GroupId;
using sigrt::Runtime;
using sigrt::support::Image;
namespace kern = sigrt::apps::kern;

constexpr std::size_t kImage = 512;        // Sobel and DCT: 512 x 512
constexpr std::size_t kBlock = 8;          // DCT block edge
constexpr std::size_t kBands = 15;         // DCT zig-zag diagonals
constexpr std::size_t kJacobiN = 1024;
constexpr std::size_t kJacobiRowBlock = 64;
constexpr std::size_t kJacobiApproxSweeps = 5;  // §4.1: first sweeps approximate
constexpr std::size_t kJacobiSweeps = 25;       // fixed: same work every op
constexpr std::size_t kJacobiBand = 128;
constexpr std::size_t kPoints = 8192;
constexpr std::size_t kDims = 16;
constexpr std::size_t kClusters = 8;
constexpr std::size_t kChunk = 64;
constexpr std::size_t kKmeansIterations = 10;  // fixed: same work every op
constexpr std::size_t kWarmupOps = 3;
constexpr int kSetups = 5;
constexpr std::size_t kMinOps = 100;  // p90 needs ten samples beyond it
/// Clause-carrying spawns per op: Sobel rows, Jacobi row blocks, DCT tasks.
constexpr std::uint64_t kClauseTasksPerOp =
    (kImage - 2) + kJacobiSweeps * (kJacobiN / kJacobiRowBlock) +
    (kImage / kBlock) * kBands;

// --- inputs -----------------------------------------------------------------

/// Smooth gradients, rings and seeded texture: edges for Sobel, energy in
/// every DCT band.  Frequencies and phases come from the seed.
Image make_image(Rng& rng) {
  Image img(kImage, kImage);
  const double fx = rng.uniform(0.01, 0.05), fy = rng.uniform(0.01, 0.05);
  const double fr = rng.uniform(0.05, 0.15);
  const double px = rng.uniform(0.0, 6.28), py = rng.uniform(0.0, 6.28);
  const double cx = rng.uniform(100.0, 400.0), cy = rng.uniform(100.0, 400.0);
  for (std::size_t y = 0; y < kImage; ++y) {
    for (std::size_t x = 0; x < kImage; ++x) {
      const double r = std::hypot(static_cast<double>(x) - cx,
                                   static_cast<double>(y) - cy);
      const double v = 128.0 +
                       60.0 * std::sin(static_cast<double>(x) * fx + px) *
                           std::cos(static_cast<double>(y) * fy + py) +
                       35.0 * std::sin(r * fr) + rng.uniform(-20.0, 20.0);
      img.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  }
  return img;
}

/// Dense diagonally dominant system whose off-diagonal weight decays with
/// the distance from the diagonal (the property Jacobi's band
/// approximation relies on, §4.1).
struct System {
  std::vector<double> a;  // n x n row-major
  std::vector<double> b;
};

System make_system(Rng& rng) {
  System s;
  s.a.assign(kJacobiN * kJacobiN, 0.0);
  s.b.assign(kJacobiN, 0.0);
  for (std::size_t i = 0; i < kJacobiN; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < kJacobiN; ++j) {
      if (i == j) continue;
      const double dist = static_cast<double>(i > j ? i - j : j - i);
      const double v = rng.uniform() / (1.0 + 0.05 * dist);
      s.a[i * kJacobiN + j] = v;
      off += v;
    }
    s.a[i * kJacobiN + i] = off * 1.15 + 1.0;
    s.b[i] = rng.uniform(-1.0, 1.0) * static_cast<double>(kJacobiN);
  }
  return s;
}

/// Gaussian blobs separated along every dimension, so a 1/8-dimension
/// distance still assigns most points correctly (§4.1).
std::vector<double> make_points(Rng& rng) {
  std::vector<double> centers(kClusters * kDims);
  for (std::size_t c = 0; c < kClusters; ++c) {
    const double base =
        (static_cast<double>(c) - static_cast<double>(kClusters - 1) / 2.0) * 8.0;
    for (std::size_t d = 0; d < kDims; ++d) {
      centers[c * kDims + d] = base + rng.uniform(-1.0, 1.0);
    }
  }
  std::vector<double> pts(kPoints * kDims);
  for (std::size_t i = 0; i < kPoints; ++i) {
    const std::size_t c = i % kClusters;
    for (std::size_t d = 0; d < kDims; ++d) {
      pts[i * kDims + d] = centers[c * kDims + d] + 2.2 * rng.normal();
    }
  }
  return pts;
}

// --- kernels as the task bodies call them ------------------------------------

struct DctTables {
  std::array<double, kBlock * kBlock> ct{};
  std::array<double, kBlock> alpha{};
  DctTables() {
    constexpr double kPi = 3.14159265358979323846;
    for (std::size_t u = 0; u < kBlock; ++u) {
      for (std::size_t x = 0; x < kBlock; ++x) {
        ct[u * kBlock + x] = std::cos((2.0 * static_cast<double>(x) + 1.0) *
                                      static_cast<double>(u) * kPi /
                                      (2.0 * static_cast<double>(kBlock)));
      }
      alpha[u] = u == 0 ? std::sqrt(1.0 / static_cast<double>(kBlock))
                        : std::sqrt(2.0 / static_cast<double>(kBlock));
    }
  }
};
const DctTables& dct_tables() {
  static const DctTables t;
  return t;
}

/// One DCT band for every block of one stripe of block rows.
void dct_stripe_band(float* coeffs, const std::uint8_t* img, std::size_t by,
                     std::size_t band) {
  const DctTables& t = dct_tables();
  const std::size_t blocks_x = kImage / kBlock;
  for (std::size_t bx = 0; bx < blocks_x; ++bx) {
    float* block = coeffs + (by * blocks_x + bx) * kBlock * kBlock;
    kern::dct_block_band(block, img, kImage, bx * kBlock, by * kBlock, band,
                         t.ct.data(), t.alpha.data());
  }
}

/// Jacobi row-block update; `band` == 0 is the accurate full row, otherwise
/// only the diagonal band is summed (the approximate body, §4.1).
void jacobi_rows(const System* s, const double* x, double* x_new,
                 std::size_t lo, std::size_t hi, std::size_t band) {
  for (std::size_t i = lo; i < hi; ++i) {
    const double* row = s->a.data() + i * kJacobiN;
    const std::size_t j0 = band == 0 ? 0 : (i > band ? i - band : 0);
    const std::size_t j1 = band == 0 ? kJacobiN : std::min(kJacobiN, i + band + 1);
    double acc = kern::dot_span(row + j0, x + j0, j1 - j0);
    acc -= row[i] * x[i];
    x_new[i] = (s->b[i] - acc) / row[i];
  }
}

struct KMeans {
  const double* pts = nullptr;
  std::vector<double> centroids;
  std::vector<double> sums;            // chunks x (k*dims)
  std::vector<std::uint32_t> counts;   // chunks x k
  static constexpr std::size_t kChunks = kPoints / kChunk;

  void reset(const double* p, const std::vector<double>& init) {
    pts = p;
    centroids = init;
    sums.assign(kChunks * kClusters * kDims, 0.0);
    counts.assign(kChunks * kClusters, 0);
  }
  void chunk(std::size_t c, bool accurate) {
    double* s = sums.data() + c * kClusters * kDims;
    std::uint32_t* n = counts.data() + c * kClusters;
    std::fill(s, s + kClusters * kDims, 0.0);
    std::fill(n, n + kClusters, 0u);
    const std::size_t use = accurate ? kDims : std::max<std::size_t>(1, kDims / 8);
    for (std::size_t i = c * kChunk; i < (c + 1) * kChunk; ++i) {
      const double* p = pts + i * kDims;
      const std::size_t best =
          kern::nearest_centroid(p, centroids.data(), kClusters, kDims, use);
      for (std::size_t d = 0; d < kDims; ++d) s[best * kDims + d] += p[d];
      ++n[best];
    }
  }
  /// Master-side reduction of the chunk partials into new centroids.
  void reduce() {
    std::array<double, kClusters * kDims> total{};
    std::array<std::uint64_t, kClusters> n{};
    for (std::size_t c = 0; c < kChunks; ++c) {
      for (std::size_t j = 0; j < kClusters * kDims; ++j) {
        total[j] += sums[c * kClusters * kDims + j];
      }
      for (std::size_t k = 0; k < kClusters; ++k) n[k] += counts[c * kClusters + k];
    }
    for (std::size_t k = 0; k < kClusters; ++k) {
      if (n[k] == 0) continue;
      for (std::size_t d = 0; d < kDims; ++d) {
        centroids[k * kDims + d] = total[k * kDims + d] / static_cast<double>(n[k]);
      }
    }
  }
};

std::vector<double> initial_centroids(const std::vector<double>& pts) {
  std::vector<double> c(kClusters * kDims);
  for (std::size_t k = 0; k < kClusters; ++k) {
    const std::size_t pick = (k * 37 + 11) % kPoints;
    std::copy_n(pts.begin() + static_cast<std::ptrdiff_t>(pick * kDims), kDims,
                c.begin() + static_cast<std::ptrdiff_t>(k * kDims));
  }
  return c;
}

// --- serial references -------------------------------------------------------

std::vector<double> jacobi_serial(const System& s) {
  std::vector<double> x(kJacobiN, 0.0), x_new(kJacobiN, 0.0);
  for (std::size_t sweep = 0; sweep < kJacobiSweeps; ++sweep) {
    jacobi_rows(&s, x.data(), x_new.data(), 0, kJacobiN, 0);
    std::swap(x, x_new);
  }
  return x;
}

std::vector<double> kmeans_serial(const std::vector<double>& pts,
                                  const std::vector<double>& init,
                                  bool accurate) {
  KMeans km;
  km.reset(pts.data(), init);
  for (std::size_t it = 0; it < kKmeansIterations; ++it) {
    for (std::size_t c = 0; c < KMeans::kChunks; ++c) km.chunk(c, accurate);
    km.reduce();
  }
  return km.centroids;
}

/// PSNR^-1 of DCT coefficients against the reference, computed in the
/// coefficient domain: the 8x8 transform is orthonormal, so by Parseval the
/// coefficient MSE equals the MSE of the (unrounded) reconstructions.
double dct_quality(const std::vector<float>& ref, const float* cand) {
  double se = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double d = static_cast<double>(cand[i]) - static_cast<double>(ref[i]);
    se += d * d;
  }
  const double mse = se / static_cast<double>(ref.size());
  if (mse == 0.0) return 0.0;
  return sigrt::metrics::inverse_psnr(10.0 * std::log10(255.0 * 255.0 / mse));
}

// --- the workload ------------------------------------------------------------

std::size_t blocks_of(const void* p, std::size_t bytes, std::size_t block) {
  if (bytes == 0) return 0;
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  return (a + bytes - 1) / block - a / block + 1;
}

struct Apps {
  // Inputs and references.
  Image img;
  System sys;
  std::vector<double> pts, init;
  Image sobel_ref;
  std::vector<float> dct_ref;
  std::vector<double> jacobi_ref, kmeans_ref;
  // Medium bounds (see README: each is the quality the Medium degree would
  // reach if the policy approximated every task it is allowed to).
  double sobel_bound = 0, dct_bound = 0, jacobi_bound = 0, kmeans_bound = 0;
  double serial_ms = 0;

  // Outputs.
  Image sobel_out;
  std::vector<float> dct_out;
  std::vector<double> x, x_new;
  KMeans km;

  std::unique_ptr<Runtime> gtb, lqh;
  GroupId g_sobel = 0, g_jacobi = 0, g_dct = 0, g_kmeans = 0;
};

void prepare_outputs(Apps& a) {
  for (std::size_t y = 1; y + 1 < kImage; ++y) {
    std::memset(a.sobel_out.row(y) + 1, 0xa5, kImage - 2);  // poison interior
  }
  std::fill(a.dct_out.begin(), a.dct_out.end(), 0.0f);  // dropped bands stay 0
  std::fill(a.x.begin(), a.x.end(), 0.0);
  std::fill(a.x_new.begin(), a.x_new.end(), 0.0);
  a.km.reset(a.pts.data(), a.init);
}

/// One op: Sobel + Jacobi under GTB, DCT + K-means under LQH.  Returns the
/// joules the two runtimes' meters charged to it.
double run_op(Apps& a) {
  const std::size_t bb = a.gtb->config().block_bytes;
  trace::Scope op("op.pass");
  double joules = 0.0;
  {
    const double j0 = a.gtb->meter().joules_now();
    // Sobel (Listing 1): row tasks, in(whole image), out(row).
    const std::uint8_t* img = a.img.data();
    std::uint8_t* res = a.sobel_out.data();
    for (std::size_t i = 1; i + 1 < kImage; ++i) {
      trace::Scope sp("core.spawn");
      const std::uint64_t link = sp.id();
      if (trace::armed()) {
        sp.set_arg(blocks_of(img, kImage * kImage, bb) +
                   blocks_of(res + i * kImage, kImage, bb));
      }
      a.gtb->spawn(
          sigrt::task([res, img, i, link] {
            trace::Scope b("task.body", link);
            trace::Scope k("kern.sobel");
            kern::sobel_row_accurate(res, img, kImage, i, 1, kImage - 1);
          })
              .approx([res, img, i, link] {
                trace::Scope b("task.body", link);
                trace::Scope k("kern.sobel", 0, 1);
                kern::sobel_row_approx(res, img, kImage, i, 1, kImage - 1);
              })
              .significance(static_cast<double>(i % 9 + 1) / 10.0)
              .group(a.g_sobel)
              .in(img, kImage * kImage)
              .out(res + i * kImage, kImage));
    }
    {
      trace::Scope w("core.wait");
      a.gtb->wait_group(a.g_sobel);
    }
    // Jacobi: approximate leading sweeps, then accurate ones.
    const System* sys = &a.sys;
    for (std::size_t s = 0; s < kJacobiSweeps; ++s) {
      a.gtb->set_ratio(a.g_jacobi, s < kJacobiApproxSweeps ? 0.0 : 1.0);
      const double* xp = a.x.data();
      double* xn = a.x_new.data();
      for (std::size_t lo = 0; lo < kJacobiN; lo += kJacobiRowBlock) {
        const std::size_t hi = lo + kJacobiRowBlock;
        trace::Scope sp("core.spawn");
        const std::uint64_t link = sp.id();
        if (trace::armed()) {
          sp.set_arg(blocks_of(sys->a.data() + lo * kJacobiN,
                               kJacobiRowBlock * kJacobiN * sizeof(double), bb) +
                     blocks_of(xp, kJacobiN * sizeof(double), bb) +
                     blocks_of(xn + lo, kJacobiRowBlock * sizeof(double), bb));
        }
        a.gtb->spawn(sigrt::task([sys, xp, xn, lo, hi, link] {
                       trace::Scope b("task.body", link);
                       trace::Scope k("kern.jacobi");
                       jacobi_rows(sys, xp, xn, lo, hi, 0);
                     })
                         .approx([sys, xp, xn, lo, hi, link] {
                           trace::Scope b("task.body", link);
                           trace::Scope k("kern.jacobi", 0, 1);
                           jacobi_rows(sys, xp, xn, lo, hi, kJacobiBand);
                         })
                         .significance(0.5)
                         .group(a.g_jacobi)
                         .in(sys->a.data() + lo * kJacobiN, kJacobiRowBlock * kJacobiN)
                         .in(xp, kJacobiN)
                         .out(xn + lo, kJacobiRowBlock));
      }
      {
        trace::Scope w("core.wait");
        a.gtb->wait_group(a.g_jacobi);
      }
      std::swap(a.x, a.x_new);
    }
    joules += a.gtb->meter().joules_now() - j0;
  }
  {
    const double j0 = a.lqh->meter().joules_now();
    // DCT: stripe x band tasks, whole-image in, stripe out; drop-style.
    const std::uint8_t* img = a.img.data();
    float* cf = a.dct_out.data();
    const std::size_t stripe = (kImage / kBlock) * kBlock * kBlock;
    for (std::size_t by = 0; by < kImage / kBlock; ++by) {
      for (std::size_t band = 0; band < kBands; ++band) {
        trace::Scope sp("core.spawn");
        const std::uint64_t link = sp.id();
        if (trace::armed()) {
          sp.set_arg(blocks_of(img, kImage * kImage, bb) +
                     blocks_of(cf + by * stripe, stripe * sizeof(float), bb));
        }
        a.lqh->spawn(sigrt::task([cf, img, by, band, link] {
                       trace::Scope b("task.body", link);
                       trace::Scope k("kern.dct");
                       dct_stripe_band(cf, img, by, band);
                     })
                         .significance(sigrt::apps::dct::band_significance(band))
                         .group(a.g_dct)
                         .in(img, kImage * kImage)
                         .out(cf + by * stripe, stripe));
      }
    }
    {
      trace::Scope w("core.wait");
      a.lqh->wait_group(a.g_dct);
    }
    // K-means: clause-free chunk tasks, one barrier per iteration.
    KMeans* km = &a.km;
    for (std::size_t it = 0; it < kKmeansIterations; ++it) {
      for (std::size_t c = 0; c < KMeans::kChunks; ++c) {
        trace::Scope sp("core.spawn");
        const std::uint64_t link = sp.id();
        a.lqh->spawn(sigrt::task([km, c, link] {
                       trace::Scope b("task.body", link);
                       trace::Scope k("kern.kmeans");
                       km->chunk(c, true);
                     })
                         .approx([km, c, link] {
                           trace::Scope b("task.body", link);
                           trace::Scope k("kern.kmeans", 0, 1);
                           km->chunk(c, false);
                         })
                         .significance(0.5)
                         .group(a.g_kmeans));
      }
      {
        trace::Scope w("core.wait");
        a.lqh->wait_group(a.g_kmeans);
      }
      trace::Scope r("op.reduce");
      km->reduce();
    }
    joules += a.lqh->meter().joules_now() - j0;
  }
  return joules;
}

struct Quality {
  double sobel = 0, dct = 0, jacobi = 0, kmeans = 0;
  [[nodiscard]] double worst() const {
    return std::max({sobel, dct, jacobi, kmeans});
  }
};

Quality check(const Apps& a) {
  using sigrt::metrics::inverse_psnr;
  using sigrt::metrics::psnr_db;
  using sigrt::metrics::relative_l2_error;
  Quality q;
  q.sobel = inverse_psnr(psnr_db(a.sobel_ref, a.sobel_out)) / a.sobel_bound;
  q.dct = dct_quality(a.dct_ref, a.dct_out.data()) / a.dct_bound;
  q.jacobi = relative_l2_error(a.jacobi_ref, a.x) / a.jacobi_bound;
  q.kmeans = relative_l2_error(a.kmeans_ref, a.km.centroids) / a.kmeans_bound;
  return q;
}

/// Inputs, serial references and bounds, both runtimes, warm-up ops.
std::unique_ptr<Apps> set_up(std::uint64_t seed, bool measure_serial) {
  auto a = std::make_unique<Apps>();
  Rng rng(seed);
  a->img = make_image(rng);
  a->sys = make_system(rng);
  a->pts = make_points(rng);
  a->init = initial_centroids(a->pts);

  const std::int64_t s0 = now_ns();
  a->sobel_ref = sigrt::apps::sobel::reference(a->img);
  a->dct_ref = sigrt::apps::dct::reference(a->img);
  a->jacobi_ref = jacobi_serial(a->sys);
  a->kmeans_ref = kmeans_serial(a->pts, a->init, true);
  if (measure_serial) a->serial_ms = static_cast<double>(now_ns() - s0) * 1e-6;

  using sigrt::metrics::inverse_psnr;
  using sigrt::metrics::psnr_db;
  // Sobel: every row approximate (no row has significance 1).
  a->sobel_bound =
      inverse_psnr(psnr_db(a->sobel_ref, sigrt::apps::sobel::reference_approx(a->img)));
  // DCT: only the significance-1 DC band kept; every other band dropped.
  std::vector<float> dc_only(a->dct_ref.size(), 0.0f);
  for (std::size_t i = 0; i < dc_only.size(); i += kBlock * kBlock) dc_only[i] = a->dct_ref[i];
  a->dct_bound = dct_quality(a->dct_ref, dc_only.data());
  // Jacobi: Table 1's Medium tolerance, as a relative error.
  a->jacobi_bound = sigrt::apps::jacobi::tolerance_for(sigrt::apps::Degree::Medium);
  // K-means: every chunk approximate in every iteration.
  a->kmeans_bound = sigrt::metrics::relative_l2_error(
      a->kmeans_ref, kmeans_serial(a->pts, a->init, false));

  a->sobel_out = Image(kImage, kImage);
  a->dct_out.assign(a->dct_ref.size(), 0.0f);
  a->x.assign(kJacobiN, 0.0);
  a->x_new.assign(kJacobiN, 0.0);

  // Half the CPUs per runtime (only one runtime works at a time): the main
  // thread is the only producer and spends most of a pass inside spawn, so
  // it keeps a CPU of its own.  With a worker per CPU the pass ran ~20%
  // slower and its time spread about twice as wide across runs.
  const unsigned workers = std::max(1u, sigrt::RuntimeConfig::default_workers() / 2);
  a->gtb = std::make_unique<Runtime>(
      sigrt::RuntimeConfig{.workers = workers, .policy = sigrt::PolicyKind::GTB});
  a->lqh = std::make_unique<Runtime>(
      sigrt::RuntimeConfig{.workers = workers, .policy = sigrt::PolicyKind::LQH});
  using sigrt::apps::Degree;
  a->g_sobel = a->gtb->create_group("sobel", sigrt::apps::sobel::ratio_for(Degree::Medium));
  a->g_jacobi = a->gtb->create_group("jacobi", 1.0);
  a->g_dct = a->lqh->create_group("dct", sigrt::apps::dct::ratio_for(Degree::Medium));
  a->g_kmeans =
      a->lqh->create_group("kmeans", sigrt::apps::kmeans::ratio_for(Degree::Medium));
  for (std::size_t i = 0; i < kWarmupOps; ++i) {
    prepare_outputs(*a);
    run_op(*a);
  }
  return a;
}

}  // namespace

RunOutput run_apps(const Args& args) {
  RunOutput out;
  std::vector<double> setups;
  std::unique_ptr<Apps> a;
  for (int i = 0; i < kSetups; ++i) {
    a.reset();
    const std::int64_t t0 = now_ns();
    a = set_up(args.seed, i == kSetups - 1);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  out.inputs_hash = fnv1a(a->img.data(), a->img.size(),
                          fnv1a(a->sys.b.data(), a->sys.b.size() * sizeof(double),
                                fnv1a(a->pts.data(), a->pts.size() * sizeof(double))));
  out.runtime_config = runtime_config_json({{"apps/gtb", a->gtb.get()}, {"apps/lqh", a->lqh.get()}});
  out.meter = a->gtb->meter().name();

  // Counters are read once here, after warm-up, and reported as deltas.
  const auto groups = {std::pair<const Runtime*, GroupId>{a->gtb.get(), a->g_sobel},
                       {a->gtb.get(), a->g_jacobi},
                       {a->lqh.get(), a->g_dct},
                       {a->lqh.get(), a->g_kmeans}};
  const CounterSnapshot c0 = snapshot({a->gtb.get(), a->lqh.get()});
  const GroupSnapshot g0 = group_totals(groups);

  OpLoop loop(args, kMinOps);
  TraceAnalysis ta(a->gtb->config().workers);
  std::vector<double> worst, q_sobel, q_dct, q_jacobi, q_kmeans;
  double joules = 0.0;
  std::uint64_t allocs = 0, untraced_ok = 0;
  while (loop.next()) {
    prepare_outputs(*a);
    const std::uint64_t n0 = alloc::count();
    const std::int64_t t0 = now_ns();
    const double j = run_op(*a);
    const std::int64_t t1 = now_ns();
    const std::uint64_t n1 = alloc::count();
    loop.record(t0, t1);
    const Quality q = check(*a);
    const bool ok = q.worst() < 1.0;  // NaN fails too
    worst.push_back(q.worst());
    q_sobel.push_back(q.sobel);
    q_dct.push_back(q.dct);
    q_jacobi.push_back(q.jacobi);
    q_kmeans.push_back(q.kmeans);
    ++out.attempted;
    if (!loop.traced_op()) {
      allocs += n1 - n0;
      joules += j;
      untraced_ok += ok ? 1 : 0;
    }
    if (!ok) {
      ++out.failed;
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "apps op %llu quality/bound: sobel %.3f dct %.3f jacobi %.3f "
                    "kmeans %.3f",
                    static_cast<unsigned long long>(out.attempted), q.sobel,
                    q.dct, q.jacobi, q.kmeans);
      out.fail(buf);
    }
    if (loop.traced_op()) ta.consume(t0, t1);
  }
  const CounterSnapshot c1 = snapshot({a->gtb.get(), a->lqh.get()});
  const GroupSnapshot dg = group_totals(groups) - g0;

  const auto untraced = static_cast<double>(loop.untraced_count());
  const double p50 = loop.untraced_pct_ms(0.50);
  const std::uint64_t tasks = c1.spawned - c0.spawned;
  out.add("setup_s", median(setups), "s");
  json_raw(out.record, "setups_s", json_array(setups));
  out.add("op_ms_p50", p50, "ms");
  out.add("op_ms_p90", loop.untraced_pct_ms(0.90), "ms");
  out.add("energy_j", untraced > 0 ? joules / untraced : 0.0, "J");
  out.add("accurate_share", dg.accurate_share(), "ratio");
  out.add("ok_share", 1.0 - ratio(out.failed, out.attempted), "ratio");
  out.add("goodput_hz", static_cast<double>(untraced_ok) / loop.untraced_seconds(), "1/s");
  out.add("tasks_per_s", static_cast<double>(tasks) / loop.all_seconds(), "1/s");

  out.add("core.steals_per_task", ratio(c1.steals - c0.steals, tasks), "count");
  out.add("core.inline_spawns_per_task", ratio(c1.inline_spawns - c0.inline_spawns, tasks),
          "count");
  out.add("core.handoffs_per_op", ratio(c1.handoffs - c0.handoffs, out.attempted), "count");
  out.add("core.invol_csw_per_task", ratio(c1.invol_csw - c0.invol_csw, tasks), "count");
  out.add("core.speedup_vs_serial", a->serial_ms / p50, "ratio");
  out.add("policy.ratio_diff", dg.ratio_diff, "ratio");
  out.add("policy.inversion_fraction", dg.inversion_fraction, "ratio");
  out.add("policy.quality_loss", median(worst), "ratio");
  out.add("dep.edges_per_task",
          ratio(c1.dep_edges - c0.dep_edges, out.attempted * kClauseTasksPerOp), "count");
  out.add("energy.busy_ms_per_op",
          (c1.busy_s - c0.busy_s) * 1e3 / static_cast<double>(out.attempted), "ms");
  out.add("alloc.per_op", untraced > 0 ? static_cast<double>(allocs) / untraced : 0.0,
          "count");
  // Computed bytes one accurate kernel call reads and writes.
  constexpr double kD = sizeof(double);
  ta.finish(out,
            {{"kern.sobel", 4.0 * kImage},
             {"kern.dct", 8.0 * kImage + 64.0 * 64.0 * sizeof(float) / kBands},
             {"kern.jacobi", (kJacobiRowBlock * kJacobiN + kJacobiN + kJacobiRowBlock) * kD},
             {"kern.kmeans", (kChunk * kDims + 2 * kClusters * kDims) * kD + kChunk * 4.0}},
            loop, args, "apps");

  std::string& r = out.record;
  json_raw(r, "quality_bounds",
           "{\"sobel_inv_psnr\":" + std::to_string(a->sobel_bound) +
               ",\"dct_inv_psnr\":" + std::to_string(a->dct_bound) +
               ",\"jacobi_rel_err\":" + std::to_string(a->jacobi_bound) +
               ",\"kmeans_rel_err\":" + std::to_string(a->kmeans_bound) + "}");
  json_raw(r, "quality_over_bound_p50",
           "{\"sobel\":" + std::to_string(median(q_sobel)) +
               ",\"dct\":" + std::to_string(median(q_dct)) +
               ",\"jacobi\":" + std::to_string(median(q_jacobi)) +
               ",\"kmeans\":" + std::to_string(median(q_kmeans)) +
               ",\"worst_op\":" + std::to_string(*std::max_element(worst.begin(), worst.end())) +
               "}");
  json_member(r, "serial_ms", a->serial_ms);
  json_member(r, "untraced_ops", untraced);
  return out;
}

}  // namespace pb
