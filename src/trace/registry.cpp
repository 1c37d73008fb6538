#include "trace/registry.hpp"

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "common/common.hpp"
#include "tune/counters.hpp"

namespace nemo::trace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

int Histogram::bucket_of(std::uint64_t v) {
  if (v < 2) return 0;
  return 63 - __builtin_clzll(v);
}

std::uint64_t Histogram::bucket_lo(int b) {
  return b <= 0 ? 0 : (b >= 64 ? UINT64_MAX : (1ull << b));
}

std::uint64_t Histogram::bucket_hi(int b) {
  return b >= 63 ? UINT64_MAX : (2ull << b) - 1;
}

std::uint64_t Histogram::min() const {
  std::uint64_t m = min_.load(std::memory_order_relaxed);
  return m == UINT64_MAX && count() == 0 ? 0 : m;
}

void Histogram::update_min(std::uint64_t v) {
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Histogram::update_max(std::uint64_t v) {
  std::uint64_t cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double Histogram::quantile(double q) const {
  std::uint64_t counts[kBuckets];
  std::uint64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) {
    counts[b] = bucket_count(b);
    total += counts[b];
  }
  if (total == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  double target = q * static_cast<double>(total);
  double cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    double n = static_cast<double>(counts[b]);
    if (cum + n >= target) {
      double frac = n == 0 ? 0 : (target - cum) / n;
      if (frac < 0) frac = 0;
      double lo = static_cast<double>(bucket_lo(b));
      double hi = static_cast<double>(bucket_hi(b));
      // Clamp to the recorded extremes so single-valued distributions
      // report the exact value instead of a bucket bound.
      double v = lo + frac * (hi - lo);
      double mn = static_cast<double>(min()), mx = static_cast<double>(max());
      if (v < mn) v = mn;
      if (v > mx) v = mx;
      return v;
    }
    cum += n;
  }
  return static_cast<double>(max());
}

tune::Json Histogram::to_json() const {
  tune::Json j = tune::Json::object();
  j.set("count", count());
  j.set("sum", sum());
  j.set("min", min());
  j.set("max", max());
  double n = static_cast<double>(count());
  j.set("mean", n > 0 ? static_cast<double>(sum()) / n : 0.0);
  j.set("p50", quantile(0.50));
  j.set("p99", quantile(0.99));
  j.set("p999", quantile(0.999));
  tune::Json buckets = tune::Json::object();
  for (int b = 0; b < kBuckets; ++b) {
    std::uint64_t c = bucket_count(b);
    if (c != 0) buckets.set(std::to_string(bucket_lo(b)), c);
  }
  j.set("buckets", std::move(buckets));
  return j;
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Histogram& Registry::hist(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = hists_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void Registry::set_gauge(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = v;
}

tune::Json Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  tune::Json j = tune::Json::object();
  j.set("schema", std::string("nemo-registry/1"));
  tune::Json hists = tune::Json::object();
  for (const auto& [name, h] : hists_)
    if (h->count() != 0) hists.set(name, h->to_json());
  j.set("histograms", std::move(hists));
  tune::Json gauges = tune::Json::object();
  for (const auto& [name, v] : gauges_) gauges.set(name, v);
  j.set("gauges", std::move(gauges));
  return j;
}

std::string Registry::text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-32s %10s %10s %10s %10s %10s\n",
                "histogram", "count", "p50", "p99", "p999", "max");
  out += line;
  for (const auto& [name, h] : hists_) {
    if (h->count() == 0) continue;
    std::snprintf(line, sizeof line,
                  "%-32s %10" PRIu64 " %10.0f %10.0f %10.0f %10" PRIu64 "\n",
                  name.c_str(), h->count(), h->quantile(0.50),
                  h->quantile(0.99), h->quantile(0.999), h->max());
    out += line;
  }
  for (const auto& [name, v] : gauges_) {
    std::snprintf(line, sizeof line, "%-32s gauge %.3f\n", name.c_str(), v);
    out += line;
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, h] : hists_) h->reset();
  gauges_.clear();
}

Registry& registry() {
  // Leaked so exit-time dumps never race static destruction.
  static Registry* r = new Registry();
  return *r;
}

// ---------------------------------------------------------------------------
// tune::Counters serialization (moved here from tune/counters.cpp so every
// telemetry consumer shares one writer).
// ---------------------------------------------------------------------------

namespace {

const char* path_name(int i) {
  switch (i) {
    case 0: return "rndv-default";
    case 1: return "rndv-vmsplice";
    case 2: return "rndv-vmsplice-writev";
    case 3: return "rndv-knem";
    case tune::Counters::kPathEager: return "eager-deferred";
    case tune::Counters::kPathFastbox: return "eager-fastbox";
  }
  return "?";
}

}  // namespace

tune::Json Registry::counters_json(const tune::Counters& c, int rank) {
  using tune::Json;
  Json j = Json::object();
  if (rank >= 0) j.set("rank", static_cast<std::uint64_t>(rank));

  // Sparse histogram: only populated classes, keyed by the class floor so
  // the dump stays readable ("4KiB": 120).
  Json hist = Json::object();
  for (int i = 0; i < tune::Counters::kSizeClasses; ++i) {
    std::uint64_t n = c.sent_by_class[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    hist.set(format_size(static_cast<std::size_t>(1) << i), n);
  }
  j.set("sent_by_class", std::move(hist));

  Json paths = Json::object();
  for (int i = 0; i < tune::Counters::kPaths; ++i) {
    std::uint64_t n = c.path_hist[static_cast<std::size_t>(i)];
    if (n != 0) paths.set(path_name(i), n);
  }
  j.set("paths", std::move(paths));

  j.set("fastbox_hits", c.fastbox_hits);
  j.set("fastbox_fallbacks", c.fastbox_fallbacks);
  double attempts =
      static_cast<double>(c.fastbox_hits + c.fastbox_fallbacks);
  j.set("fastbox_hit_rate",
        attempts > 0 ? static_cast<double>(c.fastbox_hits) / attempts : 0.0);
  j.set("ring_stalls", c.ring_stalls);
  j.set("progress_passes", c.progress_passes);

  Json coll = Json::object();
  coll.set("shm_ops", c.coll_shm_ops);
  coll.set("p2p_ops", c.coll_p2p_ops);
  coll.set("shm_bytes", c.coll_shm_bytes);
  coll.set("fallbacks", c.coll_fallbacks);
  coll.set("epoch_stalls", c.coll_epoch_stalls);
  j.set("coll", std::move(coll));

  Json resil = Json::object();
  resil.set("peer_deaths", c.peer_deaths);
  resil.set("fence_epochs", c.fence_epochs);
  resil.set("reclaimed_slots", c.reclaimed_slots);
  resil.set("timeout_aborts", c.timeout_aborts);
  j.set("resil", std::move(resil));

  j.set("um_pool_hits", c.um_pool_hits);
  j.set("um_pool_misses", c.um_pool_misses);

  // Kernel-path histogram, keyed by kernel name (sparse like the size
  // classes so unexercised kernels do not clutter the dump).
  Json simd = Json::object();
  const char* kernel_names[tune::Counters::kSimdKernels] = {"scalar", "avx2",
                                                            "avx512"};
  for (int i = 0; i < tune::Counters::kSimdKernels; ++i) {
    auto si = static_cast<std::size_t>(i);
    if (c.simd_fold_ops[si] == 0 && c.simd_fold_bytes[si] == 0) continue;
    Json k = Json::object();
    k.set("fold_ops", c.simd_fold_ops[si]);
    k.set("fold_bytes", c.simd_fold_bytes[si]);
    simd.set(kernel_names[i], std::move(k));
  }
  j.set("simd", std::move(simd));

  Json pack = Json::object();
  pack.set("direct_ops", c.pack_direct_ops);
  pack.set("direct_bytes", c.pack_direct_bytes);
  pack.set("nt_ops", c.pack_nt_ops);
  pack.set("unpack_ops", c.unpack_ops);
  j.set("pack", std::move(pack));
  return j;
}

tune::Json Registry::telemetry_json(const std::string& label,
                                    const tune::Counters* per_rank,
                                    int nranks) {
  using tune::Json;
  Json root = Json::object();
  root.set("schema", std::string("nemo-telemetry/1"));
  root.set("label", label);
  Json ranks = Json::array();
  tune::Counters total;
  for (int r = 0; r < nranks; ++r) {
    ranks.push_back(counters_json(per_rank[r], r));
    total += per_rank[r];
  }
  root.set("ranks", std::move(ranks));
  root.set("total", counters_json(total, -1));
  return root;
}

}  // namespace nemo::trace
