#include "tune/tuning.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "coll/coll.hpp"
#include "common/options.hpp"
#include "core/knobs.hpp"
#include "shm/nt_copy.hpp"
#include "tune/json.hpp"

namespace nemo::tune {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kDefault: return "default";
    case Backend::kVmsplice: return "vmsplice";
    case Backend::kKnem: return "knem";
    case Backend::kCma: return "cma";
  }
  return "?";
}

std::optional<Backend> backend_from_string(const std::string& s) {
  if (s == "default") return Backend::kDefault;
  if (s == "vmsplice") return Backend::kVmsplice;
  if (s == "knem") return Backend::kKnem;
  if (s == "cma") return Backend::kCma;
  return std::nullopt;
}

namespace {

/// Placement keys used in the JSON schema (stable across releases).
const char* placement_key(int i) {
  switch (static_cast<PairPlacement>(i)) {
    case PairPlacement::kSharedCache: return "shared-llc";
    case PairPlacement::kSameSocketNoShare: return "same-socket";
    case PairPlacement::kDifferentSockets: return "cross-socket";
  }
  return "?";
}

void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

}  // namespace

std::string topology_fingerprint(const Topology& topo) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  fnv1a(h, static_cast<std::uint64_t>(topo.num_cores));
  for (int s : topo.socket_of) fnv1a(h, static_cast<std::uint64_t>(s));
  for (int d : topo.die_of) fnv1a(h, static_cast<std::uint64_t>(d));
  // The NUMA map participates: a table tuned under one node layout (ring
  // geometry, placement-sensitive crossovers) is stale under another.
  for (int n : topo.numa_of) fnv1a(h, static_cast<std::uint64_t>(n) + 1);
  for (const auto& c : topo.caches) {
    fnv1a(h, static_cast<std::uint64_t>(c.level));
    fnv1a(h, c.size_bytes);
    fnv1a(h, c.line_bytes);
    fnv1a(h, c.associativity);
    for (int core : c.cores) fnv1a(h, static_cast<std::uint64_t>(core));
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s-%dc-%016llx", topo.name.c_str(),
                topo.num_cores, static_cast<unsigned long long>(h));
  return buf;
}

TuningTable formula_defaults(const Topology& topo) {
  TuningTable t;
  t.fingerprint = topology_fingerprint(topo);
  t.source = "formula";

  // NT crossover: half the LLC, the §3.5-style "don't flush the cache"
  // bound. Shared-LLC pairs use the shared cache the pair sits behind; the
  // other placements use this host's detected default.
  std::size_t host_default = shm::nt_default_threshold();
  for (int i = 0; i < TuningTable::kPlacements; ++i) {
    auto p = static_cast<PairPlacement>(i);
    PlacementTuning& pt = t.place[static_cast<std::size_t>(i)];
    pt.nt_min = host_default;
    // Copy #1 streams only when the pair shares no LLC (see backends.hpp).
    pt.push_nt = p != PairPlacement::kSharedCache;
    pt.lmt_activation = 8 * KiB;  // KNEM pays off from 8 KiB (§3.5).
    // §3.5 preference order: KNEM first (Policy falls back per availability
    // to vmsplice on unshared pairs, else double-buffering).
    pt.backend = Backend::kKnem;
  }
  if (auto pair = topo.find_pair(PairPlacement::kSharedCache)) {
    if (auto llc = topo.shared_cache(pair->first, pair->second))
      t.for_placement(PairPlacement::kSharedCache).nt_min = llc->size_bytes / 2;
  }
  t.fastbox_max = 2 * KiB - 64;  // One default slot's payload.
  // Packed strided operands stream under the same don't-flush-the-cache
  // bound as the ring copies; the kernel stays CPUID-auto until the simd
  // probe measures a concrete winner.
  t.pack_nt_min = host_default;
  return t;
}

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

std::string to_json(const TuningTable& t) {
  Json root = Json::object();
  // Only the current schema loads: an older cache is stale, so the World
  // falls back to the formulas until the next nemo-tune run.
  root.set("schema", std::string("nemo-tune/6"));
  root.set("fingerprint", t.fingerprint);
  root.set("source", t.source);

  Json places = Json::object();
  for (int i = 0; i < TuningTable::kPlacements; ++i) {
    const PlacementTuning& pt = t.place[static_cast<std::size_t>(i)];
    Json p = Json::object();
    p.set("nt_min", static_cast<std::uint64_t>(pt.nt_min));
    p.set("push_nt", pt.push_nt);
    p.set("lmt_activation", static_cast<std::uint64_t>(pt.lmt_activation));
    p.set("backend", std::string(to_string(pt.backend)));
    p.set("ring_bufs", static_cast<std::uint64_t>(pt.ring_bufs));
    p.set("ring_buf_bytes", static_cast<std::uint64_t>(pt.ring_buf_bytes));
    places.set(placement_key(i), std::move(p));
  }
  root.set("placements", std::move(places));

  root.set("dma_min", static_cast<std::uint64_t>(t.dma_min));
  Json cma = Json::object();
  cma.set("available", t.cma_available);
  cma.set("activation", static_cast<std::uint64_t>(t.cma_activation));
  root.set("lmt_cma", std::move(cma));
  root.set("collective_activation",
           static_cast<std::uint64_t>(t.collective_activation));
  root.set("fastbox_max", static_cast<std::uint64_t>(t.fastbox_max));
  root.set("fastbox_slots", static_cast<std::uint64_t>(t.fastbox_slots));
  root.set("fastbox_slot_bytes",
           static_cast<std::uint64_t>(t.fastbox_slot_bytes));
  root.set("drain_budget", static_cast<std::uint64_t>(t.drain_budget));
  root.set("poll_hot", t.poll_hot);
  root.set("coll_activation", static_cast<std::uint64_t>(t.coll_activation));
  root.set("coll_slot_bytes",
           static_cast<std::uint64_t>(t.coll_slot_bytes));
  root.set("simd_kernel", std::string(simd::choice_name(t.simd_kernel)));
  root.set("pack_nt_min", static_cast<std::uint64_t>(t.pack_nt_min));
  root.set("coll_hier_nodes",
           static_cast<std::uint64_t>(t.coll_hier_nodes));
  return root.dump() + "\n";
}

std::optional<TuningTable> from_json(const std::string& text,
                                     std::string* err) {
  auto doc = Json::parse(text, err);
  if (!doc) return std::nullopt;
  std::string schema = (*doc)["schema"].as_string();
  if (schema != "nemo-tune/6") {
    if (err != nullptr) *err = "unsupported schema '" + schema + "'";
    return std::nullopt;
  }
  TuningTable t;
  t.fingerprint = (*doc)["fingerprint"].as_string();
  t.source = (*doc)["source"].as_string();
  if (t.source.empty()) t.source = "cache";

  const Json& places = (*doc)["placements"];
  for (int i = 0; i < TuningTable::kPlacements; ++i) {
    const Json& p = places[placement_key(i)];
    if (p.is_null()) continue;  // Missing class: keep defaults.
    PlacementTuning& pt = t.place[static_cast<std::size_t>(i)];
    pt.nt_min = p["nt_min"].as_uint(pt.nt_min);
    pt.push_nt = p["push_nt"].as_bool(pt.push_nt);
    pt.lmt_activation = p["lmt_activation"].as_uint(pt.lmt_activation);
    if (auto b = backend_from_string(p["backend"].as_string()))
      pt.backend = *b;
    pt.ring_bufs =
        static_cast<std::uint32_t>(p["ring_bufs"].as_uint(pt.ring_bufs));
    pt.ring_buf_bytes = static_cast<std::uint32_t>(
        p["ring_buf_bytes"].as_uint(pt.ring_buf_bytes));
  }
  t.dma_min = (*doc)["dma_min"].as_uint(t.dma_min);
  if (const Json& cma = (*doc)["lmt_cma"]; !cma.is_null()) {
    t.cma_available = cma["available"].as_bool(t.cma_available);
    t.cma_activation = cma["activation"].as_uint(t.cma_activation);
  }
  t.collective_activation =
      (*doc)["collective_activation"].as_uint(t.collective_activation);
  t.fastbox_max = (*doc)["fastbox_max"].as_uint(t.fastbox_max);
  t.fastbox_slots = static_cast<std::uint32_t>(
      (*doc)["fastbox_slots"].as_uint(t.fastbox_slots));
  t.fastbox_slot_bytes = static_cast<std::uint32_t>(
      (*doc)["fastbox_slot_bytes"].as_uint(t.fastbox_slot_bytes));
  t.drain_budget = static_cast<std::uint32_t>(
      (*doc)["drain_budget"].as_uint(t.drain_budget));
  t.poll_hot = (*doc)["poll_hot"].as_bool(t.poll_hot);
  t.coll_activation =
      (*doc)["coll_activation"].as_uint(t.coll_activation);
  t.coll_slot_bytes = static_cast<std::uint32_t>(
      (*doc)["coll_slot_bytes"].as_uint(t.coll_slot_bytes));
  if (std::string k = (*doc)["simd_kernel"].as_string(); !k.empty()) {
    try {
      t.simd_kernel = simd::choice_from_string(k, "simd_kernel");
    } catch (const std::invalid_argument&) {
      if (err != nullptr) *err = "unknown simd_kernel";
      return std::nullopt;
    }
  }
  t.pack_nt_min = (*doc)["pack_nt_min"].as_uint(t.pack_nt_min);
  t.coll_hier_nodes = static_cast<std::uint32_t>(
      (*doc)["coll_hier_nodes"].as_uint(t.coll_hier_nodes));
  // A hand-edited or truncated cache must degrade to the formulas, not trip
  // always-compiled asserts in every program on the machine (the fastbox
  // geometry feeds shm::Fastbox::create directly, the ring geometry
  // shm::CopyRing::create, the coll geometry coll::WorldColl::create).
  if (t.fastbox_slots < 1 || t.fastbox_slots > kFastboxSlotsMax ||
      t.fastbox_slot_bytes < kFastboxSlotBytesMin ||
      t.fastbox_slot_bytes > kFastboxSlotBytesMax ||
      t.fastbox_slot_bytes % kCacheLine != 0 || t.drain_budget < 1 ||
      !coll_slot_in_range(t.coll_slot_bytes) || t.coll_hier_nodes < 2) {
    if (err != nullptr) *err = "out-of-range tuning values";
    return std::nullopt;
  }
  for (const auto& pt : t.place) {
    if (pt.ring_bufs > kRingBufsMax ||
        (pt.ring_buf_bytes != 0 &&
         (pt.ring_buf_bytes < kCacheLine ||
          pt.ring_buf_bytes > kRingBufBytesMax ||
          pt.ring_buf_bytes % kCacheLine != 0))) {
      if (err != nullptr) *err = "out-of-range ring geometry";
      return std::nullopt;
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Persistent cache
// ---------------------------------------------------------------------------

std::string default_cache_path(const std::string& fingerprint) {
  if (auto p = process_env("NEMO_TUNE_CACHE")) return *p;
  std::string file = "tune-" + fingerprint + ".json";
  if (auto xdg = process_env("XDG_CACHE_HOME")) return *xdg + "/nemo/" + file;
  if (auto home = process_env("HOME")) return *home + "/.cache/nemo/" + file;
  return "/tmp/nemo-" + file;
}

std::optional<TuningTable> load_cache(const std::string& path,
                                      const std::string& expect_fingerprint) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::stringstream ss;
  ss << f.rdbuf();
  auto t = from_json(ss.str());
  if (!t) return std::nullopt;
  // A cache from a different machine (or a changed topology on this one) is
  // stale: ignore it rather than applying someone else's crossovers.
  if (t->fingerprint != expect_fingerprint) return std::nullopt;
  t->source = "cache";
  return t;
}

namespace {

void mkdirs_for(const std::string& path) {
  // Best-effort parent creation; store_cache reports the actual failure.
  for (std::size_t i = 1; i < path.size(); ++i)
    if (path[i] == '/') ::mkdir(path.substr(0, i).c_str(), 0755);
}

}  // namespace

bool store_cache(const std::string& path, const TuningTable& t) {
  mkdirs_for(path);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "nemo-tune: cannot write %s\n", path.c_str());
    return false;
  }
  std::string body = to_json(t);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

TuningTable effective_table(const Topology& topo) {
  std::string fp = topology_fingerprint(topo);
  std::optional<TuningTable> t;
  auto use_cache = process_env("NEMO_TUNE");
  if (!use_cache || parse_flag("NEMO_TUNE", *use_cache))
    t = load_cache(default_cache_path(fp), fp);
  if (!t) t = formula_defaults(topo);
  return std::move(*t);
}

}  // namespace nemo::tune
