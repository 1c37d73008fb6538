// Transport-layer conformance: the narrow seam (transport.hpp) that the
// Engine talks through must preserve the full messaging contract no matter
// which implementation is plugged in. The same protocol matrix — eager,
// rendezvous, ordering, wildcard matching, peer-death verdicts — runs
// against both shipped transports (plain shm, modeled interconnect), plus a
// bit-identity oracle proving the hierarchical two-level collectives
// compute exactly what the flat pt2pt schedules compute across NxM
// synthetic topologies.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "core/comm.hpp"
#include "core/knobs.hpp"
#include "resil/resil.hpp"
#include "shm/process_runner.hpp"
#include "transport/transport.hpp"

namespace nemo::core {
namespace {

// ---------------------------------------------------------------------------
// Unit: spec parsing, factories, the cost model itself.
// ---------------------------------------------------------------------------

TEST(TransportUnit, ParseNodesSpec) {
  std::vector<int> t = transport::parse_nodes_spec("2x4", 8);
  ASSERT_EQ(t.size(), 8u);
  EXPECT_EQ(t[0], 0);
  EXPECT_EQ(t[3], 0);
  EXPECT_EQ(t[4], 1);
  EXPECT_EQ(t[7], 1);
  EXPECT_EQ(transport::parse_nodes_spec("", 4), std::vector<int>(4, 0));
  EXPECT_EQ(transport::parse_nodes_spec("1x4", 4), std::vector<int>(4, 0));
  // N*M must cover the world exactly — a silent partial mapping would
  // charge the wrong hops.
  EXPECT_THROW(transport::parse_nodes_spec("2x3", 8), std::invalid_argument);
  EXPECT_THROW(transport::parse_nodes_spec("bogus", 4),
               std::invalid_argument);
}

TEST(TransportUnit, ShmTransportIsHookFree) {
  auto t = transport::make_shm_transport(8);
  EXPECT_STREQ(t->name(), "shm");
  EXPECT_FALSE(t->has_hooks());
  EXPECT_EQ(t->nodes(), 1);
  EXPECT_FALSE(t->internode(0, 7));
  EXPECT_EQ(t->on_eager(0, 7, 4096).ns, 0u);
  EXPECT_EQ(t->on_lmt(0, 7, 1 * MiB).ns, 0u);
}

TEST(TransportUnit, ModeledCostsFollowLinkModel) {
  auto t = transport::make_modeled_transport(
      transport::parse_nodes_spec("2x2", 4), 1000, 1024.0);
  EXPECT_STREQ(t->name(), "modeled");
  EXPECT_TRUE(t->has_hooks());
  EXPECT_EQ(t->nodes(), 2);
  EXPECT_EQ(t->node_of(1), 0);
  EXPECT_EQ(t->node_of(2), 1);
  // Intranode traffic is free — the shm substrate is the real channel.
  transport::XferCost local = t->on_eager(0, 1, 1 * MiB);
  EXPECT_EQ(local.ns, 0u);
  EXPECT_FALSE(local.internode);
  // Internode: latency + serialization. 1 MiB at 1024 MiB/s = 2^20 B at
  // ~1073.7 B/us => ~976562 ns on the wire.
  transport::XferCost c = t->on_lmt(0, 2, 1 * MiB);
  EXPECT_TRUE(c.internode);
  EXPECT_GE(c.ns, 1000u + 970000u);
  EXPECT_LE(c.ns, 1000u + 980000u);
  // Control doorbells carry no payload: latency-only.
  EXPECT_EQ(t->on_doorbell(0, 2).ns, 1000u);
  EXPECT_EQ(t->on_doorbell(0, 1).ns, 0u);
  EXPECT_EQ(t->link_lat_ns(), 1000u);
  EXPECT_DOUBLE_EQ(t->link_bw_mibs(), 1024.0);
}

TEST(TransportUnit, FactoryHonoursSelection) {
  const std::uint64_t kLat = 1500, kBw = 12000;
  EXPECT_STREQ(transport::make_transport("shm", "", 4, kLat, kBw)->name(), "shm");
  EXPECT_STREQ(transport::make_transport("modeled", "2x2", 4, kLat, kBw)->name(),
               "modeled");
  // auto: modeled iff the spec names more than one node.
  EXPECT_STREQ(transport::make_transport("auto", "", 4, kLat, kBw)->name(), "shm");
  EXPECT_STREQ(transport::make_transport("auto", "1x4", 4, kLat, kBw)->name(), "shm");
  EXPECT_STREQ(transport::make_transport("auto", "2x2", 4, kLat, kBw)->name(),
               "modeled");
  EXPECT_THROW(transport::make_transport("tcp", "", 4, kLat, kBw),
               std::invalid_argument);
  EXPECT_THROW(transport::make_transport("modeled", "2x2", 6, kLat, kBw),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Conformance matrix: the identical protocol tests against each transport.
// The world is always 4 ranks so the modeled variant can split it 2x2,
// putting ranks {0,1} and {2,3} on different synthetic nodes — every test
// below exercises at least one cross-node pair.
// ---------------------------------------------------------------------------

struct TransportParam {
  const char* label;
  const char* transport;   ///< Config::transport
  const char* nodes_spec;  ///< Config::nodes_spec (4-rank worlds)
};

void PrintTo(const TransportParam& p, std::ostream* os) { *os << p.label; }

/// True when NEMO_WORLD_MODE resolves thread-mode worlds to forked
/// processes. Rank lambdas then run in children: writes to parent-captured
/// state do not propagate, so parent-side aggregation checks must be
/// skipped (the in-world checks still run on every rank).
bool procs_mode() {
  return resolve_config(Config{}).mode == LaunchMode::kProcesses;
}

class TransportConformance : public ::testing::TestWithParam<TransportParam> {
 protected:
  [[nodiscard]] Config cfg() const {
    Config c;
    c.nranks = 4;
    c.transport = GetParam().transport;
    c.nodes_spec = GetParam().nodes_spec;
    return c;
  }
  [[nodiscard]] bool modeled() const {
    return std::string(GetParam().transport) == "modeled";
  }
};

INSTANTIATE_TEST_SUITE_P(Transports, TransportConformance,
                         ::testing::Values(TransportParam{"shm", "shm", ""},
                                           TransportParam{"modeled",
                                                          "modeled", "2x2"}));

TEST_P(TransportConformance, EagerAllPairs) {
  constexpr std::size_t kN = 256;  // Fastbox-sized: stays on the eager path.
  std::atomic<std::uint64_t> net_msgs{0};
  run(cfg(), [&](Comm& comm) {
    int p = comm.size();
    std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p)),
        in(static_cast<std::size_t>(p));
    std::vector<Request> reqs;
    for (int r = 0; r < p; ++r) {
      if (r == comm.rank()) continue;
      auto& o = out[static_cast<std::size_t>(r)];
      auto& i = in[static_cast<std::size_t>(r)];
      o.resize(kN);
      i.resize(kN);
      pattern_fill(o, static_cast<std::uint64_t>(comm.rank() * 100 + r));
      reqs.push_back(comm.isend(o.data(), kN, r, 7));
      reqs.push_back(comm.irecv(i.data(), kN, r, 7));
    }
    comm.waitall(reqs);
    for (int r = 0; r < p; ++r) {
      if (r == comm.rank()) continue;
      EXPECT_EQ(pattern_check(in[static_cast<std::size_t>(r)],
                              static_cast<std::uint64_t>(r * 100 +
                                                         comm.rank())),
                kPatternOk)
          << "rank " << comm.rank() << " from " << r;
    }
    net_msgs += comm.engine().counters().net_msgs;
  });
  // The modeled transport must have charged the cross-node pairs; the shm
  // transport must have charged nothing (hook-free fast path).
  if (!procs_mode()) {
    if (modeled())
      EXPECT_GT(net_msgs.load(), 0u);
    else
      EXPECT_EQ(net_msgs.load(), 0u);
  }
}

TEST_P(TransportConformance, RendezvousCrossNode) {
  constexpr std::size_t kN = 2 * MiB;  // Well past every eager threshold.
  std::atomic<std::uint64_t> net_ns{0};
  run(cfg(), [&](Comm& comm) {
    // 0 <-> 3 is internode under the 2x2 split.
    std::vector<std::byte> buf(kN);
    if (comm.rank() == 0) {
      pattern_fill(buf, 11);
      comm.send(buf.data(), kN, 3, 1);
      comm.recv(buf.data(), kN, 3, 2);
      EXPECT_EQ(pattern_check(buf, 22), kPatternOk);
    } else if (comm.rank() == 3) {
      comm.recv(buf.data(), kN, 0, 1);
      EXPECT_EQ(pattern_check(buf, 11), kPatternOk);
      pattern_fill(buf, 22);
      comm.send(buf.data(), kN, 0, 2);
    }
    comm.hard_barrier();
    net_ns += comm.engine().counters().net_modeled_ns;
  });
  if (!procs_mode()) {
    if (modeled())
      EXPECT_GT(net_ns.load(), 0u);
    else
      EXPECT_EQ(net_ns.load(), 0u);
  }
}

TEST_P(TransportConformance, OrderingSameEnvelope) {
  // Messages on one (src, dst, tag) envelope must arrive in send order —
  // mixing eager and rendezvous sizes so the two paths cannot reorder
  // against each other either.
  const std::size_t sizes[] = {64, 128 * KiB, 64, 256 * KiB, 64, 64};
  constexpr int kMsgs = 6;
  run(cfg(), [&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<std::byte> buf(sizes[i]);
        pattern_fill(buf, static_cast<std::uint64_t>(i));
        comm.send(buf.data(), buf.size(), 2, 5);  // Cross-node under 2x2.
      }
    } else if (comm.rank() == 2) {
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<std::byte> buf(sizes[i]);
        RecvInfo info;
        comm.recv(buf.data(), buf.size(), 0, 5, &info);
        EXPECT_EQ(info.bytes, sizes[i]) << "message " << i << " out of order";
        EXPECT_EQ(pattern_check(buf, static_cast<std::uint64_t>(i)),
                  kPatternOk)
            << "message " << i;
      }
    }
  });
}

TEST_P(TransportConformance, WildcardMatching) {
  constexpr std::size_t kN = 512;
  run(cfg(), [&](Comm& comm) {
    if (comm.rank() != 0) {
      std::vector<std::byte> buf(kN);
      pattern_fill(buf, static_cast<std::uint64_t>(comm.rank()));
      comm.send(buf.data(), kN, 0, 10 + comm.rank());
    } else {
      std::set<int> seen;
      for (int i = 0; i < comm.size() - 1; ++i) {
        std::vector<std::byte> buf(kN);
        RecvInfo info;
        comm.recv(buf.data(), kN, kAnySource, kAnyTag, &info);
        EXPECT_EQ(info.tag, 10 + info.src);
        EXPECT_EQ(info.bytes, kN);
        EXPECT_EQ(pattern_check(buf, static_cast<std::uint64_t>(info.src)),
                  kPatternOk);
        EXPECT_TRUE(seen.insert(info.src).second)
            << "duplicate wildcard match from " << info.src;
      }
      EXPECT_EQ(seen.size(), static_cast<std::size_t>(comm.size() - 1));
    }
  });
}

// Peer death must surface as a PeerDeadError verdict naming the victim on
// every blocked survivor, whichever transport is plugged in (the modeled
// hooks sit on the very paths the liveness guards watch).
TEST_P(TransportConformance, PeerDeathVerdictPropagates) {
  static std::atomic<unsigned> serial{0};
  char shm[64];
  std::snprintf(shm, sizeof shm, "/nemo-tx-%d-%u",
                static_cast<int>(::getpid()),
                serial.fetch_add(1, std::memory_order_relaxed));
  Config c = cfg();
  c.mode = LaunchMode::kProcesses;
  c.shm_name = shm;
  c.peer_timeout_ms = 10000;
  const int victim = 2, receiver = 1;  // Cross-node pair under 2x2.
  c.env["NEMO_FAULT"] = std::to_string(victim) + ":fastbox_put:kill";
  {
    World world(c);  // Arms the fault; the forked ranks inherit it.
    resil::Liveness live = world.liveness();
    shm::ProcessResult res = shm::run_forked_ranks(
        c.nranks,
        [&](int rank) {
          world.reattach_in_child();
          Comm comm(world, rank);
          world.hard_barrier(rank);
          std::byte small[64] = {};
          try {
            if (rank == victim) {
              comm.send(small, sizeof small, receiver, 5);
            } else if (rank == receiver) {
              ::usleep(300 * 1000);  // Let the victim die first.
              comm.recv(small, sizeof small, victim, 5);
              return 23;  // No verdict: the blocked survivor returned.
            }
          } catch (const resil::PeerDeadError& e) {
            return e.rank == victim ? 0 : 20;
          }
          return rank == victim ? 22 : 0;
        },
        [&](int r, int code) {
          if (code != 0 && live.valid()) live.mark_dead(r);
        });
    for (int r = 0; r < c.nranks; ++r) {
      int want = r == victim ? 256 + SIGKILL : 0;
      EXPECT_EQ(res.exit_codes[static_cast<std::size_t>(r)], want)
          << "rank " << r << " (" << GetParam().label << ")";
    }
  }
  resil::arm_fault("");  // Disarm the parent.
  EXPECT_NE(::access((std::string("/dev/shm") + shm).c_str(), F_OK), 0)
      << "shm segment leaked";
}

// ---------------------------------------------------------------------------
// Hier-vs-flat oracle: across NxM topologies, the two-level schedule must
// produce bit-identical results to the flat pt2pt schedule. Inputs are
// integer-valued doubles, so every summation order yields the same bits —
// any payload routing or fold bug shows up as a memcmp mismatch.
// ---------------------------------------------------------------------------

struct HierTopo {
  int nodes, per_node;
};

void PrintTo(const HierTopo& t, std::ostream* os) {
  *os << t.nodes << "x" << t.per_node;
}

class HierOracle : public ::testing::TestWithParam<HierTopo> {};

INSTANTIATE_TEST_SUITE_P(Topologies, HierOracle,
                         ::testing::Values(HierTopo{2, 2}, HierTopo{2, 4},
                                           HierTopo{4, 2}, HierTopo{4, 4}));

constexpr std::size_t kOracleN = 256;  // Doubles per rank.

double oracle_in(int rank, std::size_t i) {
  return static_cast<double>((rank * 31 + static_cast<int>(i)) % 128);
}

/// Run one collective on an NxM modeled world and return every rank's
/// result concatenated (root's result only, for reduce). `hier` selects
/// auto mode (which engages the two-level schedule at >= 2 nodes); the flat
/// reference pins the pt2pt family. Returns the summed coll_hier_ops so
/// callers can assert the intended schedule actually ran.
std::vector<double> run_oracle(const HierTopo& t, bool allreduce, bool hier,
                               std::uint64_t* hier_ops) {
  Config c;
  // Pin the family: an ambient NEMO_COLL would override cfg.coll.
  c.env["NEMO_COLL"] = hier ? "auto" : "p2p";
  c.nranks = t.nodes * t.per_node;
  c.transport = "modeled";
  char spec[16];
  std::snprintf(spec, sizeof spec, "%dx%d", t.nodes, t.per_node);
  c.nodes_spec = spec;
  std::vector<double> result(
      static_cast<std::size_t>(allreduce ? c.nranks : 1) * kOracleN);
  std::atomic<std::uint64_t> ops{0};
  bool ok = run(c, [&](Comm& comm) {
    std::vector<double> in(kOracleN), out(kOracleN);
    for (std::size_t i = 0; i < kOracleN; ++i)
      in[i] = oracle_in(comm.rank(), i);
    if (allreduce)
      comm.allreduce_f64(in.data(), out.data(), kOracleN,
                         Comm::ReduceOp::kSum);
    else
      comm.reduce_f64(in.data(), out.data(), kOracleN, Comm::ReduceOp::kSum,
                      /*root=*/0);
    // In-world check against the analytic sum (exact for integer-valued
    // doubles in any fold order): the only check that reaches the parent
    // when ranks are forked processes. abort() -> nonzero child exit ->
    // run() returns false.
    if (allreduce || comm.rank() == 0) {
      for (std::size_t i = 0; i < kOracleN; ++i) {
        double want = 0;
        for (int r = 0; r < comm.size(); ++r) want += oracle_in(r, i);
        if (out[i] != want) {
          std::fprintf(stderr, "rank %d: element %zu = %f, want %f\n",
                       comm.rank(), i, out[i], want);
          std::abort();
        }
      }
    }
    if (allreduce)
      std::memcpy(&result[static_cast<std::size_t>(comm.rank()) * kOracleN],
                  out.data(), kOracleN * sizeof(double));
    else if (comm.rank() == 0)
      std::memcpy(result.data(), out.data(), kOracleN * sizeof(double));
    comm.hard_barrier();  // Results written before the world tears down.
    ops += comm.engine().counters().coll_hier_ops;
  });
  EXPECT_TRUE(ok);
  if (hier_ops != nullptr) *hier_ops = ops.load();
  return result;
}

TEST_P(HierOracle, AllreduceBitIdenticalToFlat) {
  const HierTopo& t = GetParam();
  std::uint64_t hier_ops = 0, flat_ops = 0;
  std::vector<double> hier = run_oracle(t, true, true, &hier_ops);
  std::vector<double> flat = run_oracle(t, true, false, &flat_ops);
  if (procs_mode()) return;  // In-world checks carried the verdict.
  EXPECT_GT(hier_ops, 0u) << "two-level schedule never engaged";
  EXPECT_EQ(flat_ops, 0u) << "flat reference ran the two-level schedule";
  ASSERT_EQ(hier.size(), flat.size());
  EXPECT_EQ(std::memcmp(hier.data(), flat.data(),
                        hier.size() * sizeof(double)),
            0);
  // And both match the analytic sum.
  int p = t.nodes * t.per_node;
  for (std::size_t i = 0; i < kOracleN; ++i) {
    double want = 0;
    for (int r = 0; r < p; ++r) want += oracle_in(r, i);
    ASSERT_EQ(hier[i], want) << "element " << i;
  }
}

TEST_P(HierOracle, ReduceBitIdenticalToFlat) {
  const HierTopo& t = GetParam();
  std::uint64_t hier_ops = 0, flat_ops = 0;
  std::vector<double> hier = run_oracle(t, false, true, &hier_ops);
  std::vector<double> flat = run_oracle(t, false, false, &flat_ops);
  if (procs_mode()) return;  // In-world checks carried the verdict.
  EXPECT_GT(hier_ops, 0u) << "two-level schedule never engaged";
  EXPECT_EQ(flat_ops, 0u) << "flat reference ran the two-level schedule";
  ASSERT_EQ(hier.size(), flat.size());
  EXPECT_EQ(std::memcmp(hier.data(), flat.data(),
                        hier.size() * sizeof(double)),
            0);
}

// ---------------------------------------------------------------------------
// Hier payload oracle: bcast and alltoall move bytes without arithmetic, so
// the reference is the analytic pattern itself. Every rank checks its bytes
// in-world (abort -> run() returns false, which also covers forked ranks);
// thread-mode runs additionally prove the two-level schedule engaged.
// ---------------------------------------------------------------------------

class HierOracleBytes : public ::testing::TestWithParam<HierTopo> {};

INSTANTIATE_TEST_SUITE_P(Topologies, HierOracleBytes,
                         ::testing::Values(HierTopo{2, 2}, HierTopo{4, 2}));

/// Run `body` on an auto-mode NxM modeled world; returns the summed
/// coll_hier_ops (meaningful in thread mode only).
std::uint64_t run_hier(const HierTopo& t,
                       const std::function<void(Comm&)>& body) {
  Config c;
  c.env["NEMO_COLL"] = "auto";
  c.nranks = t.nodes * t.per_node;
  c.transport = "modeled";
  char spec[16];
  std::snprintf(spec, sizeof spec, "%dx%d", t.nodes, t.per_node);
  c.nodes_spec = spec;
  std::atomic<std::uint64_t> ops{0};
  EXPECT_TRUE(run(c, [&](Comm& comm) {
    body(comm);
    comm.hard_barrier();
    ops += comm.engine().counters().coll_hier_ops;
  }));
  return ops.load();
}

void expect_pattern(std::span<const std::byte> got, std::uint64_t seed,
                    const char* what, int rank, std::size_t bytes) {
  std::size_t bad = pattern_check(got, seed);
  if (bad == kPatternOk) return;
  std::fprintf(stderr, "%s: rank %d, %zu B, first bad byte %zu\n", what, rank,
               bytes, bad);
  std::abort();
}

TEST_P(HierOracleBytes, BcastEveryRootByteExact) {
  // 300 KiB exceeds the default 256 KiB collective slot, so the intranode
  // leg has to stream rather than publish one slot's worth.
  for (std::size_t bytes : {std::size_t{8}, 4 * KiB, 300 * KiB}) {
    for (bool shared : {false, true}) {
      std::uint64_t ops = run_hier(GetParam(), [&](Comm& comm) {
        std::vector<std::byte> heap(shared ? 0 : bytes);
        std::byte* buf = shared ? comm.shared_alloc(bytes) : heap.data();
        for (int root = 0; root < comm.size(); ++root) {
          std::uint64_t seed = 1000 + bytes + static_cast<std::uint64_t>(root);
          if (comm.rank() == root)
            pattern_fill({buf, bytes}, seed);
          else
            std::memset(buf, 0xEE, bytes);
          comm.bcast(buf, bytes, root);
          expect_pattern({buf, bytes}, seed, "hier bcast", comm.rank(),
                         bytes);
        }
      });
      if (!procs_mode()) {
        EXPECT_GT(ops, 0u) << bytes << " B, shared=" << shared;
      }
    }
  }
}

TEST_P(HierOracleBytes, AlltoallByteExact) {
  auto seed_of = [](int src, int dst, std::size_t per) {
    return 7 + per + static_cast<std::uint64_t>(src * 64 + dst);
  };
  for (std::size_t per : {std::size_t{64}, 16 * KiB}) {
    std::uint64_t ops = run_hier(GetParam(), [&](Comm& comm) {
      auto n = static_cast<std::size_t>(comm.size());
      std::vector<std::byte> send(per * n), recv(per * n, std::byte{0xEE});
      for (std::size_t d = 0; d < n; ++d)
        pattern_fill({send.data() + d * per, per},
                     seed_of(comm.rank(), static_cast<int>(d), per));
      comm.alltoall(send.data(), per, recv.data());
      for (std::size_t s = 0; s < n; ++s)
        expect_pattern({recv.data() + s * per, per},
                       seed_of(static_cast<int>(s), comm.rank(), per),
                       "hier alltoall", comm.rank(), per);
    });
    if (!procs_mode()) {
      EXPECT_GT(ops, 0u) << per << " B per rank";
    }
  }
}

}  // namespace
}  // namespace nemo::core
