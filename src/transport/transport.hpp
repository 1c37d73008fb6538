// Pluggable transport seam, mirroring the paper's Nemesis discipline of a
// narrow substrate boundary: the Engine/World upper layers talk to the
// communication substrate only through this interface, so new channels can
// slot in without touching matching, collectives or progress logic.
//
// Delivery always rides the shm substrate (fastbox + copy ring + LMT policy
// chain) — a Transport does not move bytes itself. Instead it owns the
// *accounting and topology* of the channel: which ranks share a synthetic
// node, and what each boundary crossing costs. Implementation #1
// (ShmTransport) declares every rank one node and every hook a no-op; the
// Engine caches `has_hooks()` into a bool, so the shm hot path executes the
// exact pre-refactor instruction stream. Implementation #2
// (ModeledTransport, modeled.cpp) partitions ranks into synthetic nodes
// (NEMO_NODES=NxM) and charges each internode message a latency/bandwidth
// modeled wire time (NEMO_NET_LAT_NS / NEMO_NET_BW_MBS), following the
// modeled-interconnect idiom of Graphite's NetworkModelMagic. The modeled
// costs feed src/sim's replay models so synthetic timelines stay honest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace nemo::transport {

/// Cost of one hook invocation. `ns` is modeled wire time (zero for
/// intranode traffic and for the shm transport); the Engine accumulates it
/// into tune::Counters and the kNetLink trace track.
struct XferCost {
  std::uint64_t ns = 0;
  bool internode = false;
};

class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// True when any hook below does real work. The Engine caches this into a
  /// plain bool and skips every hook call when false — the zero-regression
  /// guarantee for the shm fast path.
  [[nodiscard]] virtual bool has_hooks() const = 0;

  // --- Topology: ranks partitioned into synthetic nodes -------------------
  [[nodiscard]] virtual int nodes() const = 0;
  [[nodiscard]] virtual int node_of(int rank) const = 0;
  [[nodiscard]] bool internode(int a, int b) const {
    return node_of(a) != node_of(b);
  }

  // --- Hooks, called by the Engine at message boundaries ------------------
  /// A rank pair became reachable (Engine construction).
  virtual void connect(int self, int peer) {
    (void)self;
    (void)peer;
  }
  /// An eager payload (fastbox or queue-cell path) left `self` for `dst`.
  virtual XferCost on_eager(int self, int dst, std::size_t bytes) {
    (void)self;
    (void)dst;
    (void)bytes;
    return {};
  }
  /// A rendezvous (LMT) transfer of `bytes` was started toward `dst`.
  virtual XferCost on_lmt(int self, int dst, std::size_t bytes) {
    (void)self;
    (void)dst;
    (void)bytes;
    return {};
  }
  /// A control doorbell (RTS/CTS/FIN cell) was rung on `peer`.
  virtual XferCost on_doorbell(int self, int peer) {
    (void)self;
    (void)peer;
    return {};
  }
  /// Piggybacks on Engine::progress() for transports that need a clock.
  virtual void progress(int self) { (void)self; }

  // --- Link model parameters, exported to src/sim -------------------------
  [[nodiscard]] virtual std::uint64_t link_lat_ns() const { return 0; }
  [[nodiscard]] virtual double link_bw_mibs() const { return 0.0; }
};

/// Parse a `NEMO_NODES`-style "NxM" topology spec into a node-of-rank table
/// (contiguous partition: rank r lives on node r / M). N*M must equal
/// `nranks`; "1xP"/"" mean one node. Throws std::invalid_argument on
/// malformed or mismatched specs.
std::vector<int> parse_nodes_spec(const std::string& spec, int nranks);

/// Implementation #1: the plain shm substrate. One node, no hooks.
std::unique_ptr<Transport> make_shm_transport(int nranks);

/// Implementation #2: modeled interconnect over shm loopback. Topology and
/// link parameters come from the arguments; see modeled.cpp.
std::unique_ptr<Transport> make_modeled_transport(std::vector<int> node_of,
                                                  std::uint64_t lat_ns,
                                                  double bw_mibs);

/// Factory over the resolved NEMO_TRANSPORT / NEMO_NODES / NEMO_NET_LAT_NS
/// / NEMO_NET_BW_MBS values: explicit "shm" or "modeled", else modeled iff
/// the topology spec names more than one node. Throws on typos.
std::unique_ptr<Transport> make_transport(const std::string& which,
                                          const std::string& nodes_spec,
                                          int nranks, std::uint64_t lat_ns,
                                          std::uint64_t bw_mibs);

}  // namespace nemo::transport
