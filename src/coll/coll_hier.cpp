// Hierarchical two-level collectives over the transport topology.
//
// When the world's transport partitions the ranks into synthetic nodes
// (NEMO_NODES=NxM over the modeled interconnect), the flat world-wide
// schedules pay an internode link charge for almost every hop. The
// two-level schedules here confine the bulk of the traffic to the intranode
// leg — the collective arena, where every operand is written into shared
// memory once — and cross node boundaries only between one NUMA-chosen
// leader per node. The intranode legs are the flat family's slot protocols
// (core/coll_internal.hpp) scoped to the node's contiguous rank range:
//
//   reduce/allreduce  an ordered fold per node: members deposit, the node
//                     leader folds them IN ASCENDING RANK ORDER onto the
//                     running prefix it received from the previous node's
//                     leader (a chain over nodes in ascending node order).
//                     With the contiguous NxM partition this reproduces the
//                     flat ascending fold exactly, so the result is
//                     bit-identical to the p2p/shm oracles. Allreduce then
//                     broadcasts the final prefix binomially over the
//                     leaders and each leader streams it to its members.
//                     Internode cost: (N-1) chain hops + ceil(log2 N) bcast
//                     hops, vs O(p) for the flat tree.
//   bcast             root -> its node's leader, binomial over leaders,
//                     each leader streams to its members.
//   alltoall          members hand their send rows to the leader; leaders
//                     exchange combined M*M blocks pairwise (N-1 internode
//                     messages per leader instead of p-M per rank); the
//                     destination leader repacks per-member result rows.
//
// Epochs ride the same per-Comm collective sequence as the flat families
// (coll_detail::epoch_base, phases 0/1), so hier and flat instances can
// interleave freely; pt2pt legs use coll_detail::coll_tag phases 0-5.
// Every gate below is computed from world-symmetric state only.
#include <cstring>
#include <vector>

#include "core/coll_internal.hpp"

namespace nemo::core {

namespace {

using coll_detail::coll_tag;
using coll_detail::epoch_base;
using coll_detail::FoldWriter;
using coll_detail::SlotStream;

/// Aggregate leader staging budget for the hierarchical alltoall (gather
/// rows + pairwise exchange blocks). Above it the flat families win anyway
/// (the repack copies dominate), so the hier path declines.
constexpr std::size_t kHierAlltoallMaxStage = 64 * MiB;

/// The contiguous-partition view of the transport topology plus one
/// NUMA-chosen leader per synthetic node. Built from world-level state only
/// (transport node map, core binding, recorded ring placements), so every
/// rank computes the identical structure.
struct HierTopo {
  int nodes = 1;
  int my_node = 0;
  std::vector<int> first;   ///< Size nodes+1: node k = [first[k], first[k+1]).
  std::vector<int> leader;  ///< Per node: plurality-NUMA member, lowest wins.
};

HierTopo hier_topo(Engine& eng) {
  transport::Transport& tp = eng.transport();
  World& w = eng.world();
  const Topology& topo = w.topology();
  int p = eng.nranks();
  HierTopo h;
  h.nodes = tp.nodes();
  h.my_node = tp.node_of(eng.rank());
  h.first.assign(static_cast<std::size_t>(h.nodes) + 1, 0);
  for (int r = 0; r < p; ++r) {
    int node = tp.node_of(r);
    NEMO_ASSERT_MSG(r == 0 || node >= tp.node_of(r - 1),
                    "transport node partition must be contiguous");
    if (r > 0 && node != tp.node_of(r - 1))
      h.first[static_cast<std::size_t>(node)] = r;
  }
  h.first[static_cast<std::size_t>(h.nodes)] = p;
  h.leader.resize(static_cast<std::size_t>(h.nodes));
  for (int k = 0; k < h.nodes; ++k) {
    int b = h.first[static_cast<std::size_t>(k)];
    int e = h.first[static_cast<std::size_t>(k) + 1];
    // The pinned core's NUMA node when bound, else the recorded
    // ring-placement decision (computed even when mbind never ran, so the
    // choice stays deterministic on single-node hosts).
    std::vector<int> numa(static_cast<std::size_t>(e - b), -1);
    for (int r = b; r < e; ++r) {
      int core = w.core_of(r);
      if (core >= 0 && core < topo.num_cores)
        numa[static_cast<std::size_t>(r - b)] = topo.numa_node_of(core);
      else if (p > 1)
        numa[static_cast<std::size_t>(r - b)] =
            w.ring_placement(r, (r + 1) % p).node;
    }
    h.leader[static_cast<std::size_t>(k)] = b + coll::choose_leader(numa);
  }
  return h;
}

/// Binomial bcast of `buf` over the node leaders, rooted at `root_node`'s
/// leader (every hop is internode: one modeled-link charge).
void leader_tree(Comm& comm, const HierTopo& h, int root_node, void* buf,
                 std::size_t bytes, int tag) {
  auto leader_of = [&](int v) {
    return h.leader[static_cast<std::size_t>((v + root_node) % h.nodes)];
  };
  coll_detail::binomial(
      (h.my_node - root_node + h.nodes) % h.nodes, h.nodes,
      [&](int v) { comm.recv(buf, bytes, leader_of(v), tag, nullptr, 1); },
      [&](int v) { comm.send(buf, bytes, leader_of(v), tag, 1); });
}

}  // namespace

bool Comm::use_hier_coll(std::size_t op_bytes) {
  Engine& eng = engine_;
  if (op_bytes == 0 || size() < 2) return false;
  // Auto mode only: forced NEMO_COLL=shm|p2p pin the flat families, which
  // is what lets the conformance tests hold a flat reference against the
  // hier result on the same topology.
  if (eng.world().coll_mode() != coll::Mode::kAuto) return false;
  // Degraded worlds stay flat: the leader chain has no survivor remap.
  if (eng.any_fenced()) return false;
  int nodes = eng.transport().nodes();
  return nodes >= 2 &&
         static_cast<std::uint32_t>(nodes) >= eng.coll_hier_nodes();
}

// ---------------------------------------------------------------------------
// Bcast
// ---------------------------------------------------------------------------

void Comm::bcast_hier(void* buf, std::size_t bytes, int root,
                      std::uint64_t cs) {
  Engine& eng = engine_;
  int r = rank();
  HierTopo h = hier_topo(eng);
  int k = h.my_node;
  int leader = h.leader[static_cast<std::size_t>(k)];
  int root_node = eng.transport().node_of(root);
  int root_leader = h.leader[static_cast<std::size_t>(root_node)];
  eng.counters().coll_hier_ops++;
  // Leg 3 streams through the node leader's slot to every member but the
  // root, which already holds the payload.
  int b = h.first[static_cast<std::size_t>(k)];
  int end = h.first[static_cast<std::size_t>(k) + 1];
  SlotStream leg3(eng, leader, epoch_base(cs) | 1, bytes, false);

  // Leg 1: root hands the payload to its node's leader (one intranode hop;
  // the arena machinery buys nothing for a single pair).
  if (r == root && r != root_leader)
    send(buf, bytes, root_leader, coll_tag(cs, 0), 1);
  if (r == root_leader && r != root)
    recv(buf, bytes, root, coll_tag(cs, 0), nullptr, 1);

  if (r == leader) {
    // Leg 2: binomial over the node leaders, rooted at the root's node.
    leader_tree(*this, h, root_node, buf, bytes, coll_tag(cs, 1));
    // Leg 3: intranode publish, written into shared memory once for every
    // member (direct when the buffer is arena-resident).
    leg3.write(buf, false,
               [&](int w) { return w >= b && w < end && w != root; });
    return;
  }
  if (r != root) leg3.read(r, buf, false);
}

// ---------------------------------------------------------------------------
// Reduce / allreduce
// ---------------------------------------------------------------------------

template <typename T>
void Comm::reduce_hier(const T* in, T* out, std::size_t n, ReduceOp op,
                       int root, bool all, std::uint64_t cs) {
  Engine& eng = engine_;
  int r = rank();
  std::size_t bytes = n * sizeof(T);
  HierTopo h = hier_topo(eng);
  int k = h.my_node;
  int leader = h.leader[static_cast<std::size_t>(k)];
  int last_leader = h.leader[static_cast<std::size_t>(h.nodes) - 1];
  int b = h.first[static_cast<std::size_t>(k)];
  int end = h.first[static_cast<std::size_t>(k) + 1];
  eng.counters().coll_hier_ops++;
  // Phase 0: the node's ordered fold. Phase 1: the leader's result publish.
  SlotStream fold(eng, leader, epoch_base(cs), bytes, false);
  SlotStream result(eng, leader, epoch_base(cs) | 1, bytes, false);
  auto members = [&](int w) { return w >= b && w < end; };

  if (r != leader) {
    FoldWriter(eng, fold, in).finish();
    // Result leg. Allreduce: every member reads its own leader's publish.
    // Pure reduce: the result lives at the LAST node's leader, which hands
    // it to the root (root == 0 by the dispatch gate, so the root can be a
    // plain member here when node 0's leader is NUMA-chosen elsewhere).
    if (all)
      result.read(r, out, false);
    else if (r == root)
      recv(out, bytes, last_leader, coll_tag(cs, 2), nullptr, 1);
    return;
  }

  // Leader. Accumulate into `out` whenever it is significant on this rank
  // (allreduce everywhere, reduce at the root), else into the scratch the
  // flat reduce uses.
  T* acc;
  if (all || r == root) {
    acc = out;
  } else {
    if (reduce_scratch_.size() < bytes) reduce_scratch_.resize(bytes);
    acc = reinterpret_cast<T*>(reduce_scratch_.data());
  }
  // Chain prefix: node k's leader receives the fold of every rank below
  // first[k] from the previous node's leader.
  if (k > 0)
    recv(acc, bytes, h.leader[static_cast<std::size_t>(k) - 1],
         coll_tag(cs, 1), nullptr, 1);
  // Fold the node's members in ascending rank order onto that prefix (node
  // 0 seeds with rank 0 == root). With the contiguous partition this
  // extends the flat ascending fold exactly, so the chain result is
  // bit-identical to the p2p/shm oracles.
  coll_detail::fold_lead<T>(eng, fold, op, in, b, end, k > 0 ? -1 : b, acc);
  // Chain hop to the next node's leader (internode, modeled-charged).
  if (k < h.nodes - 1)
    send(acc, bytes, h.leader[static_cast<std::size_t>(k) + 1],
         coll_tag(cs, 1), 1);

  if (!all) {
    // Pure reduce: the final leader owns the full fold; hand it to root 0.
    if (r == last_leader && r != root)
      send(acc, bytes, root, coll_tag(cs, 2), 1);
    else if (r == root && r != last_leader)
      recv(out, bytes, last_leader, coll_tag(cs, 2), nullptr, 1);
    return;
  }

  // Allreduce: binomial bcast over the leaders rooted at the final node,
  // then each leader republishes through its own slot.
  leader_tree(*this, h, h.nodes - 1, acc, bytes, coll_tag(cs, 3));
  if (end - b > 1) result.write(acc, false, members);
}

template void Comm::reduce_hier<double>(const double*, double*, std::size_t,
                                        ReduceOp, int, bool, std::uint64_t);
template void Comm::reduce_hier<float>(const float*, float*, std::size_t,
                                       ReduceOp, int, bool, std::uint64_t);
template void Comm::reduce_hier<std::int64_t>(const std::int64_t*,
                                              std::int64_t*, std::size_t,
                                              ReduceOp, int, bool,
                                              std::uint64_t);
template void Comm::reduce_hier<std::int32_t>(const std::int32_t*,
                                              std::int32_t*, std::size_t,
                                              ReduceOp, int, bool,
                                              std::uint64_t);

// ---------------------------------------------------------------------------
// Alltoall
// ---------------------------------------------------------------------------

bool Comm::alltoall_hier(const void* sendbuf, std::size_t per_rank,
                         void* recvbuf, std::uint64_t cs) {
  Engine& eng = engine_;
  int p = size(), r = rank();
  HierTopo h = hier_topo(eng);
  int k = h.my_node;
  int leader = h.leader[static_cast<std::size_t>(k)];
  std::size_t row = static_cast<std::size_t>(p) * per_rank;
  // Leader staging: M gathered rows + (M-1) repacked result rows + the two
  // pairwise exchange blocks. World-symmetric (uniform NxM partition), so
  // every rank reaches the same verdict and the caller's fall-through to
  // the flat families stays lock-step.
  std::size_t m_max = 0;
  for (int j = 0; j < h.nodes; ++j)
    m_max = std::max(m_max,
                     static_cast<std::size_t>(
                         h.first[static_cast<std::size_t>(j) + 1] -
                         h.first[static_cast<std::size_t>(j)]));
  if (2 * m_max * row + 2 * m_max * m_max * per_rank > kHierAlltoallMaxStage)
    return false;
  eng.counters().coll_hier_ops++;

  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  int b = h.first[static_cast<std::size_t>(k)];
  int end = h.first[static_cast<std::size_t>(k) + 1];
  int m = end - b;

  if (r != leader) {
    // Member: one intranode row up, one intranode row back.
    send(in, row, leader, coll_tag(cs, 3), 1);
    recv(out, row, leader, coll_tag(cs, 5), nullptr, 1);
    return true;
  }

  // Leader. Gather the node's send rows (own row stays in place).
  std::vector<std::byte> rows(static_cast<std::size_t>(m) * row);
  std::vector<const std::byte*> row_of(static_cast<std::size_t>(m));
  {
    std::vector<Request> reqs;
    for (int w = b; w < end; ++w) {
      auto idx = static_cast<std::size_t>(w - b);
      if (w == r) {
        row_of[idx] = in;
        continue;
      }
      std::byte* dst = rows.data() + idx * row;
      row_of[idx] = dst;
      reqs.push_back(irecv(dst, row, w, coll_tag(cs, 3), 1));
    }
    waitall(reqs);
  }

  // Per-member result rows (own row assembles straight into recvbuf).
  std::vector<std::byte> res(static_cast<std::size_t>(m - 1) * row);
  auto res_row = [&](int w) -> std::byte* {
    if (w == r) return out;
    auto idx = static_cast<std::size_t>(w - b);
    // Compact over the leader's own slot.
    if (w > r) --idx;
    return res.data() + idx * row;
  };

  // Intranode blocks: src member s -> dst member d, straight repack.
  for (int s = b; s < end; ++s) {
    const std::byte* srow = row_of[static_cast<std::size_t>(s - b)];
    for (int d = b; d < end; ++d)
      std::memcpy(res_row(d) + static_cast<std::size_t>(s) * per_rank,
                  srow + static_cast<std::size_t>(d) * per_rank, per_rank);
  }

  // Pairwise exchange over nodes: one combined m x m_j block per remote
  // leader, packed [src member][dst member] so the receiver can unpack by
  // strides. N-1 internode messages instead of each rank's p-M.
  std::vector<std::byte> out_stage, in_stage;
  for (int s = 1; s < h.nodes; ++s) {
    int to_node = (k + s) % h.nodes;
    int from_node = (k - s + h.nodes) % h.nodes;
    int tb = h.first[static_cast<std::size_t>(to_node)];
    int te = h.first[static_cast<std::size_t>(to_node) + 1];
    int fb = h.first[static_cast<std::size_t>(from_node)];
    int fe = h.first[static_cast<std::size_t>(from_node) + 1];
    std::size_t out_bytes =
        static_cast<std::size_t>(m) * static_cast<std::size_t>(te - tb) *
        per_rank;
    std::size_t in_bytes =
        static_cast<std::size_t>(fe - fb) * static_cast<std::size_t>(m) *
        per_rank;
    if (out_stage.size() < out_bytes) out_stage.resize(out_bytes);
    if (in_stage.size() < in_bytes) in_stage.resize(in_bytes);
    for (int sm = 0; sm < m; ++sm) {
      const std::byte* srow = row_of[static_cast<std::size_t>(sm)];
      for (int d = tb; d < te; ++d)
        std::memcpy(out_stage.data() +
                        (static_cast<std::size_t>(sm) *
                             static_cast<std::size_t>(te - tb) +
                         static_cast<std::size_t>(d - tb)) *
                            per_rank,
                    srow + static_cast<std::size_t>(d) * per_rank, per_rank);
    }
    Request sq = isend(out_stage.data(), out_bytes,
                       h.leader[static_cast<std::size_t>(to_node)],
                       coll_tag(cs, 4), 1);
    Request rq = irecv(in_stage.data(), in_bytes,
                       h.leader[static_cast<std::size_t>(from_node)],
                       coll_tag(cs, 4), 1);
    wait(sq);
    wait(rq);
    // Scatter the received [src member of from_node][dst member] blocks
    // into the per-member result rows.
    for (int sm = 0; sm < fe - fb; ++sm) {
      int g = fb + sm;
      for (int d = b; d < end; ++d)
        std::memcpy(res_row(d) + static_cast<std::size_t>(g) * per_rank,
                    in_stage.data() +
                        (static_cast<std::size_t>(sm) *
                             static_cast<std::size_t>(m) +
                         static_cast<std::size_t>(d - b)) *
                            per_rank,
                    per_rank);
    }
  }

  // Hand each member its assembled result row.
  {
    std::vector<Request> reqs;
    for (int w = b; w < end; ++w)
      if (w != r)
        reqs.push_back(isend(res_row(w), row, w, coll_tag(cs, 5), 1));
    waitall(reqs);
  }
  return true;
}

}  // namespace nemo::core
