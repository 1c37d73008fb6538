// Collective path selection and geometry helpers for the shared-memory
// collective fast path (src/coll/coll_arena.hpp holds the data structure).
//
// The Nemesis-style insight (conf_icpp_BuntinasGGMM09): intranode collectives
// should write each operand into shared memory ONCE and let every reader pull
// it directly, instead of re-copying payloads through per-pair rings at every
// tree hop. Whether that wins over the pt2pt algorithms depends on message
// size (the arena path pays a flat synchronisation cost per operation), so
// selection mirrors lmt::Policy: a per-machine `coll_activation` crossover in
// the tuning table, overridable per run via NEMO_COLL=shm|p2p|auto.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/common.hpp"

namespace nemo::coll {

/// Which implementation family a collective uses.
enum class Mode : std::uint32_t {
  kAuto = 0,  ///< shm arena above the tuned coll_activation, pt2pt below.
  kShm = 1,   ///< Force the arena path (falls back when geometry forbids).
  kP2p = 2,   ///< Force the pt2pt algorithms (the correctness oracle).
};

const char* to_string(Mode m);
std::optional<Mode> mode_from_string(const std::string& s);

/// Per-destination chunk capacity inside one rank's slot for the staged
/// alltoall(v) layout: the slot is split into (nranks - 1) equal per-dest
/// strides, rounded down to cache lines. 0 = the slot cannot host this many
/// destinations (callers fall back to pt2pt).
std::size_t alltoall_chunk_capacity(std::size_t slot_bytes, int nranks);

/// Should this operation take the shm arena path? `op_bytes` is the
/// operation's symmetric size measure (bcast: total bytes; allgather /
/// alltoall: per-rank block; reductions: operand bytes) — every rank must
/// compute the same answer, so only world-level state and symmetric sizes
/// participate. `chunk_capacity` is the op's slot capacity check (0 = the
/// geometry cannot host the op and even a forced kShm falls back).
bool use_shm(Mode mode, std::size_t op_bytes, std::size_t coll_activation,
             int nranks, std::size_t chunk_capacity);

/// NUMA-aware reduction-leader choice: the rank whose NUMA node backs the
/// plurality of ranks (operand buffers and poll traffic are node-local to
/// their writers, so the fold should run where most operands live). Ties go
/// to the lower node id; the leader is the lowest rank on the winning node.
/// `node_of_rank[r]` is rank r's backing node, -1 = unknown. Single-node
/// and all-unknown maps fall back to rank 0 (the pre-v2 combiner).
int choose_leader(const std::vector<int>& node_of_rank);

}  // namespace nemo::coll
