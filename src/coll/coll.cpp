#include "coll/coll.hpp"

#include <map>

namespace nemo::coll {

const char* to_string(Mode m) {
  switch (m) {
    case Mode::kAuto: return "auto";
    case Mode::kShm: return "shm";
    case Mode::kP2p: return "p2p";
  }
  return "?";
}

std::optional<Mode> mode_from_string(const std::string& s) {
  if (s == "auto") return Mode::kAuto;
  if (s == "shm") return Mode::kShm;
  if (s == "p2p") return Mode::kP2p;
  return std::nullopt;
}

std::size_t alltoall_chunk_capacity(std::size_t slot_bytes, int nranks) {
  if (nranks < 2) return 0;
  std::size_t per_dest =
      slot_bytes / static_cast<std::size_t>(nranks - 1);
  per_dest -= per_dest % kCacheLine;
  return per_dest;
}

bool use_shm(Mode mode, std::size_t op_bytes, std::size_t coll_activation,
             int nranks, std::size_t chunk_capacity) {
  if (nranks < 2 || chunk_capacity == 0) return false;
  switch (mode) {
    case Mode::kP2p: return false;
    case Mode::kShm: return true;
    case Mode::kAuto: return op_bytes >= coll_activation;
  }
  return false;
}

int choose_leader(const std::vector<int>& node_of_rank) {
  // Count ranks per known node; plurality wins, ties to the lower node id.
  std::map<int, int> per_node;
  for (int node : node_of_rank)
    if (node >= 0) per_node[node]++;
  if (per_node.empty()) return 0;
  int best_node = -1, best_count = 0;
  for (const auto& [node, count] : per_node)
    if (count > best_count) {  // First-wins on ties: map iterates ascending.
      best_node = node;
      best_count = count;
    }
  if (per_node.size() == 1) return 0;  // Single node: rank 0, as pre-v2.
  for (std::size_t r = 0; r < node_of_rank.size(); ++r)
    if (node_of_rank[r] == best_node) return static_cast<int>(r);
  return 0;
}

}  // namespace nemo::coll
