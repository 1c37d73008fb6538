#include "transport/transport.hpp"

#include <stdexcept>

#include "common/common.hpp"

namespace nemo::transport {

namespace {

/// The shm substrate as a Transport: every rank on one node, every hook a
/// no-op. has_hooks() == false lets the Engine skip the hook calls
/// entirely, so this is bit-identical to the pre-Transport hot path.
class ShmTransport final : public Transport {
 public:
  explicit ShmTransport(int nranks) : nranks_(nranks) {}

  [[nodiscard]] const char* name() const override { return "shm"; }
  [[nodiscard]] bool has_hooks() const override { return false; }
  [[nodiscard]] int nodes() const override { return 1; }
  [[nodiscard]] int node_of(int rank) const override {
    NEMO_ASSERT(rank >= 0 && rank < nranks_);
    return 0;
  }

 private:
  int nranks_;
};

}  // namespace

std::vector<int> parse_nodes_spec(const std::string& spec, int nranks) {
  NEMO_ASSERT(nranks > 0);
  if (spec.empty()) return std::vector<int>(static_cast<std::size_t>(nranks));
  auto x = spec.find('x');
  long n = 0, m = 0;
  try {
    std::size_t used_n = 0, used_m = 0;
    if (x == std::string::npos) throw std::invalid_argument(spec);
    n = std::stol(spec.substr(0, x), &used_n);
    m = std::stol(spec.substr(x + 1), &used_m);
    if (used_n != x || used_m != spec.size() - x - 1)
      throw std::invalid_argument(spec);
  } catch (const std::exception&) {
    throw std::invalid_argument("NEMO_NODES: want NxM (nodes x ranks/node), "
                                "got '" + spec + "'");
  }
  if (n < 1 || m < 1 || n * m != nranks)
    throw std::invalid_argument("NEMO_NODES: " + spec + " does not cover " +
                                std::to_string(nranks) + " ranks");
  std::vector<int> node_of(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    node_of[static_cast<std::size_t>(r)] = r / static_cast<int>(m);
  return node_of;
}

std::unique_ptr<Transport> make_shm_transport(int nranks) {
  return std::make_unique<ShmTransport>(nranks);
}

std::unique_ptr<Transport> make_transport(const std::string& which,
                                          const std::string& nodes_spec,
                                          int nranks, std::uint64_t lat_ns,
                                          std::uint64_t bw_mibs) {
  if (which == "shm") return make_shm_transport(nranks);
  if (which == "modeled")
    return make_modeled_transport(parse_nodes_spec(nodes_spec, nranks),
                                  lat_ns, static_cast<double>(bw_mibs));
  if (which != "auto" && !which.empty())
    throw std::invalid_argument("NEMO_TRANSPORT: want shm|modeled|auto, got '" +
                                which + "'");
  // auto: the modeled transport engages exactly when the topology spec
  // partitions the world into more than one synthetic node.
  auto node_of = parse_nodes_spec(nodes_spec, nranks);
  int nnodes = node_of.empty() ? 1 : node_of.back() + 1;
  if (nnodes > 1)
    return make_modeled_transport(std::move(node_of), lat_ns,
                                  static_cast<double>(bw_mibs));
  return make_shm_transport(nranks);
}

}  // namespace nemo::transport
