#include "core/match.hpp"

namespace nemo::core {

namespace {

/// Park a node in a pool (poisoned under ASan) unless the pool is full, in
/// which case it frees.
template <typename Node>
void park(std::vector<std::unique_ptr<Node>>& pool, std::unique_ptr<Node> n) {
  if (pool.size() >= MatchEngine::kPoolCap) return;
  poison_parked(n.get(), sizeof(Node));
  pool.push_back(std::move(n));
}

/// A parked node (usable again), or null when the pool is empty.
template <typename Node>
std::unique_ptr<Node> unpark(std::vector<std::unique_ptr<Node>>& pool) {
  if (pool.empty()) return nullptr;
  std::unique_ptr<Node> n = std::move(pool.back());
  pool.pop_back();
  unpoison_parked(n.get(), sizeof(Node));
  return n;
}

}  // namespace

MatchEngine::MatchEngine() {
  pool_.reserve(kPoolCap);
  posted_pool_.reserve(kPoolCap);
}

MatchEngine::~MatchEngine() {
  for (auto& n : pool_) unpoison_parked(n.get(), sizeof(UnexpectedMsg));
  for (auto& n : posted_pool_) unpoison_parked(n.get(), sizeof(PostedRecv));
}

std::unique_ptr<UnexpectedMsg> MatchEngine::post_recv(PostedRecv& pr) {
  std::unique_ptr<UnexpectedMsg> um =
      unexpected_.take([&](const UnexpectedMsg& u) {
        return matches(pr.src, pr.tag, pr.context, u.src, u.tag, u.context);
      });
  if (um != nullptr) return um;
  std::unique_ptr<PostedRecv> node = unpark(posted_pool_);
  if (node == nullptr) node = std::make_unique<PostedRecv>();
  *node = std::move(pr);
  posted_.push_back(std::move(node));
  return nullptr;
}

std::unique_ptr<PostedRecv> MatchEngine::match_incoming(int src, int tag,
                                                        int context) {
  return posted_.take([&](const PostedRecv& p) {
    return matches(p.src, p.tag, p.context, src, tag, context);
  });
}

void MatchEngine::add_unexpected(std::unique_ptr<UnexpectedMsg> um) {
  unexpected_.push_back(std::move(um));
}

std::unique_ptr<UnexpectedMsg> MatchEngine::acquire_unexpected(
    std::size_t payload_bytes) {
  std::unique_ptr<UnexpectedMsg> um = unpark(pool_);
  if (um != nullptr) {
    bool fits = um->data.capacity() >= payload_bytes;
    if (counters_ != nullptr)
      (fits ? counters_->um_pool_hits : counters_->um_pool_misses)++;
    // Reset the node by hand so the buffer's capacity survives.
    um->src = -1;
    um->tag = -1;
    um->context = 0;
    um->seq = 0;
    um->is_rndv = false;
    um->bytes_arrived = 0;
    um->total = 0;
    um->rts = lmt::RtsWire{};
  } else {
    if (counters_ != nullptr) counters_->um_pool_misses++;
    um = std::make_unique<UnexpectedMsg>();
  }
  um->data.resize(payload_bytes);
  return um;
}

void MatchEngine::recycle(std::unique_ptr<UnexpectedMsg> um) {
  if (um == nullptr) return;
  um->data.clear();  // Keeps capacity: the next acquire reuses it.
  park(pool_, std::move(um));
}

void MatchEngine::recycle(std::unique_ptr<PostedRecv> pr) {
  if (pr == nullptr) return;
  pr->req.reset();
  pr->segs = SegmentList();
  park(posted_pool_, std::move(pr));
}

UnexpectedMsg* MatchEngine::find_partial(int src, std::uint32_t seq) {
  return unexpected_.find([&](const UnexpectedMsg& um) {
    return !um.is_rndv && um.src == src && um.seq == seq &&
           !um.eager_complete();
  });
}

}  // namespace nemo::core
