// Access to a peer rank's memory — the capability a KNEM-style kernel module
// provides. Two implementations:
//
//  - kDirect: peers share this address space (thread mode, or buffers inside
//    the shared arena). The copy is a plain or non-temporal load/store loop
//    executed by the calling core — the analogue of KNEM's kernel copy
//    executed on the receiver core.
//  - kCma:    cross-memory attach (process_vm_readv/writev), the mainline-
//    kernel descendant of KNEM: a single kernel-mediated copy between
//    separate address spaces, identified by pid.
//
// Remote buffers are described by numeric addresses (RemoteSegment), never by
// pointers, since they may belong to another address space.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/iovec.hpp"

namespace nemo::shm {

struct RemoteSegment {
  std::uint64_t addr = 0;
  std::uint64_t len = 0;
};

using RemoteSegmentList = std::vector<RemoteSegment>;

inline std::uint64_t total_bytes(std::span<const RemoteSegment> v) {
  std::uint64_t n = 0;
  for (const auto& s : v) n += s.len;
  return n;
}

enum class RemoteMode {
  kDirect,  ///< Same address space: direct loads.
  kCma,     ///< process_vm_readv/writev against a pid.
};

const char* to_string(RemoteMode m);

/// Whether CMA syscalls work in this environment (kernel + ptrace policy).
/// Probed once against our own pid.
bool cma_available();

class RemoteMemPort {
 public:
  RemoteMemPort(RemoteMode mode, pid_t peer_pid)
      : mode_(mode), peer_pid_(peer_pid) {}

  [[nodiscard]] RemoteMode mode() const { return mode_; }
  [[nodiscard]] pid_t peer_pid() const { return peer_pid_; }

  /// Copy remote -> local. When `non_temporal` and the mode allows it, the
  /// destination is written with streaming stores (no cache fill) — the
  /// I/OAT-like path. Returns bytes copied (== min of totals).
  std::size_t read(std::span<const RemoteSegment> remote,
                   std::span<const Segment> local,
                   bool non_temporal = false) const;

  /// Copy message bytes [off, off + len) remote -> local: both lists are
  /// walked as one byte stream from their start. Returns bytes copied.
  std::size_t read_range(std::span<const RemoteSegment> remote,
                         std::span<const Segment> local, std::size_t off,
                         std::size_t len) const;

  /// Copy local -> remote (used by the one-sided tests; KNEM's recv command
  /// only ever reads).
  std::size_t write(std::span<const RemoteSegment> remote,
                    std::span<const ConstSegment> local) const;

 private:
  RemoteMode mode_;
  pid_t peer_pid_;
};

}  // namespace nemo::shm
