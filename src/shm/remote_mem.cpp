#include "shm/remote_mem.hpp"

#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include "common/common.hpp"
#include "shm/nt_copy.hpp"

namespace nemo::shm {

const char* to_string(RemoteMode m) {
  switch (m) {
    case RemoteMode::kDirect: return "direct";
    case RemoteMode::kCma: return "cma";
  }
  return "?";
}

bool cma_available() {
  static const bool ok = [] {
    // Probe the way ranks use it: one process reading another's memory. A
    // read of our own pid passes under Yama ptrace_scope=1, which still
    // refuses the sibling reads of forked ranks; a child reading its parent
    // is refused the same way. The child only makes the syscall and exits.
    static const char kByte = 42;
    const pid_t parent = ::getpid();
    const pid_t child = ::fork();
    if (child == 0) {
      char got = 0;
      struct iovec l {
        &got, 1
      };
      struct iovec r {
        const_cast<char*>(&kByte), 1
      };
      ::_exit(::process_vm_readv(parent, &l, 1, &r, 1, 0) == 1 && got == 42
                  ? 0
                  : 1);
    }
    if (child < 0) return false;
    int status = 0;
    while (::waitpid(child, &status, 0) < 0)
      if (errno != EINTR) return false;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }();
  return ok;
}

namespace {

/// Walk both segment lists as one byte stream over [off, off + len) and hand
/// each matched piece to fn(remote address, local pointer, bytes). Returns
/// the bytes visited (short when either list ends first).
template <class Local, class Fn>
std::size_t for_each_piece(std::span<const RemoteSegment> remote,
                           std::span<const Local> local, std::size_t off,
                           std::size_t len, Fn&& fn) {
  std::size_t ri = 0, roff = off, li = 0, loff = off, done = 0;
  while (ri < remote.size() && roff >= remote[ri].len)
    roff -= remote[ri++].len;
  while (li < local.size() && loff >= local[li].len) loff -= local[li++].len;
  while (done < len && ri < remote.size() && li < local.size()) {
    std::size_t n = std::min({static_cast<std::size_t>(remote[ri].len - roff),
                              local[li].len - loff, len - done});
    if (n != 0) fn(remote[ri].addr + roff, local[li].base + loff, n);
    roff += n;
    loff += n;
    done += n;
    if (roff == remote[ri].len) {
      ++ri;
      roff = 0;
    }
    if (loff == local[li].len) {
      ++li;
      loff = 0;
    }
  }
  return done;
}

/// One CMA syscall: process_vm_readv or process_vm_writev.
using CmaCall = ssize_t (*)(pid_t, const struct iovec*, unsigned long,
                            const struct iovec*, unsigned long,
                            unsigned long);

/// Kernel copy of message bytes [off, off + len) through `call`, with the
/// matched pieces batched into iovec arrays.
template <class Local>
std::size_t cma_copy(CmaCall call, const char* name, pid_t pid,
                     std::span<const RemoteSegment> remote,
                     std::span<const Local> local, std::size_t off,
                     std::size_t len) {
  constexpr std::size_t kIovMax = 64;
  struct iovec liov[kIovMax], riov[kIovMax];
  std::size_t k = 0, batch = 0, copied = 0;
  auto flush = [&] {
    if (k == 0) return;
    ssize_t got = call(pid, liov, k, riov, k, 0);
    if (got < 0) throw SysError(name, errno);
    NEMO_ASSERT_MSG(static_cast<std::size_t>(got) == batch,
                    "short CMA copy (partial page?)");
    copied += batch;
    k = 0;
    batch = 0;
  };
  for_each_piece(remote, local, off, len,
                 [&](std::uint64_t addr, const std::byte* p, std::size_t n) {
                   riov[k] = {reinterpret_cast<void*>(addr), n};
                   liov[k] = {const_cast<std::byte*>(p), n};
                   ++k;
                   batch += n;
                   if (k == kIovMax) flush();
                 });
  flush();
  return copied;
}

}  // namespace

std::size_t RemoteMemPort::read(std::span<const RemoteSegment> remote,
                                std::span<const Segment> local,
                                bool non_temporal) const {
  // A CMA copy is the kernel's and cache-filling — exactly like KNEM's
  // non-I/OAT kernel copy, so non_temporal is not honoured there (callers
  // know via mode()).
  if (!non_temporal || mode_ != RemoteMode::kDirect)
    return read_range(remote, local, 0, SIZE_MAX);
  return for_each_piece(remote, local, 0, SIZE_MAX,
                        [](std::uint64_t src, std::byte* dst, std::size_t n) {
                          nt_memcpy(dst, reinterpret_cast<const void*>(src), n);
                        });
}

std::size_t RemoteMemPort::read_range(std::span<const RemoteSegment> remote,
                                      std::span<const Segment> local,
                                      std::size_t off,
                                      std::size_t len) const {
  if (mode_ == RemoteMode::kCma)
    return cma_copy(::process_vm_readv, "process_vm_readv", peer_pid_, remote,
                    local, off, len);
  return for_each_piece(remote, local, off, len,
                        [](std::uint64_t src, std::byte* dst, std::size_t n) {
                          std::memcpy(dst, reinterpret_cast<const void*>(src), n);
                        });
}

std::size_t RemoteMemPort::write(std::span<const RemoteSegment> remote,
                                 std::span<const ConstSegment> local) const {
  if (mode_ == RemoteMode::kCma)
    return cma_copy(::process_vm_writev, "process_vm_writev", peer_pid_,
                    remote, local, 0, SIZE_MAX);
  return for_each_piece(
      remote, local, 0, SIZE_MAX,
      [](std::uint64_t dst, const std::byte* src, std::size_t n) {
        std::memcpy(reinterpret_cast<void*>(dst), src, n);
      });
}

}  // namespace nemo::shm
