// Wire protocol of the remote file service (the GridFTP substitute).
//
// Two access styles coexist, mirroring the two remote modes of §3.1:
//  - stateful handles (kOpen/kPread/kPwrite/kClose) for proxy access,
//  - stateless chunk transfers (kGetChunk/kPutChunk) for staged copies,
//    which the FileCopier drives over several parallel connections the
//    way GridFTP uses parallel streams.
#pragma once

#include <cstdint>

namespace griddles::remote {

enum class Method : std::uint16_t {
  kOpen = 1,      // (path, read, write, create, truncate) -> handle, size
  kClose = 2,     // (handle)
  kPread = 3,     // (handle, offset, length) -> bytes (short read at EOF)
  kPwrite = 4,    // (handle, offset, bytes) -> bytes written
  kStat = 5,      // (path) -> exists, size
  kGetChunk = 6,  // (path, offset, length) -> bytes
  kPutChunk = 7,  // (path, offset, truncate_to_offset, bytes)
  kTruncate = 8,  // (path, size)
  kRemove = 9,    // (path)
  kList = 10,     // (path) -> names
  kChecksum = 11, // (path) -> fnv1a of contents (replica verification)
  kRelayChunk = 12,  // (subtree, offset, truncate, bytes) -> dead hosts:
                     // write the chunk locally, forward it to every child
                     // subtree (multicast relay hop, DESIGN.md §12)
};

constexpr std::uint16_t method_id(Method m) {
  return static_cast<std::uint16_t>(m);
}

/// Default chunk size for staged copies. Large chunks are the reason a
/// file copy tolerates latency better than a 4 KiB buffer stream
/// (paper §5.3).
inline constexpr std::uint32_t kDefaultCopyChunk = 1u << 20;

/// Default number of parallel streams (connections) for staged copies.
inline constexpr int kDefaultCopyStreams = 4;

/// Default block size for proxy reads (client-side cache granularity).
inline constexpr std::uint32_t kDefaultProxyBlock = 64u << 10;

}  // namespace griddles::remote
