// Wire protocol of the remote file service (the GridFTP substitute).
//
// One stateless vocabulary of ranged chunks serves both remote modes of
// §3.1, as GridFTP serves a partial read as a ranged transfer on the
// same channel as a whole-file copy: proxy access (RemoteFileClient)
// stats the file and moves one block per call, and staged copies
// (FileCopier) move large chunks over several parallel connections the
// way GridFTP uses parallel streams. No request refers to server state,
// so every one is safe to resend and survives a server restart.
#pragma once

#include <cstdint>
#include <string>

#include "src/multicast/relay.h"
#include "src/net/rpc.h"

namespace griddles::remote {

enum class Method : std::uint16_t {
  kStat = 5,      // (path) -> exists, size
  kGetChunk = 6,  // (path, offset, length) -> bytes (short at EOF)
  kPutChunk = 7,  // (path, offset, truncate_to_offset, bytes); creates
                  // the file and its directories
  kChecksum = 11, // (path) -> fnv1a of contents, size (replica verification)
  kRelayChunk = 12,  // (subtree, offset, truncate, bytes) -> dead hosts:
                     // write the chunk locally, forward it to every child
                     // subtree (multicast relay hop, DESIGN.md §12)
};

constexpr std::uint16_t method_id(Method m) {
  return static_cast<std::uint16_t>(m);
}

/// kStat: the size of `path`; kNotFound when it does not exist.
Result<std::uint64_t> remote_size(net::RpcClient& rpc,
                                  const std::string& path);

/// kGetChunk: up to `length` bytes of `path` at `offset`, short only at
/// end of file. A malformed reply is kDataLoss.
Result<Buffer> get_chunk(net::RpcClient& rpc, const std::string& path,
                         std::uint64_t offset, std::uint32_t length);

/// kPutChunk: writes `data` into `path` at `offset`, first cutting the
/// file to `offset` when `truncate_to_offset` is set.
Status put_chunk(net::RpcClient& rpc, const std::string& path,
                 std::uint64_t offset, bool truncate_to_offset, Buffer data);

/// Encodes one kRelayChunk request: the receiver's subtree plus the block.
Buffer relay_chunk_request(const multicast::RelayNode& node,
                           std::uint64_t offset, bool truncate_to_offset,
                           Buffer data);

/// Default chunk size for staged copies. Large chunks are the reason a
/// file copy tolerates latency better than a 4 KiB buffer stream
/// (paper §5.3).
inline constexpr std::uint32_t kDefaultCopyChunk = 1u << 20;

/// Default number of parallel streams (connections) for staged copies.
inline constexpr int kDefaultCopyStreams = 4;

/// Default block size for proxy reads (client-side cache granularity).
inline constexpr std::uint32_t kDefaultProxyBlock = 64u << 10;

}  // namespace griddles::remote
