#include "src/remote/protocol.h"

#include "src/common/strings.h"
#include "src/xdr/codec.h"

namespace griddles::remote {

Result<std::uint64_t> remote_size(net::RpcClient& rpc,
                                  const std::string& path) {
  xdr::Encoder enc;
  enc.put_string(path);
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc.call(method_id(Method::kStat), enc.buffer()));
  xdr::Decoder dec(reply);
  GL_ASSIGN_OR_RETURN(const bool exists, dec.boolean());
  GL_ASSIGN_OR_RETURN(const std::uint64_t size, dec.u64());
  if (!exists) return not_found(strings::cat("remote file missing: ", path));
  return size;
}

Result<Buffer> get_chunk(net::RpcClient& rpc, const std::string& path,
                         std::uint64_t offset, std::uint32_t length) {
  xdr::Encoder enc;
  enc.put_string(path);
  enc.put_u64(offset);
  enc.put_u32(length);
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc.call(method_id(Method::kGetChunk), enc.buffer()));
  xdr::Decoder dec(reply);
  auto data = dec.bytes();
  if (!data.is_ok()) return data_loss("get chunk: malformed reply");
  return data;
}

Status put_chunk(net::RpcClient& rpc, const std::string& path,
                 std::uint64_t offset, bool truncate_to_offset, Buffer data) {
  xdr::Encoder enc;
  enc.put_string(path);
  enc.put_u64(offset);
  enc.put_bool(truncate_to_offset);
  return rpc
      .call(method_id(Method::kPutChunk),
            std::move(enc).finish_with_bytes(std::move(data)))
      .status();
}

Buffer relay_chunk_request(const multicast::RelayNode& node,
                           std::uint64_t offset, bool truncate_to_offset,
                           Buffer data) {
  xdr::Encoder enc;
  multicast::encode_node(enc, node);
  enc.put_u64(offset);
  enc.put_bool(truncate_to_offset);
  return std::move(enc).finish_with_bytes(std::move(data));
}

}  // namespace griddles::remote
