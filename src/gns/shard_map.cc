#include "src/gns/shard_map.h"

#include <algorithm>

#include "src/common/bytes.h"

namespace griddles::gns {

namespace {
std::uint64_t hash_text(std::string_view text) {
  return fnv1a(as_bytes_view(text));
}

/// splitmix64 finalizer — the rendezvous weight mixer. Independent of
/// fault::mix so shard placement never changes with fault-plan code.
std::uint64_t finalize(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

std::uint32_t ShardMap::shard_of(std::string_view host,
                                 std::string_view path) const {
  const std::uint32_t shards = std::max<std::uint32_t>(1, num_shards);
  const std::uint64_t h =
      finalize(hash_text(host) ^ (hash_text(path) * 0x100000001b3ULL));
  return static_cast<std::uint32_t>(h % shards);
}

std::uint32_t ShardMap::shard_of_rule(std::string_view host_pattern,
                                      std::string_view path_pattern) const {
  const auto globs = [](std::string_view pattern) {
    return pattern.find_first_of("*?") != std::string_view::npos;
  };
  if (globs(host_pattern) || globs(path_pattern)) return kGlobalShard;
  return shard_of(host_pattern, path_pattern);
}

std::uint32_t ShardMap::effective_replication() const noexcept {
  const auto count = static_cast<std::uint32_t>(replicas.size());
  if (replication == 0 || replication >= count) return count;
  return replication;
}

std::vector<std::string> ShardMap::owners(std::uint32_t shard) const {
  // Highest-random-weight: stable under membership change except for
  // the shards the joining/leaving replica wins or loses.
  std::vector<std::pair<std::uint64_t, std::string>> ranked;
  ranked.reserve(replicas.size());
  for (const std::string& replica : replicas) {
    ranked.emplace_back(finalize(hash_text(replica) ^ (shard + 1)),
                        replica);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  const std::size_t take = shard == kGlobalShard
                               ? replicas.size()
                               : effective_replication();
  std::vector<std::string> result;
  result.reserve(take);
  for (std::size_t i = 0; i < take && i < ranked.size(); ++i) {
    result.push_back(ranked[i].second);
  }
  return result;
}

bool ShardMap::owns(std::string_view replica, std::uint32_t shard) const {
  if (shard == kGlobalShard) {
    return std::find(replicas.begin(), replicas.end(), replica) !=
           replicas.end();
  }
  const std::vector<std::string> list = owners(shard);
  return std::find(list.begin(), list.end(), replica) != list.end();
}

std::vector<std::uint32_t> ShardMap::shards_of(
    std::string_view replica) const {
  std::vector<std::uint32_t> result;
  for (std::uint32_t shard = 0; shard < num_shards; ++shard) {
    if (owns(replica, shard)) result.push_back(shard);
  }
  if (owns(replica, kGlobalShard)) result.push_back(kGlobalShard);
  return result;
}

void ShardMap::encode(xdr::Encoder& enc) const {
  enc.put_u64(epoch);
  enc.put_u32(num_shards);
  enc.put_u32(replication);
  enc.put_vector(replicas, [](xdr::Encoder& e, const std::string& name) {
    e.put_string(name);
  });
}

Result<ShardMap> ShardMap::decode(xdr::Decoder& dec) {
  ShardMap map;
  GL_ASSIGN_OR_RETURN(map.epoch, dec.u64());
  GL_ASSIGN_OR_RETURN(map.num_shards, dec.u32());
  GL_ASSIGN_OR_RETURN(map.replication, dec.u32());
  GL_ASSIGN_OR_RETURN(map.replicas, dec.vector<std::string>([](
                                        xdr::Decoder& d) {
                        return d.string();
                      }));
  return map;
}

}  // namespace griddles::gns
