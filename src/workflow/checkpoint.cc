#include "src/workflow/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/obs/metrics.h"
#include "src/xdr/codec.h"

namespace griddles::workflow {

namespace {
constexpr std::uint32_t kMagic = 0x474C434BU;  // 'GLCK'
constexpr std::uint8_t kStageKind = 1;
constexpr std::uint8_t kCopyKind = 2;

Status errno_status(const char* op, const std::string& path) {
  return io_error(
      strings::cat(op, " ", path, ": ", strings::errno_message(errno)));
}

Bytes encode_stage(const StageRecord& record) {
  xdr::Encoder enc;
  enc.put_string(record.name);
  enc.put_string(record.machine);
  enc.put_f64(record.started_s);
  enc.put_f64(record.finished_s);
  enc.put_u64(record.bytes_read);
  enc.put_u64(record.bytes_written);
  enc.put_vector(record.outputs,
                 [](xdr::Encoder& e,
                    const std::pair<std::string, std::uint64_t>& output) {
                   e.put_string(output.first);
                   e.put_u64(output.second);
                 });
  return std::move(enc).take();
}

Result<StageRecord> decode_stage(const Buffer& payload) {
  xdr::Decoder dec(payload);
  StageRecord record;
  GL_ASSIGN_OR_RETURN(record.name, dec.string());
  GL_ASSIGN_OR_RETURN(record.machine, dec.string());
  GL_ASSIGN_OR_RETURN(record.started_s, dec.f64());
  GL_ASSIGN_OR_RETURN(record.finished_s, dec.f64());
  GL_ASSIGN_OR_RETURN(record.bytes_read, dec.u64());
  GL_ASSIGN_OR_RETURN(record.bytes_written, dec.u64());
  GL_ASSIGN_OR_RETURN(
      record.outputs,
      (dec.vector<std::pair<std::string, std::uint64_t>>(
          [](xdr::Decoder& d)
              -> Result<std::pair<std::string, std::uint64_t>> {
            GL_ASSIGN_OR_RETURN(std::string path, d.string());
            GL_ASSIGN_OR_RETURN(const std::uint64_t hash, d.u64());
            return std::make_pair(std::move(path), hash);
          })));
  return record;
}

Bytes encode_copy(const CopyRecord& record) {
  xdr::Encoder enc;
  enc.put_string(record.path);
  enc.put_string(record.from);
  enc.put_string(record.to);
  enc.put_f64(record.finished_s);
  enc.put_f64(record.seconds);
  enc.put_u64(record.dest_hash);
  return std::move(enc).take();
}

Result<CopyRecord> decode_copy(const Buffer& payload) {
  xdr::Decoder dec(payload);
  CopyRecord record;
  GL_ASSIGN_OR_RETURN(record.path, dec.string());
  GL_ASSIGN_OR_RETURN(record.from, dec.string());
  GL_ASSIGN_OR_RETURN(record.to, dec.string());
  GL_ASSIGN_OR_RETURN(record.finished_s, dec.f64());
  GL_ASSIGN_OR_RETURN(record.seconds, dec.f64());
  GL_ASSIGN_OR_RETURN(record.dest_hash, dec.u64());
  return record;
}
}  // namespace

Result<std::uint64_t> hash_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return errno_status("open", path);
  std::uint64_t hash = kFnv1aSeed;
  Bytes buffer(1u << 20);
  while (true) {
    const ssize_t n = ::read(fd, buffer.data(), buffer.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return errno_status("read", path);
    }
    if (n == 0) break;
    hash = fnv1a_update(hash, {buffer.data(), static_cast<std::size_t>(n)});
  }
  ::close(fd);
  return hash;
}

Result<std::unique_ptr<CheckpointLog>> CheckpointLog::open(
    const std::string& path) {
  const WallClock::time_point load_start = WallClock::now();
  {
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
    }
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return errno_status("open", path);
  auto log = std::unique_ptr<CheckpointLog>(new CheckpointLog(fd, path));

  // Replay: read the whole journal and decode record frames until the
  // first torn or corrupt one (a crash mid-append leaves at most one).
  Bytes contents;
  {
    Bytes buffer(1u << 16);
    while (true) {
      const ssize_t n = ::read(fd, buffer.data(), buffer.size());
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno_status("read", path);
      }
      if (n == 0) break;
      contents.insert(contents.end(), buffer.begin(), buffer.begin() + n);
    }
  }
  std::uint64_t valid_end = 0;
  xdr::Decoder dec(contents);
  while (dec.remaining() > 0) {
    const auto magic = dec.u32();
    if (!magic.is_ok() || *magic != kMagic) break;
    const auto kind = dec.u8();
    if (!kind.is_ok()) break;
    const auto payload = dec.bytes();
    if (!payload.is_ok()) break;
    const auto crc = dec.u64();
    if (!crc.is_ok() || *crc != fnv1a(*payload)) break;
    if (*kind == kStageKind) {
      const auto record = decode_stage(*payload);
      if (!record.is_ok()) break;
      log->stages_.push_back(*record);
    } else if (*kind == kCopyKind) {
      const auto record = decode_copy(*payload);
      if (!record.is_ok()) break;
      log->copies_.push_back(*record);
    } else {
      break;  // unknown kind: treat like a torn tail
    }
    ++log->replayed_;
    valid_end = contents.size() - dec.remaining();
  }
  if (valid_end < contents.size()) {
    GL_LOG(kWarn, "checkpoint ", path, ": dropping torn tail (",
           contents.size() - valid_end, " bytes after record ",
           log->replayed_, ")");
    if (::ftruncate(fd, static_cast<off_t>(valid_end)) != 0) {
      return errno_status("ftruncate", path);
    }
  }
  if (::lseek(fd, static_cast<off_t>(valid_end), SEEK_SET) < 0) {
    return errno_status("lseek", path);
  }

  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& replayed =
      registry.counter("checkpoint.records.replayed");
  static obs::Histogram& replay_s = registry.histogram(
      "checkpoint.replay_s", obs::exponential_bounds(1e-4, 10.0, 7));
  replayed.add(log->replayed_);
  replay_s.observe(
      to_seconds_d(WallClock::now() - load_start));
  return log;
}

CheckpointLog::~CheckpointLog() {
  if (fd_ >= 0) ::close(fd_);
}

Status CheckpointLog::append(std::uint8_t kind, const Bytes& payload) {
  xdr::Encoder enc;
  enc.put_u32(kMagic);
  enc.put_u8(kind);
  enc.put_bytes(payload);
  enc.put_u64(fnv1a(payload));
  const Bytes& frame = enc.buffer();
  std::size_t put = 0;
  while (put < frame.size()) {
    const ssize_t n = ::write(fd_, frame.data() + put, frame.size() - put);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("write", path_);
    }
    put += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) return errno_status("fsync", path_);
  return Status::ok();
}

Status CheckpointLog::append_stage(const StageRecord& record) {
  GL_RETURN_IF_ERROR(append(kStageKind, encode_stage(record)));
  stages_.push_back(record);
  return Status::ok();
}

Status CheckpointLog::append_copy(const CopyRecord& record) {
  GL_RETURN_IF_ERROR(append(kCopyKind, encode_copy(record)));
  copies_.push_back(record);
  return Status::ok();
}

const StageRecord* CheckpointLog::stage(const std::string& name) const {
  const StageRecord* found = nullptr;
  for (const StageRecord& record : stages_) {
    if (record.name == name) found = &record;
  }
  return found;
}

const CopyRecord* CheckpointLog::copy(const std::string& path,
                                      const std::string& from,
                                      const std::string& to) const {
  const CopyRecord* found = nullptr;
  for (const CopyRecord& record : copies_) {
    if (record.path == path && record.from == from && record.to == to) {
      found = &record;
    }
  }
  return found;
}

}  // namespace griddles::workflow
