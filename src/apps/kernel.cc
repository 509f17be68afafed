#include "src/apps/kernel.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/strings.h"

namespace griddles::apps {

namespace {
/// splitmix64: cheap, high-quality mixing for deterministic content.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Byte `index` of the stream whose path hashes to `seed`: one mix per
/// 8-byte lane keeps generation fast while staying byte-addressable.
std::uint8_t stream_byte_of(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t lane = mix64(seed ^ (index / 8));
  return static_cast<std::uint8_t>(lane >> ((index % 8) * 8));
}
}  // namespace

std::uint8_t stream_byte(const std::string& path, std::uint64_t index) {
  return stream_byte_of(fnv1a(as_bytes_view(path)), index);
}

void fill_stream(const std::string& path, std::uint64_t offset,
                 MutableByteSpan out) {
  const std::uint64_t seed = fnv1a(as_bytes_view(path));
  std::size_t i = 0;
  // Byte-wise up to a lane boundary, whole lanes, then a byte-wise tail.
  for (; i < out.size() && (offset + i) % 8 != 0; ++i) {
    out[i] = static_cast<std::byte>(stream_byte_of(seed, offset + i));
  }
  for (; out.size() - i >= 8; i += 8) {
    std::uint64_t lane = mix64(seed ^ ((offset + i) / 8));
    if constexpr (std::endian::native == std::endian::big) {
      lane = __builtin_bswap64(lane);
    }
    std::memcpy(out.data() + i, &lane, 8);
  }
  for (; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>(stream_byte_of(seed, offset + i));
  }
}

namespace {

struct OpenStream {
  int fd = -1;
  const StreamSpec* spec = nullptr;
  std::uint64_t position = 0;   // bytes moved so far
  bool via_disk = false;        // routed to local/staged storage
  bool via_buffer = false;      // routed to a grid buffer channel
};

/// Classifies an FM route for cost charging.
void classify(core::FileMultiplexer& fm, OpenStream& stream) {
  auto description = fm.describe(stream.fd);
  if (!description.is_ok()) return;
  stream.via_disk = strings::starts_with(*description, "local:") ||
                    strings::starts_with(*description, "staged:") ||
                    strings::starts_with(*description, "tail:");
  stream.via_buffer =
      description->find("gridbuffer:") != std::string::npos;
}

/// Charges the machine for one IO operation according to its route.
void charge_io(testbed::MachineRuntime& machine, const OpenStream& stream,
               std::size_t bytes) {
  if (bytes == 0) return;
  if (stream.via_disk) {
    machine.disk_transfer(bytes);
  } else if (stream.via_buffer) {
    const double blocks = static_cast<double>(bytes) / 4096.0;
    machine.compute(blocks * machine.spec().ipc_units_per_block);
  }
}

}  // namespace

Result<AppReport> run_app(const AppKernel& kernel, core::FileMultiplexer& fm,
                          testbed::MachineRuntime& machine, Clock& clock) {
  AppReport report;
  report.name = kernel.name;
  report.started = clock.now();

  std::vector<OpenStream> inputs(kernel.inputs.size());
  std::vector<OpenStream> outputs(kernel.outputs.size());
  for (std::size_t i = 0; i < kernel.inputs.size(); ++i) {
    GL_ASSIGN_OR_RETURN(inputs[i].fd, fm.open(kernel.inputs[i].path,
                                              vfs::OpenFlags::input()));
    inputs[i].spec = &kernel.inputs[i];
    classify(fm, inputs[i]);
  }
  for (std::size_t i = 0; i < kernel.outputs.size(); ++i) {
    GL_ASSIGN_OR_RETURN(outputs[i].fd, fm.open(kernel.outputs[i].path,
                                               vfs::OpenFlags::output()));
    outputs[i].spec = &kernel.outputs[i];
    classify(fm, outputs[i]);
  }

  const int steps = std::max(1, kernel.timesteps);
  Bytes io_buffer(kAppIoChunk);
  for (int step = 0; step < steps; ++step) {
    // Read this step's slice of every input.
    for (OpenStream& input : inputs) {
      const std::uint64_t target =
          input.spec->bytes * static_cast<std::uint64_t>(step + 1) /
          static_cast<std::uint64_t>(steps);
      while (input.position < target) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(io_buffer.size(),
                                    target - input.position));
        GL_ASSIGN_OR_RETURN(const std::size_t got,
                            fm.read(input.fd, {io_buffer.data(), want}));
        if (got == 0) {
          return io_error(strings::cat(
              kernel.name, ": premature EOF on ", input.spec->path, " at ",
              input.position, " of ", input.spec->bytes));
        }
        if (kernel.verify_inputs) {
          Bytes expected(got);
          fill_stream(input.spec->path, input.position,
                      {expected.data(), got});
          if (!std::equal(expected.begin(), expected.end(),
                          io_buffer.begin())) {
            return io_error(strings::cat(kernel.name,
                                         ": corrupt data in ",
                                         input.spec->path, " near offset ",
                                         input.position));
          }
        }
        charge_io(machine, input, got);
        input.position += got;
        report.bytes_read += got;
      }
    }

    // Compute this step's share.
    machine.compute(kernel.work_units / steps);

    // Write this step's slice of every output.
    for (OpenStream& output : outputs) {
      const std::uint64_t target =
          output.spec->bytes * static_cast<std::uint64_t>(step + 1) /
          static_cast<std::uint64_t>(steps);
      while (output.position < target) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(io_buffer.size(),
                                    target - output.position));
        fill_stream(output.spec->path, output.position,
                    {io_buffer.data(), want});
        GL_ASSIGN_OR_RETURN(const std::size_t put,
                            fm.write(output.fd, {io_buffer.data(), want}));
        if (put != want) {
          return io_error(strings::cat(kernel.name, ": short write on ",
                                       output.spec->path));
        }
        charge_io(machine, output, put);
        output.position += put;
        report.bytes_written += put;
      }
    }
  }

  // Optional re-read of the first input (DARLAM's §5.3 behaviour): seek
  // back to the start and consume `reread_bytes` again, which a Grid
  // Buffer serves from its cache file.
  if (kernel.reread_bytes > 0 && !inputs.empty()) {
    OpenStream& input = inputs.front();
    GL_ASSIGN_OR_RETURN(const std::uint64_t pos,
                        fm.seek(input.fd, 0, vfs::Whence::kSet));
    (void)pos;
    std::uint64_t remaining =
        std::min<std::uint64_t>(kernel.reread_bytes, input.spec->bytes);
    std::uint64_t offset = 0;
    while (remaining > 0) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(io_buffer.size(), remaining));
      GL_ASSIGN_OR_RETURN(const std::size_t got,
                          fm.read(input.fd, {io_buffer.data(), want}));
      if (got == 0) break;
      if (kernel.verify_inputs) {
        Bytes expected(got);
        fill_stream(input.spec->path, offset, {expected.data(), got});
        if (!std::equal(expected.begin(), expected.end(),
                        io_buffer.begin())) {
          return io_error(strings::cat(kernel.name,
                                       ": corrupt re-read data in ",
                                       input.spec->path));
        }
      }
      charge_io(machine, input, got);
      remaining -= got;
      offset += got;
      report.bytes_read += got;
    }
  }

  for (OpenStream& input : inputs) GL_RETURN_IF_ERROR(fm.close(input.fd));
  for (OpenStream& output : outputs) {
    GL_RETURN_IF_ERROR(fm.close(output.fd));
  }

  report.finished = clock.now();
  return report;
}

}  // namespace griddles::apps
