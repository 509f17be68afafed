// Ablation C: Grid Buffer latency sensitivity vs the writer's run window.
//
// The paper observed that buffer streams lose to bulk file copies on
// high-latency links because "the file copy sends larger blocks of data,
// and thus the performance is less sensitive to network latency", and
// closed by "investigating whether we can produce a version of the
// buffer code that is less sensitive to network latency". This bench IS
// that investigation: at the paper's 4 KiB block it streams a fixed
// payload over modelled links while sweeping the writer's window (4
// senders, each carrying window / 4 blocks per kWrite; DESIGN.md §16),
// with the closed-form prediction alongside.
//
// It is also a relation gate: it exits nonzero unless, on AU-UK,
//   - the paper window (one block per kWrite) measures at most 1.2x the
//     closed form, i.e. the stream really is latency-bound, and
//   - a 16-block run window measures at least 3x the paper window.
//
//   ./bench_ablation_blocksize [--fast]
#include <cstdio>
#include <cstring>
#include <thread>

#include "src/common/tempfile.h"
#include "src/desim/predict.h"
#include "src/gridbuffer/client.h"
#include "src/gridbuffer/server.h"
#include "src/net/inproc.h"

using namespace griddles;

namespace {

struct LinkCase {
  const char* name;
  testbed::LinkSpec spec;
};

constexpr std::uint32_t kBlock = 4096;  // the paper's block
constexpr int kSenders = 4;
constexpr std::size_t kPaperWindow = kSenders;  // one block per kWrite
constexpr std::size_t kWideWindow = 16 * kSenders;  // 16-block runs

/// Streams the payload over `link` and returns measured model bytes/s
/// (0 when the stream failed).
double measure(const LinkCase& link, std::size_t window,
               double wall_per_model) {
  const double byte_scale = 64.0;
  const std::uint64_t payload_model = 5u * 1000 * 1000;  // 5 MB stream

  // Real run, scaled: bytes and block size divided by byte_scale, link
  // bandwidth divided likewise (latency unchanged).
  ScaledClock clock(wall_per_model);
  net::InProcNetwork network(clock);
  net::LinkModel model;
  model.latency = from_seconds_d(link.spec.latency_s);
  model.bandwidth_bytes_per_sec = link.spec.mb_per_s * 1e6 / byte_scale;
  network.links().set_link("a", "b", model);
  auto scratch = TempDir::create("abl-c");
  if (!scratch.is_ok()) return 0;
  auto server_transport = network.transport("b");
  gridbuffer::GridBufferServer server(scratch->file("cache").string(),
                                      *server_transport,
                                      net::inproc_endpoint("b", "gbuf"));
  if (!server.start().is_ok()) return 0;
  auto writer_transport = network.transport("a");
  auto reader_transport = network.transport("b");

  const std::uint64_t payload_real =
      payload_model / static_cast<std::uint64_t>(byte_scale);
  const std::uint32_t block_real =
      static_cast<std::uint32_t>(kBlock / byte_scale);

  gridbuffer::GridBufferWriter::Options writer_options;
  writer_options.channel.block_size = block_real;
  writer_options.channel.cache_enabled = false;
  writer_options.flusher_threads = kSenders;
  writer_options.window_blocks = window;

  const Duration start = clock.now();
  std::thread producer([&] {
    auto writer = gridbuffer::GridBufferWriter::open(
        *writer_transport, server.endpoint(), "abl", writer_options);
    if (!writer.is_ok()) return;
    // Each write() hands over a whole window: a run never spans write()
    // calls, so smaller writes would cap the run below window / senders.
    Bytes chunk(block_real * kWideWindow, std::byte{0x7e});
    std::uint64_t sent = 0;
    while (sent < payload_real) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(chunk.size(), payload_real - sent));
      if (!(*writer)->write({chunk.data(), n}).is_ok()) return;
      sent += n;
    }
    (void)(*writer)->close();
  });
  gridbuffer::GridBufferReader::Options reader_options;
  reader_options.channel.block_size = block_real;
  reader_options.channel.cache_enabled = false;
  auto reader = gridbuffer::GridBufferReader::open(
      *reader_transport, server.endpoint(), "abl", reader_options);
  std::uint64_t received = 0;
  if (reader.is_ok()) {
    Bytes buffer(block_real * 8);
    while (true) {
      auto n = (*reader)->read({buffer.data(), buffer.size()});
      if (!n.is_ok() || *n == 0) break;
      received += *n;
    }
    (void)(*reader)->close();
  }
  producer.join();
  const double elapsed = to_seconds_d(clock.now() - start);
  server.stop();
  if (received != payload_real) return 0;
  return static_cast<double>(payload_model) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;
  }
  // A gentle 500x compression keeps the real per-RPC wall cost small
  // against the modelled per-run round trips on WAN links; rows with
  // sub-millisecond modelled latency are inherently bounded by the real
  // RPC stack instead (see the note under the table).
  const double wall_per_model = fast ? 1.0 / 2000 : 1.0 / 500;

  const LinkCase links[] = {
      {"metro (2ms, 3.6MB/s)", {0.002, 3.6}},
      {"AU-US (90ms, 0.84MB/s)", {0.090, 0.84}},
      {"AU-UK (165ms, 0.40MB/s)", {0.165, 0.40}},
  };
  const std::size_t windows[] = {kPaperWindow, 8, 16, 32, kWideWindow};

  std::printf(
      "\n=== Ablation C: buffer stream throughput vs run window ===\n"
      "(5 MB stream, 4 KiB blocks, %d senders, each carrying window/%d "
      "blocks per kWrite; measured = real Grid Buffer stack on the "
      "modelled link; predicted = closed form; KB/s in model units. On "
      "links with sub-ms latency the measured column is bounded by the "
      "real RPC stack, not the model — compare trends, and the WAN rows, "
      "against the prediction.)\n\n",
      kSenders, kSenders);

  double paper_measured = 0;
  double paper_predicted = 0;
  double wide_measured = 0;
  for (const LinkCase& link : links) {
    std::printf("--- %s ---\n", link.name);
    std::printf("%-8s %-11s %12s %12s\n", "window", "blocks/RPC", "measured",
                "predicted");
    for (const std::size_t window : windows) {
      const double predicted_bps =
          desim::buffer_stream_bps(link.spec, kBlock, window, kSenders);
      const double measured_bps = measure(link, window, wall_per_model);
      std::printf("%-8zu %-11zu %10.0f/s %10.0f/s\n", window,
                  window / kSenders, measured_bps / 1000,
                  predicted_bps / 1000);
      if (&link == &links[2]) {
        if (window == kPaperWindow) {
          paper_measured = measured_bps;
          paper_predicted = predicted_bps;
        } else if (window == kWideWindow) {
          wide_measured = measured_bps;
        }
      }
    }
    std::printf("\n");
  }
  std::printf(
      "(One-block runs collapse on high-latency links — the paper's "
      "Table 5 buffer losses; wider run windows restore bandwidth-bound "
      "behaviour, the paper's proposed fix.)\n\n");

  const bool latency_bound =
      paper_measured > 0 && paper_measured <= 1.2 * paper_predicted;
  const bool runs_win =
      paper_measured > 0 && wide_measured >= 3 * paper_measured;
  std::printf("gate AU-UK: paper window measured/predicted = %.2f (<= 1.20) "
              "%s\n",
              paper_predicted > 0 ? paper_measured / paper_predicted : 0.0,
              latency_bound ? "ok" : "FAIL");
  std::printf("gate AU-UK: 16-block runs / paper window = %.2f (>= 3.00) "
              "%s\n",
              paper_measured > 0 ? wide_measured / paper_measured : 0.0,
              runs_win ? "ok" : "FAIL");
  return latency_bound && runs_win ? 0 : 1;
}
