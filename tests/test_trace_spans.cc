// Tests for src/obs/span.h: RAII nesting and parent/child integrity,
// cross-thread and cross-RPC context propagation, retry spans under an
// armed fault plan, bounded-buffer overflow accounting, the Chrome
// trace-event export, and whole-workflow span trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/apps/paper_apps.h"
#include "src/common/clock.h"
#include "src/common/tempfile.h"
#include "src/fault/plan.h"
#include "src/net/inproc.h"
#include "src/net/rpc.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/testbed/testbed.h"
#include "src/workflow/runner.h"
#include "tests/test_scaling.h"

namespace griddles {
namespace {

using obs::Span;
using obs::SpanCollector;
using obs::SpanKind;
using obs::SpanRecord;

/// Enables the global collector for one test and leaves it clean
/// (disabled, drained) for whichever suite runs next in this binary.
class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    collector().enable(true);
    (void)collector().drain();  // spans leaked by earlier tests
  }
  void TearDown() override {
    collector().enable(false);
    (void)collector().drain();
    fault::disarm();  // belt and braces: no plan may leak out
  }

  static SpanCollector& collector() { return SpanCollector::global(); }

  static std::vector<SpanRecord> drain() {
    return SpanCollector::global().drain();
  }

  static const SpanRecord* find(const std::vector<SpanRecord>& spans,
                                SpanKind kind) {
    for (const SpanRecord& span : spans) {
      if (span.kind == kind) return &span;
    }
    return nullptr;
  }

  /// Every span's parent must exist in the same trace (or be 0): the
  /// invariant that makes the exported tree reassemble.
  static void expect_tree_integrity(const std::vector<SpanRecord>& spans) {
    std::map<std::uint64_t, const SpanRecord*> by_id;
    for (const SpanRecord& span : spans) by_id[span.span_id] = &span;
    for (const SpanRecord& span : spans) {
      if (span.parent_id == 0) continue;
      const auto parent = by_id.find(span.parent_id);
      ASSERT_NE(parent, by_id.end())
          << span.name << ": parent " << span.parent_id << " not recorded";
      EXPECT_EQ(parent->second->trace_id, span.trace_id)
          << span.name << ": parent in a different trace";
    }
  }
};

TEST_F(SpanTest, DisabledHookRecordsNothing) {
  collector().enable(false);
  Span span(SpanKind::kStage, "stage:ghost");
  EXPECT_FALSE(span.active());
  EXPECT_FALSE(span.context().valid());
  EXPECT_FALSE(obs::current_context().valid());
  span.end();
  EXPECT_TRUE(drain().empty());
}

TEST_F(SpanTest, NestingEstablishesParentChildAndRestoresContext) {
  EXPECT_FALSE(obs::current_context().valid());
  std::uint64_t root_id = 0, mid_id = 0;
  {
    Span root(SpanKind::kWorkflow, "workflow:t");
    root_id = root.context().span_id;
    EXPECT_EQ(obs::current_context().span_id, root_id);
    {
      Span mid(SpanKind::kStage, "stage:a");
      mid_id = mid.context().span_id;
      Span leaf(SpanKind::kRpc, "rpc:read");
      leaf.add_attr("peer", "dione");
      EXPECT_EQ(leaf.context().trace_id, root.context().trace_id);
    }
    // Inner spans ended: the root is the current context again.
    EXPECT_EQ(obs::current_context().span_id, root_id);
  }
  EXPECT_FALSE(obs::current_context().valid());

  const std::vector<SpanRecord> spans = drain();
  ASSERT_EQ(spans.size(), 3u);
  expect_tree_integrity(spans);
  const SpanRecord* root = find(spans, SpanKind::kWorkflow);
  const SpanRecord* mid = find(spans, SpanKind::kStage);
  const SpanRecord* leaf = find(spans, SpanKind::kRpc);
  ASSERT_TRUE(root != nullptr && mid != nullptr && leaf != nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(mid->parent_id, root_id);
  EXPECT_EQ(leaf->parent_id, mid_id);
  EXPECT_GE(root->wall_end_s, root->wall_start_s);
  // Children end before their parent records (stack discipline).
  EXPECT_LE(leaf->wall_end_s, root->wall_end_s + 1e-9);
  ASSERT_EQ(leaf->attrs.size(), 1u);
  EXPECT_EQ(leaf->attrs[0].first, "peer");
  EXPECT_EQ(leaf->attrs[0].second, "dione");
}

TEST_F(SpanTest, DetachedSpanParentsToContextWithoutInstalling) {
  std::unique_ptr<Span> file;
  std::uint64_t stage_id = 0;
  {
    Span stage(SpanKind::kStage, "stage:a");
    stage_id = stage.context().span_id;
    file = Span::detached(SpanKind::kFile, "file:/d/OUT.DAT");
    ASSERT_NE(file, nullptr);
    // Not installed: spans opened meanwhile still parent to the stage.
    EXPECT_EQ(obs::current_context().span_id, stage_id);
    Span rpc(SpanKind::kRpc, "rpc:write");
  }
  // It outlives the stage and may end on another thread.
  std::thread([&file] { file->end(); }).join();
  file.reset();
  EXPECT_FALSE(obs::current_context().valid());

  const std::vector<SpanRecord> spans = drain();
  ASSERT_EQ(spans.size(), 3u);
  expect_tree_integrity(spans);
  EXPECT_EQ(find(spans, SpanKind::kFile)->parent_id, stage_id);
  EXPECT_EQ(find(spans, SpanKind::kRpc)->parent_id, stage_id);

  collector().enable(false);
  EXPECT_EQ(Span::detached(SpanKind::kFile, "file:/off"), nullptr);
}

TEST_F(SpanTest, ScopedTraceContextCarriesAcrossThreads) {
  Span parent(SpanKind::kStage, "stage:spawner");
  const obs::TraceContext handoff = obs::current_context();
  std::thread worker([handoff] {
    obs::ScopedTraceContext scope(handoff);
    Span child(SpanKind::kCopy, "copy.fetch:/x");
  });
  worker.join();  // the worker's thread buffer flushes at exit
  parent.end();

  const std::vector<SpanRecord> spans = drain();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord* child = find(spans, SpanKind::kCopy);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->trace_id, handoff.trace_id);
  EXPECT_EQ(child->parent_id, handoff.span_id);
  expect_tree_integrity(spans);
}

TEST_F(SpanTest, ModelClockStampsModelTime) {
  ManualClock model;
  model.advance(from_seconds_d(2.0));
  collector().set_model_clock(&model);
  {
    Span span(SpanKind::kOther, "timed");
    model.advance(from_seconds_d(3.0));
  }
  collector().set_model_clock(nullptr);
  Span untimed(SpanKind::kOther, "untimed");
  untimed.end();

  const std::vector<SpanRecord> spans = drain();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& timed = spans[0].name == "timed" ? spans[0] : spans[1];
  const SpanRecord& bare = spans[0].name == "timed" ? spans[1] : spans[0];
  EXPECT_DOUBLE_EQ(timed.model_start_s, 2.0);
  EXPECT_DOUBLE_EQ(timed.model_end_s, 5.0);
  EXPECT_DOUBLE_EQ(bare.model_start_s, 0.0);
  EXPECT_DOUBLE_EQ(bare.model_end_s, 0.0);
}

TEST_F(SpanTest, OverflowDropsSpansAndCountsThem) {
  constexpr std::size_t kCapacity = 8;
  constexpr int kRecorded = 100;
  collector().set_capacity(kCapacity);
  const std::uint64_t dropped_before = collector().dropped();
  const std::uint64_t counter_before =
      obs::MetricsRegistry::global().counter("obs.span.dropped").value();
  for (int i = 0; i < kRecorded; ++i) {
    Span span(SpanKind::kOther, "bulk");
  }
  const std::vector<SpanRecord> spans = drain();
  collector().set_capacity(SpanCollector::kDefaultCapacity);

  EXPECT_EQ(spans.size(), kCapacity);
  const std::uint64_t dropped = collector().dropped() - dropped_before;
  EXPECT_EQ(dropped, static_cast<std::uint64_t>(kRecorded) - kCapacity);
  EXPECT_EQ(obs::MetricsRegistry::global().counter("obs.span.dropped")
                    .value() -
                counter_before,
            dropped);
}

TEST_F(SpanTest, RpcHopParentsServerSpanToClientContext) {
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");

  net::RpcServer server(*server_t, net::inproc_endpoint("dione", "svc"));
  server.register_method(
      1, [](ByteSpan request, const net::RpcContext&) -> Result<Bytes> {
        return Bytes(request.begin(), request.end());
      });
  ASSERT_TRUE(server.start().is_ok());

  std::uint64_t caller_trace = 0, caller_span = 0;
  {
    Span caller(SpanKind::kStage, "stage:caller");
    caller_trace = caller.context().trace_id;
    caller_span = caller.context().span_id;
    net::RpcClient client(*client_t, server.endpoint());
    ASSERT_TRUE(client.call(1, as_bytes_view("ping")).is_ok());
  }
  server.stop();  // joins the worker, flushing its thread buffer

  const std::vector<SpanRecord> spans = drain();
  const SpanRecord* rpc = find(spans, SpanKind::kRpc);
  ASSERT_NE(rpc, nullptr) << "no server-side rpc span recorded";
  EXPECT_EQ(rpc->trace_id, caller_trace);
  EXPECT_EQ(rpc->parent_id, caller_span);
  EXPECT_EQ(rpc->name, "rpc:1");
  expect_tree_integrity(spans);
}

TEST_F(SpanTest, UntracedRpcMintsNoServerSpan) {
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");

  net::RpcServer server(*server_t, net::inproc_endpoint("dione", "svc"));
  server.register_method(
      1, [](ByteSpan, const net::RpcContext&) -> Result<Bytes> {
        return Bytes{};
      });
  ASSERT_TRUE(server.start().is_ok());
  {
    // No enclosing span: the frame carries trace_id 0 and the server
    // must not invent a root trace per request.
    net::RpcClient client(*client_t, server.endpoint());
    ASSERT_TRUE(client.call(1, {}).is_ok());
  }
  server.stop();
  EXPECT_EQ(find(drain(), SpanKind::kRpc), nullptr);
}

TEST_F(SpanTest, FaultedRpcRecordsRetryChildSpans) {
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");

  net::RpcServer server(*server_t, net::inproc_endpoint("dione", "svc"));
  server.register_method(
      1, [](ByteSpan, const net::RpcContext&) -> Result<Bytes> {
        return Bytes{};
      });
  ASSERT_TRUE(server.start().is_ok());

  // First two attempts are injected drops; the third succeeds.
  auto plan = fault::Plan::parse("drop@rpc:jagan>dione:count=2");
  ASSERT_TRUE(plan.is_ok()) << plan.status();
  fault::arm(*plan, &clock);

  std::uint64_t caller_trace = 0;
  {
    Span caller(SpanKind::kStage, "stage:caller");
    caller_trace = caller.context().trace_id;
    net::RpcClient client(*client_t, server.endpoint());
    ASSERT_TRUE(client.call(1, {}).is_ok());
  }
  fault::disarm();
  server.stop();

  const std::vector<SpanRecord> spans = drain();
  std::vector<const SpanRecord*> retries;
  for (const SpanRecord& span : spans) {
    if (span.kind == SpanKind::kRetry) retries.push_back(&span);
  }
  ASSERT_EQ(retries.size(), 2u) << "one retry span per failed attempt";
  for (const SpanRecord* retry : retries) {
    EXPECT_EQ(retry->trace_id, caller_trace);
    EXPECT_NE(retry->parent_id, 0u);
    const auto attempt = std::find_if(
        retry->attrs.begin(), retry->attrs.end(),
        [](const auto& attr) { return attr.first == "attempt"; });
    ASSERT_NE(attempt, retry->attrs.end());
    const auto error = std::find_if(
        retry->attrs.begin(), retry->attrs.end(),
        [](const auto& attr) { return attr.first == "error"; });
    ASSERT_NE(error, retry->attrs.end());
    EXPECT_NE(error->second.find("injected fault"), std::string::npos);
  }
  expect_tree_integrity(spans);
}

TEST_F(SpanTest, ChromeExportRendersIdsAsStringsAndEscapes) {
  {
    Span root(SpanKind::kWorkflow, "workflow:\"quoted\"");
    root.add_attr("mode", "grid_buffers");
    Span child(SpanKind::kBufferWait, "gbuf.read_wait:pipe");
  }
  const std::vector<SpanRecord> spans = drain();
  ASSERT_EQ(spans.size(), 2u);

  const SpanRecord& child =
      spans[0].kind == SpanKind::kBufferWait ? spans[0] : spans[1];
  const std::string event = obs::to_chrome_event(child);
  // 64-bit ids must be JSON strings: doubles corrupt them past 2^53.
  EXPECT_NE(event.find("\"span_id\":\"" + std::to_string(child.span_id) +
                       "\""),
            std::string::npos)
      << event;
  EXPECT_NE(event.find("\"cat\":\"buffer_wait\""), std::string::npos);
  EXPECT_NE(event.find("\"ph\":\"X\""), std::string::npos);

  // Render the full document from the drained records.
  const std::string json = obs::to_chrome_json(spans);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("workflow:\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"grid_buffers\""), std::string::npos);
  // The one drain took everything.
  EXPECT_TRUE(drain().empty());
}

TEST_F(SpanTest, WorkflowRunProducesOneRootedTree) {
  auto scratch = TempDir::create("trace-spans-wf");
  ASSERT_TRUE(scratch.is_ok());
  testbed::TestbedRuntime testbed(test_support::kClockScale / 4000.0,
                                  scratch->path().string(), 256.0);
  collector().set_model_clock(&testbed.clock());
  workflow::WorkflowRunner runner(testbed);
  auto spec = workflow::WorkflowSpec::from_pipeline(
      "trace-spans", apps::climate_pipeline(256.0), {"jagan"});
  ASSERT_TRUE(spec.is_ok());
  workflow::WorkflowRunner::Options options;
  options.mode = workflow::CouplingMode::kGridBuffers;
  auto report = runner.run(*spec, options);
  collector().set_model_clock(nullptr);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();

  const std::vector<SpanRecord> spans = drain();
  expect_tree_integrity(spans);

  std::vector<const SpanRecord*> roots;
  std::vector<const SpanRecord*> stages;
  for (const SpanRecord& span : spans) {
    if (span.kind == SpanKind::kWorkflow) roots.push_back(&span);
    if (span.kind == SpanKind::kStage) stages.push_back(&span);
  }
  ASSERT_EQ(roots.size(), 1u);
  const SpanRecord& root = *roots[0];
  EXPECT_EQ(root.parent_id, 0u);
  // climate pipeline: ccam -> cc2lam -> darlam.
  ASSERT_EQ(stages.size(), 3u);
  for (const SpanRecord* stage : stages) {
    EXPECT_EQ(stage->trace_id, root.trace_id);
    EXPECT_EQ(stage->parent_id, root.span_id);
    EXPECT_GE(stage->wall_start_s, root.wall_start_s - 1e-9);
    EXPECT_GE(stage->model_end_s, stage->model_start_s);
  }
  // The whole run shares the root's trace: opens and buffer waits too.
  for (const SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, root.trace_id) << span.name;
  }
  const SpanRecord* open = find(spans, SpanKind::kOpen);
  ASSERT_NE(open, nullptr) << "FileMultiplexer opens must be traced";
}

}  // namespace
}  // namespace griddles
