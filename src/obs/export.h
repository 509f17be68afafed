// Snapshot/ToJson exporter for the metrics registry, plus the JSON and
// file-writing helpers the span exporters share. The tools that read
// these files back (tools/, perfbench/) are Python.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/obs/metrics.h"

namespace griddles::obs {

/// A point-in-time copy of every registered metric.
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<double> bounds;          // upper bounds
    std::vector<std::uint64_t> counts;   // bounds.size()+1 (overflow last)
    std::uint64_t count = 0;
    double sum = 0;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramData> histograms;
};

/// Captures the registry's current values (the process registry by
/// default).
MetricsSnapshot snapshot(
    const MetricsRegistry& registry = MetricsRegistry::global());

/// Renders a snapshot as one JSON object:
///   {"counters":{...},"gauges":{...},
///    "histograms":{"name":{"bounds":[...],"counts":[...],
///                          "count":N,"sum":S}, ...}}
std::string to_json(const MetricsSnapshot& snapshot);

/// `"..."` with the JSON escapes the exporter needs (quote, backslash,
/// control characters).
std::string json_quote(std::string_view text);

/// Shortest round-trippable rendering of a double (JSON number).
std::string json_number(double value);

/// Writes `content` to `path` ("-" = stdout), checking the stream after
/// both the write and the close so a full disk or revoked permission
/// surfaces as a typed Status instead of a silently truncated report.
Status write_text_file(const std::string& path, std::string_view content);

/// Verifies `path` can be opened for writing WITHOUT truncating what is
/// there ("-" always passes). Telemetry consumers probe their output
/// paths up front so a typo fails the run before hours of work, not
/// after.
Status probe_writable(const std::string& path);

/// Writes to_json(snapshot) to `path`; "-" writes to stdout.
Status write_json_file(const std::string& path,
                       const MetricsSnapshot& snapshot);

}  // namespace griddles::obs
