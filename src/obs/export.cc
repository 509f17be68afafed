#include "src/obs/export.h"

#include <charconv>
#include <cstdio>
#include <fstream>

#include "src/common/lockdep.h"
#include "src/common/strings.h"

namespace griddles::obs {

MetricsSnapshot snapshot(const MetricsRegistry& registry) {
  MetricsSnapshot snap;
  registry.visit(
      [&](const std::string& name, const Counter& c) {
        snap.counters[name] = c.value();
      },
      [&](const std::string& name, const Gauge& g) {
        snap.gauges[name] = g.value();
      },
      [&](const std::string& name, const Histogram& h) {
        MetricsSnapshot::HistogramData data;
        data.bounds = h.bounds();
        data.counts.reserve(data.bounds.size() + 1);
        for (std::size_t i = 0; i <= data.bounds.size(); ++i) {
          data.counts.push_back(h.bucket_count(i));
        }
        data.count = h.count();
        data.sum = h.sum();
        snap.histograms[name] = std::move(data);
      });
  // The runtime lock-order detector lives below the obs layer (its hooks
  // sit inside griddles::Mutex), so its counters are bridged into the
  // process snapshot here rather than registered as handles. Local
  // registries used by tests stay untouched.
  if (&registry == &MetricsRegistry::global()) {
    snap.counters["lockorder.edges"] = lockdep::edges();
    snap.counters["lockorder.violations"] = lockdep::violations();
  }
  return snap;
}

std::string json_quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) return "0";
  return std::string(buf, end);
}

namespace {

template <typename Map, typename ValueFn>
void append_object(std::string& out, const char* key, const Map& map,
                   ValueFn value) {
  out += json_quote(key);
  out += ":{";
  bool first = true;
  for (const auto& [name, entry] : map) {
    if (!first) out.push_back(',');
    first = false;
    out += json_quote(name);
    out.push_back(':');
    out += value(entry);
  }
  out.push_back('}');
}

template <typename T, typename ValueFn>
std::string json_array(const std::vector<T>& values, ValueFn value) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += value(values[i]);
  }
  out.push_back(']');
  return out;
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{";
  append_object(out, "counters", snapshot.counters,
                [](std::uint64_t v) { return std::to_string(v); });
  out.push_back(',');
  append_object(out, "gauges", snapshot.gauges,
                [](std::int64_t v) { return std::to_string(v); });
  out.push_back(',');
  append_object(
      out, "histograms", snapshot.histograms,
      [](const MetricsSnapshot::HistogramData& h) {
        std::string body = "{\"bounds\":";
        body += json_array(h.bounds,
                           [](double b) { return json_number(b); });
        body += ",\"counts\":";
        body += json_array(h.counts, [](std::uint64_t c) {
          return std::to_string(c);
        });
        body += ",\"count\":";
        body += std::to_string(h.count);
        body += ",\"sum\":";
        body += json_number(h.sum);
        body.push_back('}');
        return body;
      });
  out.push_back('}');
  return out;
}

Status write_text_file(const std::string& path, std::string_view content) {
  if (path == "-") {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return Status::ok();
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return io_error(strings::cat("cannot open ", path, " for writing"));
  }
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  out.close();
  if (!out) return io_error(strings::cat("write failed: ", path));
  return Status::ok();
}

Status probe_writable(const std::string& path) {
  if (path == "-") return Status::ok();
  std::ofstream out(path, std::ios::app);  // append: probe must not clobber
  if (!out) {
    return io_error(strings::cat("cannot open ", path, " for writing"));
  }
  return Status::ok();
}

Status write_json_file(const std::string& path,
                       const MetricsSnapshot& snapshot) {
  return write_text_file(path, to_json(snapshot) + "\n");
}

}  // namespace griddles::obs
