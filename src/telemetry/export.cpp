#include "telemetry/export.hpp"

#include "util/json.hpp"

namespace faultstudy::telemetry {
namespace {

/// Maps an internal metric name ("env/proc/spawns") onto a valid Prometheus
/// metric name: illegal characters become '_' and a leading digit gets a
/// '_' prefix (names must match [a-zA-Z_:][a-zA-Z0-9_:]*).
std::string sanitized(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out.empty() || (out.front() >= '0' && out.front() <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

/// Counter names carry the conventional `_total` suffix promtool lints for.
std::string counter_name(std::string_view name) {
  std::string out = sanitized(name);
  if (!out.ends_with("_total")) out += "_total";
  return out;
}

/// Escapes a value for a `label="..."` position or a HELP line: the
/// exposition format reserves backslash, double-quote, and newline.
std::string prom_escaped(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// `# HELP` then `# TYPE`, in that order; the HELP text names the internal
/// metric the exposition name was derived from.
void append_prom_header(std::string& out, const std::string& name,
                        std::string_view source, std::string_view kind) {
  out += "# HELP " + name + " faultstudy " + std::string(kind) + " '" +
         prom_escaped(source) + "' (simulated-clock domain)\n";
  out += "# TYPE " + name + " " + std::string(kind) + "\n";
}

}  // namespace

std::string to_chrome_trace(const std::vector<TraceThread>& threads) {
  using util::json::append_int;
  using util::json::append_quoted;
  using util::json::append_uint;
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out.push_back(',');
    first = false;
  };
  for (std::size_t t = 0; t < threads.size(); ++t) {
    const std::size_t tid = t + 1;
    comma();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    append_uint(out, tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_quoted(out, threads[t].label);
    out += "}}";
    if (threads[t].tracer == nullptr) continue;
    for (const Span& span : threads[t].tracer->spans()) {
      comma();
      out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
      append_uint(out, tid);
      out += ",\"ts\":";
      append_int(out, span.start);
      out += ",\"dur\":";
      append_int(out, span.duration);
      out += ",\"name\":";
      append_quoted(out, span.name);
      out += ",\"args\":{\"depth\":";
      append_uint(out, span.depth);
      out += "}}";
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& c : snapshot.counters) {
    const std::string name = counter_name(c.name);
    append_prom_header(out, name, c.name, "counter");
    out += name + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = sanitized(g.name);
    append_prom_header(out, name, g.name, "gauge");
    out += name + " " + std::to_string(g.value) + "\n";
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = sanitized(h.name);
    append_prom_header(out, name, h.name, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.buckets[i];
      out += name + "_bucket{le=\"" +
             prom_escaped(std::to_string(h.bounds[i])) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += name + "_sum " + std::to_string(h.sum) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string to_json(const MetricsSnapshot& snapshot) {
  using util::json::append_int;
  using util::json::append_quoted;
  using util::json::append_uint;
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) out.push_back(',');
    append_quoted(out, snapshot.counters[i].name);
    out.push_back(':');
    append_uint(out, snapshot.counters[i].value);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i > 0) out.push_back(',');
    append_quoted(out, snapshot.gauges[i].name);
    out.push_back(':');
    append_int(out, snapshot.gauges[i].value);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    if (i > 0) out.push_back(',');
    append_quoted(out, h.name);
    out += ":{\"bounds\":[";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out.push_back(',');
      append_int(out, h.bounds[b]);
    }
    out += "],\"buckets\":[";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out.push_back(',');
      append_uint(out, h.buckets[b]);
    }
    out += "],\"count\":";
    append_uint(out, h.count);
    out += ",\"sum\":";
    append_int(out, h.sum);
    out += "}";
  }
  out += "}}\n";
  return out;
}

}  // namespace faultstudy::telemetry
