#include "forensics/export.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <concepts>
#include <stdexcept>
#include <unordered_map>

#include "util/json.hpp"

namespace faultstudy::forensics {
namespace {

// Both writers append every piece straight into the one output buffer.
// JSON keys and HTML markup are literals with nothing to escape, so they go
// in as they are; only the record's own strings pass through an escaper.

/// A string `put` writes as a quoted, escaped JSON string.
struct Json {
  std::string_view text;
};
/// A string `put` writes HTML-escaped.
struct Html {
  std::string_view text;
};

void append_html_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
}

void put_part(std::string& out, std::string_view text) { out += text; }
void put_part(std::string& out, char c) { out.push_back(c); }
void put_part(std::string& out, Json s) {
  util::json::append_quoted(out, s.text);
}
void put_part(std::string& out, Html s) { append_html_escaped(out, s.text); }
void put_part(std::string& out, std::unsigned_integral auto value) {
  util::json::append_uint(out, value);
}
void put_part(std::string& out, std::signed_integral auto value) {
  util::json::append_int(out, value);
}

/// Appends each part in order: text as it is, integers in decimal (as
/// std::to_string spells them), Json/Html strings escaped.
template <typename... Parts>
void put(std::string& out, const Parts&... parts) {
  (put_part(out, parts), ...);
}

// --- the JSON size bound ----------------------------------------------------
//
// to_json reserves its output once, from an upper bound computed from the
// records: ring events and the records' own strings exactly (they are
// most of the bytes), everything else at its widest. The frame constants
// below bound the keys, punctuation, enum names and numbers of one record,
// link or cluster.

using util::json::quoted_size;

/// Decimal digits the writer can print for one integer.
constexpr std::size_t kNumberMax = 20;
/// A record's keys, punctuation, enum names and numbers: about 430 bytes
/// of literals, five enum names of under 32 bytes and 19 numbers.
constexpr std::size_t kRecordFrameMax = 448 + 5 * 32 + 19 * kNumberMax;
/// A chain link's keys, punctuation, stage name and tick.
constexpr std::size_t kLinkFrameMax = 64 + kNumberMax;
/// A triage cluster's keys, punctuation, enum names and three counts.
constexpr std::size_t kClusterFrameMax = 256 + 4 * 32 + 3 * kNumberMax;
/// The document's schema, totals and array brackets.
constexpr std::size_t kDocumentFrameMax = 128 + 3 * kNumberMax;

std::size_t decimal_width(std::uint64_t value) {
  std::size_t width = 1;
  for (; value >= 10; value /= 10) ++width;
  return width;
}

constexpr auto kNumFlightCodes = static_cast<std::size_t>(FlightCode::kCount);

/// Longest event prefix the writer supports; every FlightCode name is far
/// shorter.
constexpr std::size_t kPrefixMax = 64;

/// `{"code":"<name>","at":` for one FlightCode: a ring event is this
/// prefix and three numbers, written in one append.
struct EventPrefix {
  std::array<char, kPrefixMax> text{};
  std::size_t size = 0;
};

const std::array<EventPrefix, kNumFlightCodes>& event_prefixes() {
  static const auto prefixes = [] {
    std::array<EventPrefix, kNumFlightCodes> out;
    for (std::size_t c = 0; c < kNumFlightCodes; ++c) {
      std::string prefix = "{\"code\":";
      util::json::append_quoted(prefix, to_string(static_cast<FlightCode>(c)));
      prefix += ",\"at\":";
      if (prefix.size() > kPrefixMax) {
        throw std::length_error("flight code name too long: " + prefix);
      }
      std::copy(prefix.begin(), prefix.end(), out[c].text.begin());
      out[c].size = prefix.size();
    }
    return out;
  }();
  return prefixes;
}

constexpr std::string_view kEventA = ",\"a\":";
constexpr std::string_view kEventB = ",\"b\":";

/// Exact bytes of one ring event, its leading comma included.
std::size_t event_size(const FlightEvent& e) {
  return 1 + event_prefixes()[static_cast<std::size_t>(e.code)].size +
         decimal_width(static_cast<std::uint64_t>(e.at)) + kEventA.size() +
         decimal_width(e.a) + kEventB.size() + decimal_width(e.b) + 1;
}

std::size_t json_size_bound(const PostMortemRecord& pm) {
  std::size_t bytes = kRecordFrameMax + quoted_size(pm.fault_id) +
                      quoted_size(pm.mechanism) +
                      quoted_size(pm.first_failure);
  for (const CausalLink& link : pm.chain) {
    bytes += 1 + kLinkFrameMax + quoted_size(link.description);
  }
  for (const FlightEvent& e : pm.events) bytes += event_size(e);
  return bytes;
}

/// Appends `,` (unless first) and one ring event as a single append.
void append_event(std::string& out, const FlightEvent& e, bool first) {
  const EventPrefix& prefix =
      event_prefixes()[static_cast<std::size_t>(e.code)];
  char buf[1 + kPrefixMax + kEventA.size() + kEventB.size() +
           3 * kNumberMax + 1];
  const auto number = [](char* at, std::uint64_t value) {
    return std::to_chars(at, at + kNumberMax, value).ptr;
  };
  char* p = buf;
  if (!first) *p++ = ',';
  p = std::copy_n(prefix.text.begin(), std::min(prefix.size, kPrefixMax), p);
  p = number(p, static_cast<std::uint64_t>(e.at));
  p = std::copy(kEventA.begin(), kEventA.end(), p);
  p = number(p, e.a);
  p = std::copy(kEventB.begin(), kEventB.end(), p);
  p = number(p, e.b);
  *p++ = '}';
  out.append(buf, p);
}

std::string_view propagation_name(FlightCode propagation) {
  return propagation == FlightCode::kCount ? "direct"
                                           : to_string(propagation);
}

void append_env_state(std::string& out, const EnvResourceState& s) {
  put(out, "{\"procs_used\":", s.procs_used);
  put(out, ",\"procs_capacity\":", s.procs_capacity);
  put(out, ",\"fds_used\":", s.fds_used);
  put(out, ",\"fds_capacity\":", s.fds_capacity);
  put(out, ",\"disk_used\":", s.disk_used);
  put(out, ",\"disk_capacity\":", s.disk_capacity);
  put(out, ",\"entropy_bits\":", s.entropy_bits);
  put(out, ",\"kernel_resource\":", s.kernel_resource);
  put(out, ",\"dns_health\":", s.dns_health);
  put(out, ",\"link_state\":", s.link_state);
  put(out, ",\"network_card_present\":", s.network_card_present ? 1 : 0);
  out += "}";
}

void append_postmortem(std::string& out, const PostMortemRecord& pm) {
  put(out, "{\"fault_id\":", Json{pm.fault_id});
  put(out, ",\"app\":", Json{core::to_string(pm.app)});
  put(out, ",\"class\":", Json{core::to_code(pm.fault_class)});
  put(out, ",\"trigger\":", Json{core::to_string(pm.trigger)});
  put(out, ",\"mechanism\":", Json{pm.mechanism});
  put(out, ",\"verdict\":", Json{to_string(pm.verdict)});
  put(out, ",\"repeat\":", static_cast<std::uint64_t>(pm.repeat));
  put(out, ",\"ended_at\":", static_cast<std::uint64_t>(pm.ended_at));
  put(out, ",\"failures\":", pm.failures);
  put(out, ",\"recoveries\":", pm.recoveries);
  put(out, ",\"first_failure\":", Json{pm.first_failure});
  put(out, ",\"propagation\":", Json{propagation_name(pm.propagation)});
  out += ",\"chain\":[";
  for (std::size_t i = 0; i < pm.chain.size(); ++i) {
    const CausalLink& link = pm.chain[i];
    if (i > 0) out.push_back(',');
    put(out, "{\"stage\":", Json{to_string(link.stage)}, ",\"at\":",
        static_cast<std::uint64_t>(link.at), ",\"description\":",
        Json{link.description}, '}');
  }
  out += "],\"env_state\":";
  append_env_state(out, pm.env_state);
  out += ",\"events\":[";
  for (std::size_t i = 0; i < pm.events.size(); ++i) {
    append_event(out, pm.events[i], i == 0);
  }
  put(out, "],\"events_dropped\":", pm.events_dropped);
  put(out, ",\"race_reports\":", pm.race_reports);
  put(out, ",\"invariant_violations\":", pm.invariant_violations);
  put(out, ",\"analyzed\":", pm.analyzed ? 1 : 0);
  out += "}";
}

}  // namespace

std::size_t json_size_bound(const StudyForensics& study,
                            const std::vector<TriageCluster>& clusters) {
  std::size_t bytes = kDocumentFrameMax;
  for (const PostMortemRecord& pm : study.postmortems) {
    bytes += 1 + json_size_bound(pm);
  }
  for (const TriageCluster& c : clusters) {
    bytes += 1 + kClusterFrameMax + quoted_size(c.signature) +
             quoted_size(c.mechanism);
    for (const std::string& id : c.fault_ids) bytes += 1 + quoted_size(id);
  }
  return bytes;
}

std::string to_json(const StudyForensics& study,
                    const std::vector<TriageCluster>& clusters) {
  std::string out;
  out.reserve(json_size_bound(study, clusters));
  put(out, "{\"schema\":", Json{"faultstudy-forensics/1"});
  put(out, ",\"trials\":", study.trials);
  put(out, ",\"survived\":", study.survived);
  put(out, ",\"failures\":", study.failures());
  out += ",\"postmortems\":[";
  for (std::size_t i = 0; i < study.postmortems.size(); ++i) {
    if (i > 0) out.push_back(',');
    append_postmortem(out, study.postmortems[i]);
  }
  out += "],\"triage\":[";
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const TriageCluster& c = clusters[i];
    if (i > 0) out.push_back(',');
    put(out, "{\"signature\":", Json{c.signature});
    put(out, ",\"class\":", Json{core::to_code(c.fault_class)});
    put(out, ",\"trigger\":", Json{core::to_string(c.trigger)});
    put(out, ",\"propagation\":", Json{propagation_name(c.propagation)});
    put(out, ",\"mechanism\":", Json{c.mechanism});
    put(out, ",\"verdict\":", Json{to_string(c.verdict)});
    put(out, ",\"count\":", c.count);
    put(out, ",\"total_failures\":", c.total_failures);
    put(out, ",\"total_recoveries\":", c.total_recoveries);
    out += ",\"fault_ids\":[";
    for (std::size_t f = 0; f < c.fault_ids.size(); ++f) {
      if (f > 0) out.push_back(',');
      put(out, Json{c.fault_ids[f]});
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

namespace {

void append_tile(std::string& out, std::string_view label,
                 std::uint64_t value) {
  put(out, "<div class=tile><div class=tile-value>", value,
      "</div><div class=tile-label>", Html{label}, "</div></div>\n");
}

/// Full causal timelines rendered per cluster; the rest are listed by id
/// only (the JSON artifact always carries every record in full).
constexpr std::size_t kTimelinesPerCluster = 3;
/// Ring events rendered per timeline.
constexpr std::size_t kEventsPerTimeline = 48;

void append_timeline(std::string& out, const PostMortemRecord& pm) {
  put(out, "<details class=pm><summary><code>", Html{pm.fault_id},
      "</code> · ", Html{pm.mechanism}, " · repeat ", pm.repeat,
      " · <span class=verdict>", Html{to_string(pm.verdict)},
      "</span></summary>\n");
  out += "<table class=chain><tr><th>stage</th><th>tick</th>"
         "<th>reconstruction</th></tr>\n";
  for (const CausalLink& link : pm.chain) {
    put(out, "<tr><td class=stage-", to_string(link.stage), '>',
        Html{to_string(link.stage)}, "</td><td>", link.at, "</td><td>",
        Html{link.description}, "</td></tr>\n");
  }
  out += "</table>\n";
  const EnvResourceState& s = pm.env_state;
  put(out, "<p class=env>env at failure: procs ", s.procs_used, '/',
      s.procs_capacity, ", fds ", s.fds_used, '/', s.fds_capacity, ", disk ",
      s.disk_used, '/', s.disk_capacity, " bytes, entropy ", s.entropy_bits,
      " bits, dns-health ", s.dns_health, ", link ", s.link_state,
      s.network_card_present ? "" : ", network card REMOVED", "</p>\n");
  put(out, "<details class=ring><summary>flight recorder (", pm.events.size(),
      " events");
  if (pm.events_dropped > 0) {
    put(out, ", ", pm.events_dropped, " overwritten");
  }
  out += ")</summary><table><tr><th>tick</th><th>event</th><th>a</th>"
         "<th>b</th></tr>\n";
  const std::size_t shown = std::min(pm.events.size(), kEventsPerTimeline);
  for (std::size_t i = 0; i < shown; ++i) {
    const FlightEvent& e = pm.events[i];
    put(out, "<tr><td>", e.at, "</td><td>", Html{to_string(e.code)},
        "</td><td>", e.a, "</td><td>", e.b, "</td></tr>\n");
  }
  if (shown < pm.events.size()) {
    put(out, "<tr><td colspan=4>… ", pm.events.size() - shown,
        " more in the JSON artifact</td></tr>\n");
  }
  out += "</table></details>\n";
  if (pm.analyzed) {
    put(out, "<p class=env>detectors: ", pm.race_reports, " race report(s), ",
        pm.invariant_violations, " invariant violation(s)</p>\n");
  }
  out += "</details>\n";
}

}  // namespace

std::string render_explorer_html(
    const StudyForensics& study, const std::vector<TriageCluster>& clusters,
    const std::vector<MechanismSuccessRow>& mechanisms,
    std::string_view title) {
  std::string out;
  out += "<!DOCTYPE html>\n<html lang=en>\n<head>\n<meta charset=utf-8>\n";
  put(out, "<title>", Html{title}, "</title>\n<style>\n");
  out +=
      "body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;"
      "max-width:72rem;padding:0 1rem;color:#1a1a1a}\n"
      "h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2rem}\n"
      "code{background:#f2f2f2;padding:0 .25em;border-radius:3px}\n"
      ".tiles{display:flex;gap:1rem;flex-wrap:wrap}\n"
      ".tile{border:1px solid #ddd;border-radius:6px;padding:.75rem 1.25rem;"
      "min-width:7rem;text-align:center}\n"
      ".tile-value{font-size:1.5rem;font-weight:600}\n"
      ".tile-label{color:#666;font-size:.8rem}\n"
      "table{border-collapse:collapse;width:100%;margin:.5rem 0}\n"
      "th,td{border:1px solid #e2e2e2;padding:.3rem .5rem;text-align:left;"
      "vertical-align:top}\n"
      "th{background:#fafafa}\n"
      "details.pm{border:1px solid #e2e2e2;border-radius:6px;margin:.5rem 0;"
      "padding:.25rem .75rem}\n"
      "details.ring{margin:.25rem 0}\n"
      ".verdict{color:#b00020;font-weight:600}\n"
      ".env{color:#555;font-size:.85rem}\n"
      ".td-num{text-align:right}\n"
      "#filter{padding:.35rem .5rem;width:20rem;margin:.25rem 0}\n";
  out += "</style>\n</head>\n<body>\n";
  put(out, "<h1>", Html{title}, "</h1>\n");
  out += "<p>Post-mortem study explorer: every failed trial's causal chain "
         "from injected fault to recovery outcome, clustered by failure "
         "signature. Generated deterministically from the simulation — "
         "identical for every thread count.</p>\n";

  out += "<div class=tiles>\n";
  append_tile(out, "trials", study.trials);
  append_tile(out, "survived", study.survived);
  append_tile(out, "post-mortems", study.failures());
  append_tile(out, "triage clusters", clusters.size());
  out += "</div>\n";

  // One pass over the post-mortems: each signature's first timelines in
  // study order, and the post-mortem count per mechanism.
  std::unordered_map<std::string, std::vector<const PostMortemRecord*>>
      timelines;
  std::unordered_map<std::string_view, std::size_t> per_mechanism;
  for (const PostMortemRecord& pm : study.postmortems) {
    auto& shown = timelines[failure_signature(pm)];
    if (shown.size() < kTimelinesPerCluster) shown.push_back(&pm);
    ++per_mechanism[pm.mechanism];
  }

  if (!mechanisms.empty()) {
    out += "<h2>Recovery success drill-down</h2>\n";
    out += "<table><tr><th>mechanism</th><th>generic</th>"
           "<th>cells survived</th><th>state losses</th>"
           "<th>post-mortems</th></tr>\n";
    for (const MechanismSuccessRow& row : mechanisms) {
      const auto pms = per_mechanism.find(row.mechanism);
      put(out, "<tr><td>", Html{row.mechanism}, "</td><td>",
          row.generic ? "yes" : "no", "</td><td class=td-num>", row.survived,
          '/', row.total, "</td><td class=td-num>", row.state_losses,
          "</td><td class=td-num>",
          pms == per_mechanism.end() ? 0 : pms->second, "</td></tr>\n");
    }
    out += "</table>\n";
  }

  out += "<h2>Failure triage</h2>\n";
  out += "<input id=filter type=search placeholder=\"filter signatures…\" "
         "oninput=\"filterRows(this.value)\">\n";
  out += "<table id=triage><tr><th>signature</th><th>count</th>"
         "<th>failures</th><th>recoveries</th><th>specimens</th></tr>\n";
  for (const TriageCluster& c : clusters) {
    put(out, "<tr><td><code>", Html{c.signature},
        "</code></td><td class=td-num>", c.count, "</td><td class=td-num>",
        c.total_failures, "</td><td class=td-num>", c.total_recoveries,
        "</td><td>");
    for (std::size_t i = 0; i < c.fault_ids.size(); ++i) {
      if (i > 0) out += " ";
      put(out, "<code>", Html{c.fault_ids[i]}, "</code>");
    }
    out += "</td></tr>\n";
  }
  out += "</table>\n";

  out += "<h2>Causal timelines by cluster</h2>\n";
  for (const TriageCluster& c : clusters) {
    put(out, "<h3><code>", Html{c.signature}, "</code> — ", c.count,
        " post-mortem(s)</h3>\n");
    const auto bucket = timelines.find(c.signature);
    const std::size_t shown =
        bucket == timelines.end() ? 0 : bucket->second.size();
    for (std::size_t i = 0; i < shown; ++i) {
      append_timeline(out, *bucket->second[i]);
    }
    if (c.count > shown) {
      put(out, "<p class=env>… ", c.count - shown,
          " more post-mortem(s) in this cluster; see the JSON "
          "artifact for all of them.</p>\n");
    }
  }

  out += "<script>\n"
         "function filterRows(q){q=q.toLowerCase();"
         "for(const tr of document.querySelectorAll('#triage tr')){"
         "if(!tr.querySelector('td'))continue;"
         "tr.style.display=tr.textContent.toLowerCase().includes(q)?'':"
         "'none';}}\n"
         "</script>\n";
  out += "</body>\n</html>\n";
  return out;
}

}  // namespace faultstudy::forensics
