#include "forensics/export.hpp"

#include "util/json.hpp"

namespace faultstudy::forensics {
namespace {

void append_kv(std::string& out, std::string_view key, std::string_view value,
               bool comma = true) {
  out += util::json::quoted(key);
  out.push_back(':');
  out += util::json::quoted(value);
  if (comma) out.push_back(',');
}

void append_kv_num(std::string& out, std::string_view key, std::uint64_t value,
                   bool comma = true) {
  out += util::json::quoted(key);
  out += ":" + std::to_string(value);
  if (comma) out.push_back(',');
}

void append_env_state(std::string& out, const EnvResourceState& s) {
  out += "{";
  append_kv_num(out, "procs_used", s.procs_used);
  append_kv_num(out, "procs_capacity", s.procs_capacity);
  append_kv_num(out, "fds_used", s.fds_used);
  append_kv_num(out, "fds_capacity", s.fds_capacity);
  append_kv_num(out, "disk_used", s.disk_used);
  append_kv_num(out, "disk_capacity", s.disk_capacity);
  append_kv_num(out, "entropy_bits", s.entropy_bits);
  append_kv_num(out, "kernel_resource", s.kernel_resource);
  append_kv_num(out, "dns_health", s.dns_health);
  append_kv_num(out, "link_state", s.link_state);
  append_kv_num(out, "network_card_present", s.network_card_present ? 1 : 0,
                /*comma=*/false);
  out += "}";
}

void append_postmortem(std::string& out, const PostMortemRecord& pm) {
  out += "{";
  append_kv(out, "fault_id", pm.fault_id);
  append_kv(out, "app", core::to_string(pm.app));
  append_kv(out, "class", core::to_code(pm.fault_class));
  append_kv(out, "trigger", core::to_string(pm.trigger));
  append_kv(out, "mechanism", pm.mechanism);
  append_kv(out, "verdict", to_string(pm.verdict));
  append_kv_num(out, "repeat", static_cast<std::uint64_t>(pm.repeat));
  append_kv_num(out, "ended_at", static_cast<std::uint64_t>(pm.ended_at));
  append_kv_num(out, "failures", pm.failures);
  append_kv_num(out, "recoveries", pm.recoveries);
  append_kv(out, "first_failure", pm.first_failure);
  append_kv(out, "propagation",
            pm.propagation == FlightCode::kCount ? "direct"
                                                 : to_string(pm.propagation));
  out += "\"chain\":[";
  for (std::size_t i = 0; i < pm.chain.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{";
    append_kv(out, "stage", to_string(pm.chain[i].stage));
    append_kv_num(out, "at", static_cast<std::uint64_t>(pm.chain[i].at));
    append_kv(out, "description", pm.chain[i].description, /*comma=*/false);
    out += "}";
  }
  out += "],\"env_state\":";
  append_env_state(out, pm.env_state);
  // Lane ids are deliberately absent: they are the one field that varies
  // with the thread count (see forensics/recorder.hpp).
  out += ",\"events\":[";
  for (std::size_t i = 0; i < pm.events.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{";
    append_kv(out, "code", to_string(pm.events[i].code));
    append_kv_num(out, "at", static_cast<std::uint64_t>(pm.events[i].at));
    append_kv_num(out, "a", pm.events[i].a);
    append_kv_num(out, "b", pm.events[i].b, /*comma=*/false);
    out += "}";
  }
  out += "],";
  append_kv_num(out, "events_dropped", pm.events_dropped);
  append_kv_num(out, "race_reports", pm.race_reports);
  append_kv_num(out, "invariant_violations", pm.invariant_violations);
  append_kv_num(out, "analyzed", pm.analyzed ? 1 : 0, /*comma=*/false);
  out += "}";
}

}  // namespace

std::string to_json(const StudyForensics& study,
                    const std::vector<TriageCluster>& clusters) {
  std::string out = "{";
  append_kv(out, "schema", "faultstudy-forensics/1");
  append_kv_num(out, "trials", study.trials);
  append_kv_num(out, "survived", study.survived);
  append_kv_num(out, "failures", study.failures());
  out += "\"postmortems\":[";
  for (std::size_t i = 0; i < study.postmortems.size(); ++i) {
    if (i > 0) out.push_back(',');
    append_postmortem(out, study.postmortems[i]);
  }
  out += "],\"triage\":[";
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const TriageCluster& c = clusters[i];
    if (i > 0) out.push_back(',');
    out += "{";
    append_kv(out, "signature", c.signature);
    append_kv(out, "class", core::to_code(c.fault_class));
    append_kv(out, "trigger", core::to_string(c.trigger));
    append_kv(out, "propagation",
              c.propagation == FlightCode::kCount ? "direct"
                                                  : to_string(c.propagation));
    append_kv(out, "mechanism", c.mechanism);
    append_kv(out, "verdict", to_string(c.verdict));
    append_kv_num(out, "count", c.count);
    append_kv_num(out, "total_failures", c.total_failures);
    append_kv_num(out, "total_recoveries", c.total_recoveries);
    out += "\"fault_ids\":[";
    for (std::size_t f = 0; f < c.fault_ids.size(); ++f) {
      if (f > 0) out.push_back(',');
      out += util::json::quoted(c.fault_ids[f]);
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

namespace {

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

std::string esc(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_html_escaped(out, text);
  return out;
}

void append_tile(std::string& out, std::string_view label,
                 std::uint64_t value) {
  out += "<div class=tile><div class=tile-value>" + std::to_string(value) +
         "</div><div class=tile-label>" + esc(label) + "</div></div>\n";
}

/// Full causal timelines rendered per cluster; the rest are listed by id
/// only (the JSON artifact always carries every record in full).
constexpr std::size_t kTimelinesPerCluster = 3;
/// Ring events rendered per timeline.
constexpr std::size_t kEventsPerTimeline = 48;

void append_timeline(std::string& out, const PostMortemRecord& pm) {
  out += "<details class=pm><summary><code>" + esc(pm.fault_id) +
         "</code> · " + esc(pm.mechanism) + " · repeat " +
         std::to_string(pm.repeat) + " · <span class=verdict>" +
         esc(to_string(pm.verdict)) + "</span></summary>\n";
  out += "<table class=chain><tr><th>stage</th><th>tick</th>"
         "<th>reconstruction</th></tr>\n";
  for (const CausalLink& link : pm.chain) {
    out += "<tr><td class=stage-" + std::string(to_string(link.stage)) +
           ">" + esc(to_string(link.stage)) + "</td><td>" +
           std::to_string(link.at) + "</td><td>" + esc(link.description) +
           "</td></tr>\n";
  }
  out += "</table>\n";
  const EnvResourceState& s = pm.env_state;
  out += "<p class=env>env at failure: procs " +
         std::to_string(s.procs_used) + "/" +
         std::to_string(s.procs_capacity) + ", fds " +
         std::to_string(s.fds_used) + "/" + std::to_string(s.fds_capacity) +
         ", disk " + std::to_string(s.disk_used) + "/" +
         std::to_string(s.disk_capacity) + " bytes, entropy " +
         std::to_string(s.entropy_bits) + " bits, dns-health " +
         std::to_string(s.dns_health) + ", link " +
         std::to_string(s.link_state) +
         (s.network_card_present ? "" : ", network card REMOVED") + "</p>\n";
  out += "<details class=ring><summary>flight recorder (" +
         std::to_string(pm.events.size()) + " events";
  if (pm.events_dropped > 0) {
    out += ", " + std::to_string(pm.events_dropped) + " overwritten";
  }
  out += ")</summary><table><tr><th>tick</th><th>event</th><th>a</th>"
         "<th>b</th></tr>\n";
  const std::size_t shown = std::min(pm.events.size(), kEventsPerTimeline);
  for (std::size_t i = 0; i < shown; ++i) {
    const FlightEvent& e = pm.events[i];
    out += "<tr><td>" + std::to_string(e.at) + "</td><td>" +
           esc(to_string(e.code)) + "</td><td>" + std::to_string(e.a) +
           "</td><td>" + std::to_string(e.b) + "</td></tr>\n";
  }
  if (shown < pm.events.size()) {
    out += "<tr><td colspan=4>… " +
           std::to_string(pm.events.size() - shown) +
           " more in the JSON artifact</td></tr>\n";
  }
  out += "</table></details>\n";
  if (pm.analyzed) {
    out += "<p class=env>detectors: " + std::to_string(pm.race_reports) +
           " race report(s), " + std::to_string(pm.invariant_violations) +
           " invariant violation(s)</p>\n";
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
  out += "<title>" + esc(title) + "</title>\n<style>\n";
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
  out += "<h1>" + esc(title) + "</h1>\n";
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

  if (!mechanisms.empty()) {
    out += "<h2>Recovery success drill-down</h2>\n";
    out += "<table><tr><th>mechanism</th><th>generic</th>"
           "<th>cells survived</th><th>state losses</th>"
           "<th>post-mortems</th></tr>\n";
    for (const MechanismSuccessRow& row : mechanisms) {
      std::size_t pms = 0;
      for (const PostMortemRecord& pm : study.postmortems) {
        if (pm.mechanism == row.mechanism) ++pms;
      }
      out += "<tr><td>" + esc(row.mechanism) + "</td><td>" +
             (row.generic ? "yes" : "no") + "</td><td class=td-num>" +
             std::to_string(row.survived) + "/" + std::to_string(row.total) +
             "</td><td class=td-num>" + std::to_string(row.state_losses) +
             "</td><td class=td-num>" + std::to_string(pms) +
             "</td></tr>\n";
    }
    out += "</table>\n";
  }

  out += "<h2>Failure triage</h2>\n";
  out += "<input id=filter type=search placeholder=\"filter signatures…\" "
         "oninput=\"filterRows(this.value)\">\n";
  out += "<table id=triage><tr><th>signature</th><th>count</th>"
         "<th>failures</th><th>recoveries</th><th>specimens</th></tr>\n";
  for (const TriageCluster& c : clusters) {
    out += "<tr><td><code>" + esc(c.signature) + "</code></td>"
           "<td class=td-num>" + std::to_string(c.count) +
           "</td><td class=td-num>" + std::to_string(c.total_failures) +
           "</td><td class=td-num>" + std::to_string(c.total_recoveries) +
           "</td><td>";
    for (std::size_t i = 0; i < c.fault_ids.size(); ++i) {
      if (i > 0) out += " ";
      out += "<code>" + esc(c.fault_ids[i]) + "</code>";
    }
    out += "</td></tr>\n";
  }
  out += "</table>\n";

  out += "<h2>Causal timelines by cluster</h2>\n";
  for (const TriageCluster& c : clusters) {
    out += "<h3><code>" + esc(c.signature) + "</code> — " +
           std::to_string(c.count) + " post-mortem(s)</h3>\n";
    std::size_t shown = 0;
    for (const PostMortemRecord& pm : study.postmortems) {
      if (failure_signature(pm) != c.signature) continue;
      if (shown >= kTimelinesPerCluster) break;
      append_timeline(out, pm);
      ++shown;
    }
    if (c.count > shown) {
      out += "<p class=env>… " + std::to_string(c.count - shown) +
             " more post-mortem(s) in this cluster; see the JSON "
             "artifact for all of them.</p>\n";
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
