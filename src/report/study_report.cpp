#include "report/study_report.hpp"

#include "corpus/seeds.hpp"
#include "corpus/synth.hpp"
#include "obs/export.hpp"
#include "report/export.hpp"
#include "report/figure.hpp"
#include "report/table.hpp"
#include "stats/ci.hpp"
#include "stats/series.hpp"
#include "util/strings.hpp"

namespace faultstudy::report {

StudyResults run_full_study() {
  StudyResults r;
  r.apache = mining::run_tracker_pipeline(corpus::make_apache_tracker());
  r.gnome = mining::run_tracker_pipeline(corpus::make_gnome_tracker());
  r.mysql = mining::run_mailinglist_pipeline(corpus::make_mysql_list());

  r.all_faults = mining::to_faults(r.apache);
  for (auto& f : mining::to_faults(r.gnome)) r.all_faults.push_back(f);
  for (auto& f : mining::to_faults(r.mysql)) r.all_faults.push_back(f);
  r.summary = core::summarize(r.all_faults);

  telemetry::StudyTelemetry study;
  r.matrix =
      harness::run_matrix(corpus::all_seeds(), harness::standard_mechanisms(),
                          {}, 3, &study, &r.forensics, &r.coverage);
  // Atlas gauges ride the telemetry snapshot, so the Prometheus/JSON
  // exporters publish coverage alongside the study counters.
  obs::export_gauges(r.coverage, study.metrics);
  r.telemetry = study.metrics.snapshot();
  r.triage = forensics::triage(r.forensics.postmortems);
  return r;
}

namespace {

void render_app_section(std::string& md, std::string_view heading,
                        const mining::PipelineResult& result) {
  md += "\n## " + std::string(heading) + "\n\n";
  if (result.keyword_funnel.total_messages > 0) {
    md += "Funnel: " + std::to_string(result.keyword_funnel.total_messages) +
          " messages → " + std::to_string(result.keyword_funnel.keyword_hits) +
          " keyword hits → " +
          std::to_string(result.keyword_funnel.report_shaped) +
          " usable reports → " + std::to_string(result.bugs.size()) +
          " unique bugs.\n\n";
  } else {
    md += "Funnel: " + std::to_string(result.filter_funnel.total) +
          " reports → " + std::to_string(result.filter_funnel.runtime) +
          " runtime → " + std::to_string(result.filter_funnel.production) +
          " production → " + std::to_string(result.filter_funnel.severe) +
          " severe/critical → " + std::to_string(result.bugs.size()) +
          " unique bugs.\n\n";
  }
  const auto faults = mining::to_faults(result);
  md += counts_to_markdown(core::tally(faults), "");
}

void render_telemetry(std::string& md,
                      const telemetry::MetricsSnapshot& snap) {
  md += "\n## Matrix telemetry (simulated-clock domain)\n\n";
  md += "Folded from every matrix trial in index order; every value is an "
        "integer in simulated units, so this section is identical for any "
        "thread count.\n\n";
  md += "| metric | value |\n|---|---|\n";
  for (const auto& c : snap.counters) {
    md += "| " + c.name + " | " + std::to_string(c.value) + " |\n";
  }
  for (const auto& g : snap.gauges) {
    md += "| " + g.name + " (peak) | " + std::to_string(g.value) + " |\n";
  }
  if (!snap.histograms.empty()) {
    md += "\n| histogram | samples | total ticks |\n|---|---|---|\n";
    for (const auto& h : snap.histograms) {
      md += "| " + h.name + " | " + std::to_string(h.count) + " | " +
            std::to_string(h.sum) + " |\n";
    }
  }
}

void render_forensics(std::string& md, const forensics::StudyForensics& study,
                      const std::vector<forensics::TriageCluster>& clusters) {
  md += "\n## Failure forensics\n\n";
  md += "Every failed matrix trial carries a flight-recorder post-mortem: "
        "the causal chain from injected fault through environment "
        "propagation to the recovery outcome. " +
        std::to_string(study.failures()) + " of " +
        std::to_string(study.trials) +
        " trials produced post-mortems, clustering into " +
        std::to_string(clusters.size()) + " failure signatures.\n\n";
  if (clusters.empty()) return;
  md += "| signature | post-mortems | failures | recoveries | specimens |\n";
  md += "|---|---|---|---|---|\n";
  constexpr std::size_t kRows = 20;
  const std::size_t shown = std::min(clusters.size(), kRows);
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& c = clusters[i];
    md += "| `" + c.signature + "` | " + std::to_string(c.count) + " | " +
          std::to_string(c.total_failures) + " | " +
          std::to_string(c.total_recoveries) + " | " +
          std::to_string(c.fault_ids.size()) + " |\n";
  }
  if (clusters.size() > shown) {
    md += "\n… " + std::to_string(clusters.size() - shown) +
          " smaller clusters omitted; the postmortem explorer "
          "(faultstudy_cli matrix --forensics=explorer.html) renders all "
          "of them.\n";
  }
}

void render_coverage(std::string& md, const obs::CoverageAtlas& atlas) {
  md += "\n## Coverage atlas\n\n";
  md += "Probe coverage folded from every matrix trial in index order; all "
        "values are integer hit counts, so this section is identical for "
        "any thread count.\n\n";
  md += "| coverage plane | covered | universe |\n|---|---|---|\n";
  md += "| instrumented probes | " + std::to_string(atlas.probes_hit()) +
        " | " + std::to_string(obs::CoverageAtlas::probe_universe()) + " |\n";
  md += "| taxonomy cells (trigger recipes) | " +
        std::to_string(atlas.cells_covered()) + " | " +
        std::to_string(obs::CoverageAtlas::cell_universe()) + " |\n";
  md += "| trials folded | " + std::to_string(atlas.trials()) + " | — |\n";
  const auto blind = atlas.blind_spots();
  if (blind.empty()) {
    md += "\nNo blind spots: every probe fired at least once.\n";
  } else {
    md += "\nBlind spots (probes no trial ever hit):\n\n";
    for (const auto& name : blind) md += "- `" + name + "`\n";
  }
}

void render_figure(std::string& md, std::string_view title,
                   const std::vector<core::Fault>& faults, core::AppId app,
                   const std::vector<std::string>& labels) {
  const auto series = stats::build_series(faults, app, labels);
  md += "\n```\n";
  md += render_stacked_bars(series, title);
  md += "```\n";
}

}  // namespace

std::string render_markdown(const StudyResults& r) {
  std::string md;
  md += "# Fault study report\n\n";
  md += "Reproduction of Chandra & Chen, \"Whither Generic Recovery from "
        "Application Faults?\" (DSN 2000), generated by the faultstudy "
        "library from its synthetic corpora.\n";

  render_app_section(md, "Table 1 — Apache", r.apache);
  render_app_section(md, "Table 2 — GNOME", r.gnome);
  render_app_section(md, "Table 3 — MySQL", r.mysql);

  md += "\n## Discussion aggregates (Section 5.4)\n\n";
  const auto& o = r.summary.overall;
  md += "Total unique faults: " + std::to_string(r.summary.total_faults) +
        ".\n\n";
  md += counts_to_markdown(o, "");
  md += "\nPer-application spans: environment-independent " +
        util::percent(r.summary.min_ei_fraction) + "–" +
        util::percent(r.summary.max_ei_fraction) + " (paper: 72–87%), " +
        "transient " + util::percent(r.summary.min_edt_fraction) + "–" +
        util::percent(r.summary.max_edt_fraction) + " (paper: 5–14%).\n";
  const auto edt_ci = stats::wilson(
      o[core::FaultClass::kEnvDependentTransient], o.total());
  md += "Transient share " + util::percent(edt_ci.point) + " with 95% Wilson "
        "interval [" + util::percent(edt_ci.lower) + ", " +
        util::percent(edt_ci.upper) + "].\n";

  md += "\n## Figures\n";
  render_figure(md, "Figure 1: Apache faults per release", r.all_faults,
                core::AppId::kApache, corpus::apache_releases());
  render_figure(md, "Figure 2: GNOME faults over time", r.all_faults,
                core::AppId::kGnome, corpus::gnome_periods());
  render_figure(md, "Figure 3: MySQL faults per release", r.all_faults,
                core::AppId::kMysql, corpus::mysql_releases());

  md += "\n## Recovery experiment (Section 8 future work)\n\n";
  md += "| mechanism | generic | EI | EDN | EDT | overall |\n";
  md += "|---|---|---|---|---|---|\n";
  for (const auto& report : r.matrix.reports) {
    const auto cell = [&](core::FaultClass c) {
      const auto i = static_cast<std::size_t>(c);
      return std::to_string(report.survived[i]) + "/" +
             std::to_string(report.total[i]);
    };
    md += "| " + report.mechanism + " | " + (report.generic ? "yes" : "no") +
          " | " + cell(core::FaultClass::kEnvironmentIndependent) + " | " +
          cell(core::FaultClass::kEnvDependentNonTransient) + " | " +
          cell(core::FaultClass::kEnvDependentTransient) + " | " +
          util::percent(static_cast<double>(report.survived_all()) /
                        static_cast<double>(report.total_all())) +
          " |\n";
  }
  md += "\nGeneric state-preserving recovery survives exactly the "
        "transient class; surviving the rest requires application-"
        "specific knowledge — the paper's conclusion.\n";
  render_forensics(md, r.forensics, r.triage);
  render_coverage(md, r.coverage);
  render_telemetry(md, r.telemetry);
  return md;
}

}  // namespace faultstudy::report
