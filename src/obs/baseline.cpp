#include "obs/baseline.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/json.hpp"

namespace faultstudy::obs {

namespace {

/// Exact fraction of two integer counts; 0 when the denominator is zero
/// (matches MechanismReport::survival_rate).
double fraction(std::uint64_t num, std::uint64_t den) noexcept {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

constexpr std::string_view kClassCodes[3] = {"ei", "edn", "edt"};

/// Tolerance bands for distribution drift, as absolute deltas of exact
/// fractions of integer counts: within the band a delta is a note, beyond
/// it fatal.
constexpr double kClassFractionBand = 0.02;  ///< per-app fault-class share
constexpr double kSurvivalRateBand = 0.05;   ///< one mechanism, one class

}  // namespace

std::uint64_t StudySnapshot::probes_hit() const noexcept {
  std::uint64_t n = 0;
  for (const ProbeRow& p : probes) n += p.hits > 0 ? 1 : 0;
  return n;
}

std::uint64_t StudySnapshot::cells_covered() const noexcept {
  std::uint64_t n = 0;
  for (const ProbeRow& p : probes) {
    if (p.name.starts_with("inject/") && p.hits > 0) ++n;
  }
  return n;
}

StudySnapshot build_snapshot(const std::vector<corpus::SeedFault>& seeds,
                             const harness::MatrixResult& matrix,
                             const CoverageAtlas& atlas,
                             const telemetry::MetricsSnapshot& metrics,
                             std::uint64_t seed, int repeats) {
  StudySnapshot snap;
  snap.seed = seed;
  snap.repeats = repeats;
  snap.trials = atlas.trials();

  for (const core::AppId app : core::kAllApps) {
    StudySnapshot::ClassRow row;
    row.app = std::string(core::to_string(app));
    for (const corpus::SeedFault& s : seeds) {
      if (s.app != app) continue;
      ++row.counts[static_cast<std::size_t>(corpus::seed_class(s))];
    }
    snap.classes.push_back(std::move(row));
  }

  for (const harness::MechanismReport& report : matrix.reports) {
    StudySnapshot::MatrixRow row;
    row.mechanism = report.mechanism;
    row.generic = report.generic;
    for (std::size_t c = 0; c < 3; ++c) {
      row.survived[c] = report.survived[c];
      row.total[c] = report.total[c];
    }
    row.vacuous = report.vacuous;
    row.state_losses = report.state_losses;
    snap.matrix.push_back(std::move(row));
  }

  const CoverageMap& totals = atlas.totals();
  for (std::size_t i = 0; i < kNumSites; ++i) {
    snap.probes.push_back(
        {std::string(site_name(static_cast<Site>(i))), totals.sites[i]});
  }
  for (std::size_t i = 0; i < core::kNumTriggers; ++i) {
    snap.probes.push_back(
        {inject_site_name(static_cast<core::Trigger>(i)), totals.inject[i]});
  }

  for (const SpecimenCoverage& sc : atlas.specimens()) {
    snap.specimens.push_back(
        {sc.fault_id, static_cast<std::uint64_t>(sc.probes.probes_hit()),
         sc.trials});
  }

  for (const telemetry::MetricsSnapshot::Counter& c : metrics.counters) {
    snap.counters.push_back({c.name, c.value});
  }

  return snap;
}

std::string to_json(const StudySnapshot& snap) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"" << util::json::escape(snap.schema) << "\",\n";
  out << "  \"seed\": " << snap.seed << ",\n";
  out << "  \"repeats\": " << snap.repeats << ",\n";
  out << "  \"trials\": " << snap.trials << ",\n";
  out << "  \"classes\": [\n";
  for (std::size_t i = 0; i < snap.classes.size(); ++i) {
    const auto& row = snap.classes[i];
    out << "    {\"app\": \"" << util::json::escape(row.app) << "\"";
    for (std::size_t c = 0; c < 3; ++c) {
      out << ", \"" << kClassCodes[c] << "\": " << row.counts[c];
    }
    out << "}" << (i + 1 < snap.classes.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"matrix\": [\n";
  for (std::size_t i = 0; i < snap.matrix.size(); ++i) {
    const auto& row = snap.matrix[i];
    out << "    {\"mechanism\": \"" << util::json::escape(row.mechanism)
        << "\", \"generic\": " << (row.generic ? "true" : "false")
        << ", \"survived\": [" << row.survived[0] << ", " << row.survived[1]
        << ", " << row.survived[2] << "], \"total\": [" << row.total[0]
        << ", " << row.total[1] << ", " << row.total[2]
        << "], \"vacuous\": " << row.vacuous
        << ", \"state_losses\": " << row.state_losses << "}"
        << (i + 1 < snap.matrix.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"probes\": [\n";
  for (std::size_t i = 0; i < snap.probes.size(); ++i) {
    out << "    {\"name\": \"" << util::json::escape(snap.probes[i].name)
        << "\", \"hits\": " << snap.probes[i].hits << "}"
        << (i + 1 < snap.probes.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"specimens\": [\n";
  for (std::size_t i = 0; i < snap.specimens.size(); ++i) {
    const auto& row = snap.specimens[i];
    out << "    {\"fault_id\": \"" << util::json::escape(row.fault_id)
        << "\", \"probes_hit\": " << row.probes_hit
        << ", \"trials\": " << row.trials << "}"
        << (i + 1 < snap.specimens.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"counters\": [\n";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out << "    {\"name\": \"" << util::json::escape(snap.counters[i].name)
        << "\", \"value\": " << snap.counters[i].value << "}"
        << (i + 1 < snap.counters.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

util::Result<StudySnapshot> parse_snapshot(std::string_view text) {
  auto parsed = util::json::parse(text);
  if (!parsed.ok()) return util::Err{parsed.error()};
  const util::json::Value& root = parsed.value();
  if (!root.is_object()) return util::Err{std::string("snapshot not an object")};

  StudySnapshot snap;
  snap.schema = root.string_or("schema", "");
  if (snap.schema != kBaselineSchema) {
    return util::Err{"unsupported snapshot schema '" + snap.schema + "'"};
  }
  snap.seed = static_cast<std::uint64_t>(root.int_or("seed", 0));
  snap.repeats = root.int_or("repeats", 0);
  snap.trials = static_cast<std::uint64_t>(root.int_or("trials", 0));

  if (const util::json::Value* classes = root.find("classes");
      classes != nullptr && classes->is_array()) {
    for (const util::json::Value& v : classes->array) {
      StudySnapshot::ClassRow row;
      row.app = v.string_or("app", "");
      for (std::size_t c = 0; c < 3; ++c) {
        row.counts[c] = static_cast<std::uint64_t>(v.int_or(kClassCodes[c], 0));
      }
      snap.classes.push_back(std::move(row));
    }
  }
  if (const util::json::Value* matrix = root.find("matrix");
      matrix != nullptr && matrix->is_array()) {
    for (const util::json::Value& v : matrix->array) {
      StudySnapshot::MatrixRow row;
      row.mechanism = v.string_or("mechanism", "");
      if (const util::json::Value* g = v.find("generic"); g != nullptr) {
        row.generic = g->boolean;
      }
      const util::json::Value* survived = v.find("survived");
      const util::json::Value* total = v.find("total");
      for (std::size_t c = 0; c < 3; ++c) {
        if (survived != nullptr && c < survived->array.size()) {
          row.survived[c] =
              static_cast<std::uint64_t>(survived->array[c].integer);
        }
        if (total != nullptr && c < total->array.size()) {
          row.total[c] = static_cast<std::uint64_t>(total->array[c].integer);
        }
      }
      row.vacuous = static_cast<std::uint64_t>(v.int_or("vacuous", 0));
      row.state_losses =
          static_cast<std::uint64_t>(v.int_or("state_losses", 0));
      snap.matrix.push_back(std::move(row));
    }
  }
  if (const util::json::Value* probes = root.find("probes");
      probes != nullptr && probes->is_array()) {
    for (const util::json::Value& v : probes->array) {
      snap.probes.push_back({v.string_or("name", ""),
                             static_cast<std::uint64_t>(v.int_or("hits", 0))});
    }
  }
  if (const util::json::Value* specimens = root.find("specimens");
      specimens != nullptr && specimens->is_array()) {
    for (const util::json::Value& v : specimens->array) {
      snap.specimens.push_back(
          {v.string_or("fault_id", ""),
           static_cast<std::uint64_t>(v.int_or("probes_hit", 0)),
           static_cast<std::uint64_t>(v.int_or("trials", 0))});
    }
  }
  if (const util::json::Value* counters = root.find("counters");
      counters != nullptr && counters->is_array()) {
    for (const util::json::Value& v : counters->array) {
      snap.counters.push_back(
          {v.string_or("name", ""),
           static_cast<std::uint64_t>(v.int_or("value", 0))});
    }
  }
  return snap;
}

DriftReport diff(const StudySnapshot& baseline,
                 const StudySnapshot& candidate) {
  DriftReport report;
  auto fatal = [&report](std::string what) {
    report.findings.push_back({true, std::move(what)});
  };
  auto note = [&report](std::string what) {
    report.findings.push_back({false, std::move(what)});
  };

  if (baseline.schema != candidate.schema) {
    fatal("schema changed: '" + baseline.schema + "' -> '" + candidate.schema +
          "'");
    return report;
  }
  if (baseline.seed != candidate.seed) {
    note("study seed changed: " + std::to_string(baseline.seed) + " -> " +
         std::to_string(candidate.seed));
  }
  if (baseline.repeats != candidate.repeats) {
    note("matrix repeats changed: " + std::to_string(baseline.repeats) +
         " -> " + std::to_string(candidate.repeats));
  }
  if (baseline.trials != candidate.trials) {
    note("trial count changed: " + std::to_string(baseline.trials) + " -> " +
         std::to_string(candidate.trials));
  }

  // --- coverage: lost coverage and new blind spots are regressions ---
  for (const auto& b : baseline.probes) {
    const auto it = std::find_if(
        candidate.probes.begin(), candidate.probes.end(),
        [&b](const auto& c) { return c.name == b.name; });
    if (it == candidate.probes.end()) {
      if (b.hits > 0) fatal("probe disappeared: " + b.name);
      continue;
    }
    if (b.hits > 0 && it->hits == 0) {
      fatal("coverage lost (new blind spot): " + b.name);
    } else if (b.hits == 0 && it->hits > 0) {
      note("new coverage: " + b.name + " (" + std::to_string(it->hits) +
           " hits)");
    } else if (b.hits != it->hits) {
      note("probe " + b.name + " hits " + std::to_string(b.hits) + " -> " +
           std::to_string(it->hits));
    }
  }
  for (const auto& c : candidate.probes) {
    const bool known = std::any_of(
        baseline.probes.begin(), baseline.probes.end(),
        [&c](const auto& b) { return b.name == c.name; });
    if (!known) note("new probe: " + c.name);
  }
  if (candidate.cells_covered() < baseline.cells_covered()) {
    fatal("taxonomy cells covered fell: " +
          std::to_string(baseline.cells_covered()) + " -> " +
          std::to_string(candidate.cells_covered()));
  }

  // --- classification distribution ---
  for (const auto& b : baseline.classes) {
    const auto it = std::find_if(
        candidate.classes.begin(), candidate.classes.end(),
        [&b](const auto& c) { return c.app == b.app; });
    if (it == candidate.classes.end()) {
      fatal("app disappeared from classification: " + b.app);
      continue;
    }
    const std::uint64_t btotal = b.counts[0] + b.counts[1] + b.counts[2];
    const std::uint64_t ctotal =
        it->counts[0] + it->counts[1] + it->counts[2];
    for (std::size_t c = 0; c < 3; ++c) {
      const double delta = std::abs(fraction(it->counts[c], ctotal) -
                                    fraction(b.counts[c], btotal));
      if (delta > kClassFractionBand) {
        std::ostringstream what;
        what << b.app << " " << kClassCodes[c] << " fraction drifted by "
             << delta << " (tolerance " << kClassFractionBand << ")";
        fatal(what.str());
      } else if (b.counts[c] != it->counts[c]) {
        note(b.app + " " + std::string(kClassCodes[c]) + " count " +
             std::to_string(b.counts[c]) + " -> " +
             std::to_string(it->counts[c]));
      }
    }
  }

  // --- recovery success matrix ---
  for (const auto& b : baseline.matrix) {
    const auto it = std::find_if(
        candidate.matrix.begin(), candidate.matrix.end(),
        [&b](const auto& c) { return c.mechanism == b.mechanism; });
    if (it == candidate.matrix.end()) {
      fatal("mechanism disappeared from matrix: " + b.mechanism);
      continue;
    }
    for (std::size_t c = 0; c < 3; ++c) {
      const double delta = std::abs(fraction(it->survived[c], it->total[c]) -
                                    fraction(b.survived[c], b.total[c]));
      if (delta > kSurvivalRateBand) {
        std::ostringstream what;
        what << b.mechanism << " " << kClassCodes[c]
             << " survival rate drifted by " << delta << " (tolerance "
             << kSurvivalRateBand << ")";
        fatal(what.str());
      } else if (b.survived[c] != it->survived[c] ||
                 b.total[c] != it->total[c]) {
        note(b.mechanism + " " + std::string(kClassCodes[c]) + " cell " +
             std::to_string(b.survived[c]) + "/" + std::to_string(b.total[c]) +
             " -> " + std::to_string(it->survived[c]) + "/" +
             std::to_string(it->total[c]));
      }
    }
    if (b.vacuous != it->vacuous) {
      note(b.mechanism + " vacuous trials " + std::to_string(b.vacuous) +
           " -> " + std::to_string(it->vacuous));
    }
    if (b.state_losses != it->state_losses) {
      note(b.mechanism + " state losses " + std::to_string(b.state_losses) +
           " -> " + std::to_string(it->state_losses));
    }
  }
  for (const auto& c : candidate.matrix) {
    const bool known = std::any_of(
        baseline.matrix.begin(), baseline.matrix.end(),
        [&c](const auto& b) { return b.mechanism == c.mechanism; });
    if (!known) note("new mechanism in matrix: " + c.mechanism);
  }

  // --- specimen coverage vectors ---
  for (const auto& b : baseline.specimens) {
    const auto it = std::find_if(
        candidate.specimens.begin(), candidate.specimens.end(),
        [&b](const auto& c) { return c.fault_id == b.fault_id; });
    if (it == candidate.specimens.end()) {
      fatal("specimen disappeared: " + b.fault_id);
      continue;
    }
    if (it->probes_hit < b.probes_hit) {
      note("specimen " + b.fault_id + " coverage narrowed: " +
           std::to_string(b.probes_hit) + " -> " +
           std::to_string(it->probes_hit) + " probes");
    }
  }
  for (const auto& c : candidate.specimens) {
    const bool known = std::any_of(
        baseline.specimens.begin(), baseline.specimens.end(),
        [&c](const auto& b) { return b.fault_id == c.fault_id; });
    if (!known) note("new specimen: " + c.fault_id);
  }

  // --- telemetry counters (informational only) ---
  for (const auto& b : baseline.counters) {
    const auto it = std::find_if(
        candidate.counters.begin(), candidate.counters.end(),
        [&b](const auto& c) { return c.name == b.name; });
    if (it == candidate.counters.end()) {
      note("counter disappeared: " + b.name);
    } else if (it->value != b.value) {
      note("counter " + b.name + " " + std::to_string(b.value) + " -> " +
           std::to_string(it->value));
    }
  }

  return report;
}

std::string render_text(const DriftReport& report) {
  std::ostringstream out;
  if (report.empty()) {
    out << "no drift: candidate matches baseline\n";
    return out.str();
  }
  for (const Drift& d : report.findings) {
    if (d.fatal) out << "FATAL " << d.what << "\n";
  }
  for (const Drift& d : report.findings) {
    if (!d.fatal) out << "note  " << d.what << "\n";
  }
  out << report.fatal_count() << " fatal, "
      << report.findings.size() - report.fatal_count() << " notes\n";
  return out.str();
}

}  // namespace faultstudy::obs
