#include "report/export.hpp"

#include "util/strings.hpp"

namespace faultstudy::report {

std::string csv_escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string faults_to_csv(std::span<const core::Fault> faults) {
  std::string out = "id,app,class,trigger,bucket,title\n";
  for (const auto& f : faults) {
    out += csv_escape(f.id);
    out += ',';
    out += core::to_string(f.app);
    out += ',';
    out += core::to_code(f.fault_class);
    out += ',';
    out += core::to_string(f.trigger);
    out += ',';
    out += std::to_string(f.bucket);
    out += ',';
    out += csv_escape(f.title);
    out += '\n';
  }
  return out;
}

std::string counts_to_markdown(const core::ClassCounts& counts,
                               std::string_view caption) {
  std::string out;
  if (!caption.empty()) {
    out += "**";
    out += caption;
    out += "**\n\n";
  }
  out += "| Class | # Faults | Share |\n|---|---|---|\n";
  for (core::FaultClass c : core::kAllFaultClasses) {
    out += "| ";
    out += core::to_string(c);
    out += " | ";
    out += std::to_string(counts[c]);
    out += " | ";
    out += util::percent(counts.fraction(c));
    out += " |\n";
  }
  return out;
}

}  // namespace faultstudy::report
