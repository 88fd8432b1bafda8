#include "report/oracle.hpp"

#include "report/table.hpp"

namespace faultstudy::report {

std::string render_oracle_confusion(const harness::OracleReport& report) {
  AsciiTable table({"specimen label", "detector fired", "detector silent"});
  table.add_row({"race (EDT)", std::to_string(report.race_fired),
                 std::to_string(report.race_silent)});
  table.add_row({"other transient (EDT)",
                 std::to_string(report.other_edt_fired),
                 std::to_string(report.other_edt_silent)});
  table.add_row({"non-transient (EDN)", std::to_string(report.edn_fired),
                 std::to_string(report.edn_silent)});
  table.add_row({"env-independent (EI)", std::to_string(report.ei_fired),
                 std::to_string(report.ei_silent)});
  return table.to_string();
}

}  // namespace faultstudy::report
