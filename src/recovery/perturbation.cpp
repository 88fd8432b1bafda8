#include "recovery/mechanism.hpp"
#include "recovery/perturbation.hpp"

#include "inject/specimen.hpp"

namespace faultstudy::recovery {

void sweep_application(apps::SimApp& app, env::Environment& e) {
  const std::string_view owner = app.name();
  const std::string_view children = inject::child_owner(app);
  e.processes().kill_owned_by(owner);
  e.processes().kill_owned_by(children);
  e.network().release_ports_of(owner);
  e.network().release_ports_of(children);
  e.emit(obs::Event::kSweep);
}

}  // namespace faultstudy::recovery
