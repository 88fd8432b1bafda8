// Fault specimens: executable injections built from study faults.
//
// A specimen binds together everything needed to re-create a fault in the
// simulator: which application to run, the ActiveFault to arm into it, the
// environment configuration that makes the trigger reachable (a small
// descriptor table, a nearly-full disk), the arming action that establishes
// the environmental precondition, and the workload that drives the app.
#pragma once

#include <functional>
#include <memory>
#include <string_view>

#include "apps/app.hpp"
#include "apps/database.hpp"
#include "apps/desktop.hpp"
#include "apps/webserver.hpp"
#include "apps/workload.hpp"
#include "corpus/seeds.hpp"
#include "env/environment.hpp"

namespace faultstudy::inject {

struct InjectionPlan {
  corpus::SeedFault seed;
  apps::ActiveFault fault;
  env::EnvironmentConfig env_config;
  apps::WorkloadSpec workload;
  /// Establishes the environmental precondition. Runs after the app has
  /// started (some conditions, like a hostname change, must happen under a
  /// running app).
  std::function<void(env::Environment&, apps::SimApp&)> arm_environment;
};

/// Builds the injection plan for a seed fault. `trial_seed` parameterizes
/// the environment's scheduling/workload randomness, not the fault itself.
InjectionPlan plan_for(const corpus::SeedFault& seed, std::uint64_t trial_seed);

/// Instantiates the right simulated application for a study target.
std::unique_ptr<apps::SimApp> make_app(core::AppId app);

/// Port hung children squat on; exposed so arming code and the application
/// fault logic agree (apps/app.cpp uses the same constant internally).
inline constexpr int kAuxPort = 8080;

/// Owner label for an app's runaway children ("<app name>-child"); recovery
/// must sweep this owner as part of "kill all processes associated with the
/// application". A constant per app, so a sweep builds no string.
std::string_view child_owner(const apps::SimApp& app);

}  // namespace faultstudy::inject
