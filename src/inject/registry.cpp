// plan_for: the per-trigger arming recipes.
//
// Each recipe answers two questions: what must be true of the environment
// for this fault's condition to be reachable (configuration), and what
// concrete action establishes the condition (arming). The recipes are the
// executable counterpart of the paper's Section 5 bullet list.
#include "inject/specimen.hpp"

namespace faultstudy::inject {

namespace {

using core::Trigger;

std::size_t base_fds_for(core::AppId app) {
  switch (app) {
    case core::AppId::kApache:
      return apps::WebServerConfig{}.base_fds;
    case core::AppId::kMysql:
      return apps::DatabaseConfig{}.base_fds;
    case core::AppId::kGnome:
      return apps::DesktopConfig{}.base_fds;
  }
  return 16;
}

std::size_t worker_pool_for(core::AppId app) {
  switch (app) {
    case core::AppId::kApache:
      return apps::WebServerConfig{}.worker_pool;
    case core::AppId::kMysql:
      return apps::DatabaseConfig{}.worker_pool;
    case core::AppId::kGnome:
      return apps::DesktopConfig{}.worker_pool;
  }
  return 4;
}

/// How long the environment keeps a transient condition broken, in ticks.
/// Long enough that several fast recovery attempts are needed; short enough
/// that a retry budget outlives it.
constexpr env::Tick kHealAfter = 240;

/// apache-ei-01's killer request: a URL far past the hash path's working
/// buffer. Built once and kept for the life of the process, because a
/// workload's ops are views of static storage (apps/workload.hpp).
std::string_view long_url_request() {
  static const std::string request = "GET /search?q=" + std::string(2048, 'a');
  return request;
}

}  // namespace

InjectionPlan plan_for(const corpus::SeedFault& seed,
                       std::uint64_t trial_seed) {
  InjectionPlan plan;
  plan.seed = seed;
  plan.fault.trigger = seed.trigger;
  plan.fault.symptom = seed.symptom;
  plan.fault.fault_id = seed.fault_id;

  plan.env_config.seed = trial_seed;
  plan.workload.seed = trial_seed ^ 0xA0;
  plan.arm_environment = [](env::Environment&, apps::SimApp&) {};

  // Faults with real engine-level implementations get their actual killer
  // input as the poison operation; the application recognizes the fault id
  // and the corresponding code path produces the failure.
  if (seed.fault_id == "apache-ei-01") {
    plan.workload.poison_op = long_url_request();
  } else if (seed.fault_id == "gnome-ei-01") {
    plan.workload.poison_op = "click:pager-settings-tasklist";
  } else if (seed.fault_id == "gnome-ei-02") {
    plan.workload.poison_op = "click:calendar-prev-year";
  } else if (seed.fault_id == "gnome-ei-04") {
    plan.workload.poison_op = "open:archive /home/user/backup.tar.gz";
  } else if (seed.fault_id == "apache-ei-04") {
    plan.workload.poison_op = "GET /docs/empty/";
  } else if (seed.fault_id == "mysql-ei-01") {
    plan.workload.poison_op = "UPDATE orders SET id = 999999 WHERE id < 100";
  } else if (seed.fault_id == "mysql-ei-02") {
    plan.workload.poison_op =
        "SELECT * FROM orders WHERE id > 999999 ORDER BY id";
  } else if (seed.fault_id == "mysql-ei-03") {
    plan.workload.poison_op = "SELECT COUNT(*) FROM audit_log";
  } else if (seed.fault_id == "mysql-ei-04") {
    plan.workload.poison_op = "OPTIMIZE TABLE orders";
  } else if (seed.fault_id == "mysql-ei-05") {
    plan.workload.poison_op = "LOCK TABLES orders WRITE; FLUSH TABLES";
  }

  switch (seed.trigger) {
    // --- environment-independent: the workload alone triggers ---
    case Trigger::kBoundaryInput:
    case Trigger::kMissingInitialization:
    case Trigger::kWrongVariableUsage:
    case Trigger::kApiMisuse:
    case Trigger::kSignalHandlingBug:
    case Trigger::kLogicError:
    case Trigger::kUiEventSequence:
      break;  // poison item is already in the default workload

    case Trigger::kDeterministicLeak:
      plan.fault.leak_limit = 12;
      plan.workload.poison_at = -1;
      break;

    // --- environment-dependent-nontransient ---
    case Trigger::kResourceLeakUnderLoad:
      plan.fault.leak_limit = 8;
      plan.workload.poison_at = -1;
      break;

    case Trigger::kFdExhaustion:
      plan.fault.fds_per_leak = 4;
      plan.env_config.fd_slots = base_fds_for(seed.app) + 40;
      plan.workload.poison_at = -1;
      break;

    case Trigger::kDiskCacheFull:
      plan.workload.poison_at = -1;
      plan.arm_environment = [](env::Environment& e, apps::SimApp&) {
        // A long-running cache has consumed almost the whole budget.
        e.disk().append("/var/cache/apache/longlived",
                        apps::WebServerConfig{}.cache_quota - 1024);
      };
      break;

    case Trigger::kFileSizeLimit:
      plan.env_config.max_file_size = 64 * 1024;
      plan.workload.poison_at = -1;
      plan.arm_environment = [](env::Environment& e, apps::SimApp& app) {
        (void)app;
        // Months of traffic have grown the log to just under the limit.
        e.disk().append("/var/log/apache/access_log", 64 * 1024 - 512);
        e.disk().append("/var/lib/mysql/data/orders.MYD", 64 * 1024 - 512);
      };
      break;

    case Trigger::kFullFileSystem:
      plan.workload.poison_at = -1;
      plan.arm_environment = [](env::Environment& e, apps::SimApp&) {
        // Another tenant of the file system has filled it completely; the
        // application cannot free space it does not own.
        e.disk().consume_external(e.disk().capacity());
      };
      break;

    case Trigger::kNetworkResourceExhausted:
      plan.workload.poison_at = -1;
      plan.arm_environment = [](env::Environment& e, apps::SimApp&) {
        e.network().set_kernel_resource(6);
      };
      break;

    case Trigger::kHardwareRemoval:
      plan.workload.poison_at = -1;
      plan.arm_environment = [](env::Environment& e, apps::SimApp&) {
        e.network().remove_card();
      };
      break;

    case Trigger::kHostnameChanged:
      plan.workload.poison_at = -1;
      plan.arm_environment = [](env::Environment& e, apps::SimApp&) {
        e.set_hostname("renamed-host");  // after the app cached the old one
      };
      break;

    case Trigger::kExternalSocketLeak:
      plan.workload.poison_at = -1;
      plan.arm_environment = [](env::Environment& e, apps::SimApp&) {
        // Sound utilities exited without closing their sockets; every
        // remaining descriptor is gone.
        e.fds().acquire("sound-utilities", e.fds().available());
      };
      break;

    case Trigger::kCorruptFileMetadata:
      plan.arm_environment = [](env::Environment& e, apps::SimApp&) {
        e.disk().append("/home/user/attachment.dat", 64);
        e.disk().set_owner("/home/user/attachment.dat", -1);
      };
      break;

    case Trigger::kReverseDnsMissing:
      plan.workload.poison_at = -1;
      // No arming needed: the client's PTR record is simply absent (no
      // reverse records are configured unless a test adds them).
      break;

    // --- environment-dependent-transient ---
    case Trigger::kDnsError:
      plan.workload.poison_at = -1;
      plan.arm_environment = [](env::Environment& e, apps::SimApp&) {
        e.dns().break_until(env::DnsHealth::kErroring, e.now() + kHealAfter);
      };
      break;

    case Trigger::kDnsSlow:
      plan.workload.poison_at = -1;
      plan.arm_environment = [](env::Environment& e, apps::SimApp&) {
        e.dns().break_until(env::DnsHealth::kSlow, e.now() + kHealAfter);
      };
      break;

    case Trigger::kNetworkSlow:
      plan.workload.poison_at = -1;
      plan.arm_environment = [](env::Environment& e, apps::SimApp&) {
        e.network().degrade_until(env::LinkState::kSlow, e.now() + kHealAfter);
      };
      break;

    case Trigger::kProcessTableFull:
      plan.env_config.process_slots = worker_pool_for(seed.app) + 14;
      plan.workload.poison_at = -1;
      plan.workload.heavy_rate = 0.4;
      break;

    case Trigger::kPortsHeldByChildren:
      plan.workload.poison_at = -1;
      plan.workload.heavy_rate = 0.4;
      plan.arm_environment = [](env::Environment& e, apps::SimApp& app) {
        // Two children hung earlier and still hold the auxiliary port.
        const std::string_view owner = child_owner(app);
        for (int i = 0; i < 2; ++i) {
          if (auto pid = e.processes().spawn(owner); pid.has_value()) {
            e.processes().mark_hung(*pid);
            if (i == 0) e.network().bind_port(kAuxPort, owner);
          }
        }
      };
      break;

    case Trigger::kEntropyShortage:
      plan.env_config.entropy_refill_per_tick = 4;
      plan.workload.poison_at = -1;
      plan.arm_environment = [](env::Environment& e, apps::SimApp&) {
        e.entropy().drain_to(0, e.now());
      };
      break;

    case Trigger::kRaceCondition:
      plan.fault.hazard_start = 0.4;
      plan.fault.hazard_width = 0.12;
      plan.workload.poison_at = -1;
      plan.workload.racy_rate = 0.35;
      break;

    case Trigger::kWorkloadTiming:
      plan.fault.hazard_start = 0.3;
      plan.fault.hazard_width = 0.5;  // the user's stop-press often lands badly
      break;

    case Trigger::kUnknownTransient:
      plan.workload.poison_at = -1;
      break;  // the hidden condition is pending by construction

    case Trigger::kCount:
      break;
  }
  return plan;
}

}  // namespace faultstudy::inject
