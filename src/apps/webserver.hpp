// An Apache-like prefork web server on the simulated environment.
//
// Startup: binds port 80, opens its configured descriptors (config, logs,
// vhost log files), spawns a prefork worker pool. Per request: writes the
// access log, serves from or fills a disk cache, spawns a transient CGI
// child for heavy requests, performs DNS lookups when the request needs one.
// Two study faults are implemented as real parser-level code bugs, enabled
// when the armed fault carries the matching id:
//   apache-ei-01  overflow in the URI hash calculation on a very long URL
//   apache-ei-04  index_directory() palloc(0) on a zero-entry directory
#pragma once

#include "apps/app.hpp"
#include "apps/http/request.hpp"

namespace faultstudy::apps {

struct WebServerConfig {
  std::size_t base_fds = 24;     ///< config + logs + per-vhost descriptors
  std::size_t worker_pool = 6;   ///< prefork children
  int listen_port = 80;
  std::uint64_t cache_quota = 1ull << 20;  ///< proxy/object cache budget
};

class WebServer final : public BaseApp {
 public:
  explicit WebServer(const WebServerConfig& config = {});

  void arm_fault(const ActiveFault& fault) override;

  bool start(env::Environment& e) override;
  StepResult handle(const WorkItem& item, env::Environment& e) override;
  void stop(env::Environment& e) override;
  void rejuvenate(env::Environment& e) override;

  std::uint64_t requests_served() const noexcept { return served_; }

 private:
  void save(Snapshot& into) const override;
  bool load(const Snapshot& from, env::Environment& e) override;

  WebServerConfig config_;
  http::HttpFaultFlags http_flags_;
  std::uint64_t served_ = 0;     ///< part of app state (checkpointed)
  std::uint64_t cache_fills_ = 0;
};

}  // namespace faultstudy::apps
