#include "apps/webserver.hpp"

namespace faultstudy::apps {

WebServer::WebServer(const WebServerConfig& config)
    : BaseApp(core::AppId::kApache, "apache", config.base_fds,
              config.worker_pool),
      config_(config) {
  log_path_ = "/var/log/apache/access_log";
  cache_prefix_ = "/var/cache/apache";
  cache_quota_ = config.cache_quota;
}

void WebServer::arm_fault(const ActiveFault& fault) {
  BaseApp::arm_fault(fault);
  http_flags_ = {};
  if (fault.fault_id == "apache-ei-01") {
    http_flags_.long_url_hash_overflow = true;
    fault_->realized = true;
  } else if (fault.fault_id == "apache-ei-04") {
    http_flags_.empty_dir_palloc_bug = true;
    fault_->realized = true;
  }
}

bool WebServer::start(env::Environment& e) {
  if (!base_start(e)) return false;
  if (!e.network().bind_port(config_.listen_port, "apache")) {
    base_stop(e);
    return false;
  }
  served_ = 0;
  cache_fills_ = 0;
  return true;
}

StepResult WebServer::handle(const WorkItem& item, env::Environment& e) {
  if (!running_) return {StepStatus::kError, "server not running"};
  if (item.op == kRejectedOp) return {};  // wrapper answered the client

  if (auto failure = check_fault(item, e); failure.has_value()) {
    if (failure->status == StepStatus::kCrash ||
        failure->status == StepStatus::kHang) {
      running_ = false;
    }
    return *failure;
  }

  // Real request parsing (the apache-ei-01 hash overflow lives here).
  const bool is_http = item.op.starts_with("GET ") ||
                       item.op.starts_with("POST ") ||
                       item.op.starts_with("HEAD ");
  if (is_http) {
    const auto parsed = http::parse_request(item.op, http_flags_);
    if (parsed.status == http::ParseStatus::kCrash) {
      running_ = false;
      return {StepStatus::kCrash, parsed.detail};
    }
    if (parsed.status == http::ParseStatus::kOk &&
        !parsed.request.path.empty() && parsed.request.path.back() == '/') {
      // Directory listing (the apache-ei-04 palloc(0) bug lives here).
      std::string dir = "/htdocs";
      dir += parsed.request.path;
      const auto entries = e.disk().list_prefix(dir);
      const auto listing = http::index_directory(entries, http_flags_);
      if (listing.crashed) {
        running_ = false;
        return {StepStatus::kCrash,
                "segfault in index_directory(): palloc(0) on a directory "
                "with zero entries"};
      }
    }
  }

  // Access log (graceful when the write fails and no fault is armed: the
  // fixed server tolerates a full disk, the buggy one dies in check_fault).
  e.disk().append(log_path_, item.write_bytes > 0 ? item.write_bytes : 64);

  // Scoreboard update for racy requests: the fixed server's children take
  // the scoreboard lock, so the traced shape is race-free; a generic race
  // fault replaces this with the buggy shape inside check_fault.
  if (item.racy && !generic_race_armed()) {
    emit_synchronized_trace(e, env::trace_objects::kScoreboard,
                            "child updates scoreboard slot under lock");
  }

  // Heavy requests run a CGI child for the duration of the item.
  if (item.heavy) {
    if (auto pid = e.processes().spawn("apache"); pid.has_value()) {
      e.emit(obs::Event::kWebCgiChild, *pid);
      e.processes().kill(*pid);
    }
  }

  // Cache fill for cacheable content.
  if (item.write_bytes > 0 &&
      e.disk().used_under(cache_prefix_) + item.write_bytes <= cache_quota_) {
    e.disk().append(cache_path("/fill", item.id), item.write_bytes);
    ++cache_fills_;
    e.emit(obs::Event::kWebCacheFill);
  }

  // HostnameLookups-style DNS (result ignored by the fixed server).
  if (!item.lookup_host.empty()) {
    (void)e.dns().resolve(item.lookup_host, e.now());
  }

  e.advance(1);
  ++served_;
  ++state_.items_handled;
  e.emit(obs::Event::kWebRequest);
  return {};
}

void WebServer::stop(env::Environment& e) { base_stop(e); }

void WebServer::save(Snapshot& into) const {
  into.served = served_;
  into.cache_fills = cache_fills_;
}

bool WebServer::load(const Snapshot& from, env::Environment& e) {
  served_ = from.served;
  cache_fills_ = from.cache_fills;
  e.network().release_ports_of("apache");
  if (!e.network().bind_port(config_.listen_port, "apache")) {
    running_ = false;
    return false;
  }
  return true;
}

void WebServer::rejuvenate(env::Environment& e) {
  base_rejuvenate(e);
  // Apache's SIGHUP-style rejuvenation also rotates logs and prunes the
  // object cache — application-specific knowledge a generic mechanism
  // does not have.
  e.disk().truncate(log_path_);
  e.disk().remove_prefix(cache_prefix_);
  if (!e.network().port_bound(config_.listen_port)) {
    e.network().bind_port(config_.listen_port, "apache");
  }
}

}  // namespace faultstudy::apps
