#include "inject/specimen.hpp"

namespace faultstudy::inject {

std::unique_ptr<apps::SimApp> make_app(core::AppId app) {
  switch (app) {
    case core::AppId::kApache:
      return std::make_unique<apps::WebServer>();
    case core::AppId::kMysql:
      return std::make_unique<apps::Database>();
    case core::AppId::kGnome:
      return std::make_unique<apps::Desktop>();
  }
  return nullptr;
}

std::string_view child_owner(const apps::SimApp& app) {
  switch (app.id()) {
    case core::AppId::kApache:
      return "apache-child";
    case core::AppId::kMysql:
      return "mysqld-child";
    case core::AppId::kGnome:
      return "gnome-session-child";
  }
  return {};
}

}  // namespace faultstudy::inject
