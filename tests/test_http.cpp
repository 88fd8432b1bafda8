// Tests for the HTTP request parser and its two study bugs, including the
// end-to-end path through the WebServer application.
#include <gtest/gtest.h>

#include "apps/http/request.hpp"
#include "apps/webserver.hpp"
#include "corpus/seeds.hpp"
#include "harness/experiment.hpp"
#include "recovery/process_pairs.hpp"
#include "util/rng.hpp"

namespace faultstudy::apps::http {
namespace {

// ----------------------------------------------------------------- parser

TEST(HttpParser, BasicRequestLine) {
  const auto out = parse_request("GET /index.html", {});
  EXPECT_EQ(out.status, ParseStatus::kOk);
  EXPECT_EQ(out.request.method, "GET");
  EXPECT_EQ(out.request.uri, "/index.html");
  EXPECT_EQ(out.request.path, "/index.html");
  EXPECT_TRUE(out.request.query.empty());
}

TEST(HttpParser, QuerySplit) {
  const auto out = parse_request("GET /cgi-bin/search?q=hello HTTP/1.0", {});
  EXPECT_EQ(out.status, ParseStatus::kOk);
  EXPECT_EQ(out.request.path, "/cgi-bin/search");
  EXPECT_EQ(out.request.query, "q=hello");
}

TEST(HttpParser, MalformedRequests) {
  EXPECT_EQ(parse_request("GARBAGE", {}).status, ParseStatus::kBadRequest);
  EXPECT_EQ(parse_request("GET relative/path", {}).status,
            ParseStatus::kBadRequest);
  EXPECT_EQ(parse_request("GET ", {}).status, ParseStatus::kBadRequest);
}

TEST(HttpParser, HashStableAndFixedPathUnbounded) {
  std::uint32_t h1 = 0, h2 = 0;
  EXPECT_TRUE(hash_uri("/abc", false, &h1));
  EXPECT_TRUE(hash_uri("/abc", false, &h2));
  EXPECT_EQ(h1, h2);
  // The fixed path handles arbitrarily long URIs.
  EXPECT_TRUE(hash_uri(std::string(10000, 'x'), false, &h1));
}

TEST(HttpBugs, LongUrlOverflowCrashesOnlyWhenArmed) {
  HttpFaultFlags buggy;
  buggy.long_url_hash_overflow = true;

  const std::string long_url = "GET /" + std::string(2000, 'a');
  EXPECT_EQ(parse_request(long_url, {}).status, ParseStatus::kOk);
  EXPECT_EQ(parse_request(long_url, buggy).status, ParseStatus::kCrash);

  // Short URLs are fine even with the bug present (boundary condition).
  EXPECT_EQ(parse_request("GET /short", buggy).status, ParseStatus::kOk);
}

TEST(HttpBugs, BoundaryIsExactlyTheBufferSize) {
  HttpFaultFlags buggy;
  buggy.long_url_hash_overflow = true;
  const std::string at_limit = "GET /" + std::string(kUriBufferSize - 1, 'b');
  const std::string over = "GET /" + std::string(kUriBufferSize, 'b');
  EXPECT_EQ(parse_request(at_limit, buggy).status, ParseStatus::kOk);
  EXPECT_EQ(parse_request(over, buggy).status, ParseStatus::kCrash);
}

TEST(HttpBugs, EmptyDirListingCrashesOnlyWhenArmed) {
  HttpFaultFlags buggy;
  buggy.empty_dir_palloc_bug = true;
  EXPECT_TRUE(index_directory({}, buggy).crashed);
  EXPECT_FALSE(index_directory({}, {}).crashed);
  const auto ok = index_directory({"a.html", "b.html"}, buggy);
  EXPECT_FALSE(ok.crashed);
  EXPECT_NE(ok.body.find("a.html"), std::string::npos);
}

// --------------------------------------------- through the application

apps::WorkItem http_item(std::string_view op, bool poison = false) {
  apps::WorkItem w;
  w.op = op;
  w.poison = poison;
  return w;
}

TEST(WebServerHttp, RealLongUrlBugCrashesServer) {
  env::Environment e;
  apps::WebServer server;
  apps::ActiveFault fault;
  fault.trigger = core::Trigger::kBoundaryInput;
  fault.symptom = core::Symptom::kCrash;
  fault.fault_id = "apache-ei-01";
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));

  // Ordinary requests are served by the (buggy) parser without incident.
  EXPECT_FALSE(apps::is_failure(server.handle(http_item("GET /index.html"), e)));

  const auto r = server.handle(
      http_item("GET /search?q=" + std::string(2048, 'a'), true), e);
  EXPECT_EQ(r.status, apps::StepStatus::kCrash);
  EXPECT_NE(r.detail.find("hash calculation"), std::string::npos);
  EXPECT_FALSE(server.running());
}

TEST(WebServerHttp, RealEmptyDirBugCrashesServer) {
  env::Environment e;
  apps::WebServer server;
  apps::ActiveFault fault;
  fault.trigger = core::Trigger::kBoundaryInput;
  fault.symptom = core::Symptom::kCrash;
  fault.fault_id = "apache-ei-04";
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));

  // A directory WITH entries lists fine.
  e.disk().append("/htdocs/docs/full/readme.html", 64);
  EXPECT_FALSE(apps::is_failure(server.handle(http_item("GET /docs/full/"), e)));
  const auto r = server.handle(http_item("GET /docs/empty/", true), e);
  EXPECT_EQ(r.status, apps::StepStatus::kCrash);
  EXPECT_NE(r.detail.find("palloc(0)"), std::string::npos);
}

TEST(WebServerHttp, RealizedFaultStillDefeatsGenericRecovery) {
  // End-to-end: the REAL long-URL bug through the harness behaves exactly
  // like the taxonomy predicts — process pairs cannot survive it.
  const auto seeds = corpus::all_seeds();
  for (const auto& seed : seeds) {
    if (seed.fault_id != "apache-ei-01") continue;
    harness::TrialConfig tc;
    tc.seed = 5 + util::fnv1a(seed.fault_id);
    const auto plan = inject::plan_for(seed, tc.seed);
    EXPECT_FALSE(plan.workload.poison_op.empty());
    recovery::ProcessPairs pp;
    const auto outcome = harness::run_trial(plan, pp, tc);
    EXPECT_TRUE(outcome.failure_observed);
    EXPECT_FALSE(outcome.survived);
    EXPECT_NE(outcome.first_failure.find("hash calculation"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace faultstudy::apps::http
