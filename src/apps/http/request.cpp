#include "apps/http/request.hpp"

namespace faultstudy::apps::http {

bool hash_uri(std::string_view uri, bool buggy, std::uint32_t* hash_out) {
  // The fixed path hashes the URI directly. The buggy path first copies it
  // into a fixed working buffer and derives bucket indices from the copy
  // length — without checking the length against the buffer, which is the
  // overflow the study describes. We model the memory corruption as a
  // detected overrun rather than real UB.
  std::uint32_t h = 2166136261u;
  if (buggy) {
    if (uri.size() > kUriBufferSize) {
      if (hash_out != nullptr) *hash_out = 0;
      return false;  // wrote past the bucket array -> segfault
    }
  }
  for (const char c : uri) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  if (hash_out != nullptr) *hash_out = h;
  return true;
}

ParseOutcome parse_request(std::string_view line,
                           const HttpFaultFlags& flags) {
  ParseOutcome outcome;

  // Request line: METHOD SP URI [SP HTTP/x.y]
  const auto sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) {
    outcome.status = ParseStatus::kBadRequest;
    outcome.detail = "no URI in request line";
    return outcome;
  }
  outcome.request.method = line.substr(0, sp1);
  const auto rest = line.substr(sp1 + 1);
  outcome.request.uri = rest.substr(0, rest.find(' '));
  if (outcome.request.uri.empty() || outcome.request.uri[0] != '/') {
    outcome.status = ParseStatus::kBadRequest;
    outcome.detail = "URI must be absolute";
    return outcome;
  }
  const auto q = outcome.request.uri.find('?');
  outcome.request.path = outcome.request.uri.substr(0, q);
  if (q != std::string_view::npos) {
    outcome.request.query = outcome.request.uri.substr(q + 1);
  }

  std::uint32_t hash = 0;
  if (!hash_uri(outcome.request.uri, flags.long_url_hash_overflow, &hash)) {
    outcome.status = ParseStatus::kCrash;
    outcome.detail = "segfault: overflow in the hash calculation on a very "
                     "long URL";
    return outcome;
  }
  return outcome;
}

ListingOutcome index_directory(const std::vector<std::string>& entries,
                               const HttpFaultFlags& flags) {
  ListingOutcome outcome;
  if (flags.empty_dir_palloc_bug && entries.empty()) {
    // palloc(0) returned a zero-length block; index_directory() writes the
    // header row into slot 0 anyway.
    outcome.crashed = true;
    return outcome;
  }
  outcome.body = "<ul>\n";
  for (const auto& entry : entries) {
    outcome.body += "  <li>" + entry + "</li>\n";
  }
  outcome.body += "</ul>\n";
  return outcome;
}

}  // namespace faultstudy::apps::http
