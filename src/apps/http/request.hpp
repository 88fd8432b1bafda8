// HTTP request parsing for the simulated web server, with the study's
// Apache bugs implemented as real, individually-armable code faults:
//
//   long_url_hash_overflow (apache-ei-01): "dies with a segfault when the
//       submitted URL is very long. This problem was a result of an
//       overflow in the hash calculation" — the URI hash is computed into
//       a fixed-size bucket array indexed without a bounds check; URIs
//       longer than the internal buffer overrun it.
//   empty_dir_palloc_bug (apache-ei-04): "this error occurs when directory
//       listing is turned on and the directory has zero entries. The
//       palloc() call used in index_directory() doesn't handle size zero
//       properly" — the directory lister allocates entry_count slots and
//       unconditionally touches slot 0.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace faultstudy::apps::http {

struct HttpFaultFlags {
  bool long_url_hash_overflow = false;
  bool empty_dir_palloc_bug = false;
};

/// Views into the parsed request line: valid while the line is.
struct Request {
  std::string_view method;  ///< GET, POST, HEAD
  std::string_view uri;     ///< path + optional query
  std::string_view path;    ///< uri up to '?'
  std::string_view query;   ///< after '?', may be empty
};

enum class ParseStatus : std::uint8_t {
  kOk = 0,
  kBadRequest,  ///< malformed request line (rejected with 400)
  kCrash,       ///< an injected bug fired: the serving child is gone
};

struct ParseOutcome {
  ParseStatus status = ParseStatus::kOk;
  Request request;
  std::string_view detail;  ///< a literal
};

/// Size of the URI working buffer in the (buggy) hash path. Real Apache's
/// was larger; the value only sets where the boundary lies.
inline constexpr std::size_t kUriBufferSize = 256;

/// Parses a request line ("GET /path?query") and runs the request-hash
/// path. Allocates nothing: the request's fields are views into `line`. With long_url_hash_overflow set, a URI longer than the working
/// buffer overruns the bucket array — the crash the study describes.
ParseOutcome parse_request(std::string_view line, const HttpFaultFlags& flags);

/// The request-hash the buggy path overflows on; exposed for tests. Returns
/// false (overflow!) when the bug is armed and the URI exceeds the buffer.
bool hash_uri(std::string_view uri, bool buggy, std::uint32_t* hash_out);

/// index_directory(): formats a directory listing given the entry names.
/// With empty_dir_palloc_bug set and zero entries, the palloc(0) result is
/// dereferenced — crash. Returns the listing body, or nullopt-style crash
/// via the outcome flag.
struct ListingOutcome {
  bool crashed = false;
  std::string body;
};
ListingOutcome index_directory(const std::vector<std::string>& entries,
                               const HttpFaultFlags& flags);

}  // namespace faultstudy::apps::http
