// A minimal JSON reader for the library's own machine-readable artifacts
// (baselines/study_baseline.json and other study snapshots, the forensics
// and atlas exports, telemetry snapshots).
//
// This is a reader for documents the library itself writes: strict JSON,
// no comments, UTF-8 passed through verbatim. Numbers keep both an integer
// and a double view: every deterministic artifact is integer-valued, but
// strict JSON also allows fractions and exponents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.hpp"

namespace faultstudy::util::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Integer view of a number token without a fraction/exponent part;
  /// valid iff `is_integer`.
  std::int64_t integer = 0;
  bool is_integer = false;
  std::string str;
  std::vector<Value> array;
  /// Insertion-ordered members (canonical writers emit a fixed order).
  std::vector<std::pair<std::string, Value>> object;

  bool is_object() const noexcept { return kind == Kind::kObject; }
  bool is_array() const noexcept { return kind == Kind::kArray; }
  bool is_string() const noexcept { return kind == Kind::kString; }
  bool is_number() const noexcept { return kind == Kind::kNumber; }

  /// Member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const noexcept;

  /// Convenience accessors with defaults for optional members.
  std::int64_t int_or(std::string_view key, std::int64_t fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;
};

/// Parses one JSON document; trailing non-whitespace is an error.
Result<Value> parse(std::string_view text);

/// Escapes a string for embedding in a JSON document (quotes not included).
std::string escape(std::string_view text);

/// Appends `text` as a complete JSON string, escaped as `escape` does and
/// between double quotes. Text with nothing to escape is copied in bulk.
void append_quoted(std::string& out, std::string_view text);

/// The number of bytes append_quoted writes for `text`.
std::size_t quoted_size(std::string_view text) noexcept;

/// Append the decimal digits of `value`, as std::to_string spells them.
void append_uint(std::string& out, std::uint64_t value);
void append_int(std::string& out, std::int64_t value);

}  // namespace faultstudy::util::json
