// Small string utilities shared across the text-mining pipeline and the
// report renderers. All functions are pure and allocate only when the result
// requires it.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace faultstudy::util {

/// Splits on a single separator character; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char sep);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Case-insensitive substring test (ASCII).
bool icontains(std::string_view haystack, std::string_view needle);

/// Replaces every occurrence of `from` with `to`.
std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to);

/// Left-pads / right-pads with spaces to at least `width` columns.
std::string pad_left(std::string_view s, std::size_t width);
std::string pad_right(std::string_view s, std::size_t width);

/// Formats a double with `digits` places after the point (no locale).
std::string fixed(double v, int digits);

/// Formats a proportion as a percentage string, e.g. 0.1234 -> "12.3%".
std::string percent(double fraction, int digits = 1);

/// Transparent string hash: with std::equal_to<> it lets an unordered
/// container keyed by std::string be searched with a std::string_view (or
/// a literal) without building a std::string.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace faultstudy::util
