// Tokenization for bug-report text.
//
// Bug reports mix prose with code fragments, version numbers, signal names,
// and URLs; the tokenizer keeps tokens like "sigsegv", "va_list" and "2.0.36"
// intact because they carry most of the classification signal.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace faultstudy::text {

/// Tokens shorter than this many characters are dropped.
inline constexpr std::size_t kMinTokenLength = 2;

namespace detail {
// The grammar is ASCII, as under the "C" locale: only [A-Za-z0-9_] are word
// characters, bytes >= 0x80 separate tokens and only A-Z are lowered.
inline constexpr unsigned char kWord = 1, kUpper = 2;
inline constexpr auto kCharClass = [] {
  std::array<unsigned char, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[c] = kWord;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kWord;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kWord | kUpper;
  t['_'] = kWord;
  return t;
}();
constexpr unsigned char char_class(char c) {
  return kCharClass[static_cast<unsigned char>(c)];
}
constexpr bool is_joiner(char c) { return c == '.' || c == '-'; }
}  // namespace detail

/// The token grammar, visited without allocating: calls fn(token) with a
/// std::string_view of each token `tokenize` would return, in order. The
/// view is valid only for the duration of that call: a token with an
/// upper-case letter is lowered into `scratch`, any other is a view of
/// `input`, so
/// reusing one scratch buffer across calls keeps a scan allocation-free.
/// If fn returns bool, returning false stops the scan; the visitor then
/// returns false, otherwise true.
template <typename Fn>
bool for_each_token(std::string_view input, std::string& scratch, Fn&& fn) {
  std::size_t i = 0;
  while (i < input.size()) {
    if (!(detail::char_class(input[i]) & detail::kWord)) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    unsigned char seen = 0;  // union of the token's character classes
    while (i < input.size()) {
      const unsigned char cls = detail::char_class(input[i]);
      if (cls & detail::kWord) {
        seen |= cls;
        ++i;
      } else if (detail::is_joiner(input[i]) && i + 1 < input.size() &&
                 (detail::char_class(input[i + 1]) & detail::kWord)) {
        seen |= detail::char_class(input[i + 1]);
        i += 2;  // joiner plus the character that legitimized it
      } else {
        break;
      }
    }
    std::string_view tok = input.substr(start, i - start);
    if (tok.size() < kMinTokenLength) continue;
    if (seen & detail::kUpper) {
      scratch.assign(tok);
      for (char& c : scratch) {
        if (detail::char_class(c) & detail::kUpper) c += 'a' - 'A';
      }
      tok = scratch;
    }
    if constexpr (std::is_same_v<std::invoke_result_t<Fn&, std::string_view>,
                                 bool>) {
      if (!fn(tok)) return false;
    } else {
      fn(tok);
    }
  }
  return true;
}

/// for_each_token with a scratch buffer of its own.
template <typename Fn>
bool for_each_token(std::string_view input, Fn&& fn) {
  std::string scratch;
  return for_each_token(input, scratch, std::forward<Fn>(fn));
}

/// Splits text into word tokens. A token is a maximal run of [A-Za-z0-9_]
/// optionally containing internal '.' or '-' when flanked by alphanumerics
/// (so "2.0.36", "va_list" and "tar.gz" each survive as one token),
/// lowered, and at least kMinTokenLength characters long.
std::vector<std::string> tokenize(std::string_view input);

/// Contiguous word n-grams over a token sequence, joined with '_'.
/// n must be >= 1; returns empty when tokens.size() < n.
std::vector<std::string> ngrams(const std::vector<std::string>& tokens,
                                std::size_t n);

}  // namespace faultstudy::text
