#include "text/tokenizer.hpp"

namespace faultstudy::text {

std::vector<std::string> tokenize(std::string_view input) {
  std::vector<std::string> tokens;
  for_each_token(input,
                 [&](std::string_view tok) { tokens.emplace_back(tok); });
  return tokens;
}

std::vector<std::string> ngrams(const std::vector<std::string>& tokens,
                                std::size_t n) {
  std::vector<std::string> out;
  if (n == 0 || tokens.size() < n) return out;
  out.reserve(tokens.size() - n + 1);
  for (std::size_t i = 0; i + n <= tokens.size(); ++i) {
    std::string gram = tokens[i];
    for (std::size_t j = 1; j < n; ++j) {
      gram += '_';
      gram += tokens[i + j];
    }
    out.push_back(std::move(gram));
  }
  return out;
}

}  // namespace faultstudy::text
