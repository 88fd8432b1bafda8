// Unit tests for the text substrate: tokenizer, stopwords, stemmer, TF-IDF,
// MinHash (including the Jaccard-estimation property), inverted index.
#include <gtest/gtest.h>

#include <cmath>

#include "text/minhash.hpp"
#include "text/stemmer.hpp"
#include "text/stopwords.hpp"
#include "text/tfidf.hpp"
#include "text/tokenizer.hpp"
#include "util/rng.hpp"

namespace faultstudy::text {
namespace {

// ------------------------------------------------------------- tokenizer

TEST(Tokenizer, BasicWords) {
  const auto t = tokenize("The server crashed hard");
  EXPECT_EQ(t, (std::vector<std::string>{"the", "server", "crashed", "hard"}));
}

TEST(Tokenizer, KeepsVersionsAndIdentifiers) {
  const auto t = tokenize("Apache 2.0.36 uses va_list in ap_log_rerror");
  EXPECT_NE(std::find(t.begin(), t.end(), "2.0.36"), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), "va_list"), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), "ap_log_rerror"), t.end());
}

TEST(Tokenizer, KeepsCompoundFilenames) {
  const auto t = tokenize("double-clicking a tar.gz file");
  EXPECT_NE(std::find(t.begin(), t.end(), "tar.gz"), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), "double-clicking"), t.end());
}

TEST(Tokenizer, TrailingJoinerNotAbsorbed) {
  const auto t = tokenize("end of sentence.");
  EXPECT_NE(std::find(t.begin(), t.end(), "sentence"), t.end());
  EXPECT_EQ(std::find(t.begin(), t.end(), "sentence."), t.end());
}

TEST(Tokenizer, MinLengthDropsShortTokens) {
  // Tokens shorter than kMinTokenLength (2) go; two characters stay.
  const auto t = tokenize("a ox I is 7 42 big");
  EXPECT_EQ(t, (std::vector<std::string>{"ox", "is", "42", "big"}));
}

TEST(Tokenizer, EmptyInput) {
  EXPECT_TRUE(tokenize("").empty());
  EXPECT_TRUE(tokenize("!!! ??? ...").empty());
}

// Edge cases of the token grammar, each with the tokens the tokenizer has
// always produced for it: joiners at either end, versions, identifiers,
// one-character tokens, digit-only tokens, mixed case and non-ASCII bytes
// (which separate tokens).
struct GrammarCase {
  std::string_view input;
  std::vector<std::string> tokens;
};

std::vector<GrammarCase> grammar_cases() {
  return {
      {"a.", {}},
      {"ab.", {"ab"}},
      {"-x", {}},
      {"-xy", {"xy"}},
      {"ab..cd xy-", {"ab", "cd", "xy"}},
      {"2.0.36", {"2.0.36"}},
      {"2.0.36 v2.0 1-2", {"2.0.36", "v2.0", "1-2"}},
      {"va_list _ __x", {"va_list", "__x"}},
      {"i o a I/O", {}},
      {"MiXeD CASE.Tar-GZ", {"mixed", "case.tar-gz"}},
      {"caf\xc3\xa9 na\xefve \x80\xff", {"caf", "na", "ve"}},
      {"\xc3\x89" "COLE ok", {"cole", "ok"}},
  };
}

TEST(Tokenizer, GrammarEdgeCases) {
  for (const GrammarCase& c : grammar_cases()) {
    EXPECT_EQ(tokenize(c.input), c.tokens) << c.input;
  }
}

TEST(Tokenizer, ForEachTokenYieldsTokenize) {
  std::string scratch;  // shared across inputs, as the keyword stage does
  for (const GrammarCase& c : grammar_cases()) {
    std::vector<std::string> own, shared;
    EXPECT_TRUE(for_each_token(
        c.input, [&](std::string_view t) { own.emplace_back(t); }));
    for_each_token(c.input, scratch,
                   [&](std::string_view t) { shared.emplace_back(t); });
    EXPECT_EQ(own, tokenize(c.input)) << c.input;
    EXPECT_EQ(shared, own) << c.input;
  }
}

TEST(Tokenizer, ForEachTokenStopsWhenVisitorReturnsFalse) {
  std::vector<std::string> seen;
  const bool finished =
      for_each_token("one Two three four", [&](std::string_view t) {
        seen.emplace_back(t);
        return t != "two";
      });
  EXPECT_FALSE(finished);
  EXPECT_EQ(seen, (std::vector<std::string>{"one", "two"}));
}

TEST(Ngrams, Bigrams) {
  const auto grams = ngrams({"race", "condition", "hit"}, 2);
  EXPECT_EQ(grams,
            (std::vector<std::string>{"race_condition", "condition_hit"}));
}

TEST(Ngrams, DegenerateCases) {
  EXPECT_TRUE(ngrams({"one"}, 2).empty());
  EXPECT_TRUE(ngrams({}, 1).empty());
  EXPECT_TRUE(ngrams({"a", "b"}, 0).empty());
  EXPECT_EQ(ngrams({"a", "b"}, 1), (std::vector<std::string>{"a", "b"}));
}

// ------------------------------------------------------------- stopwords

TEST(Stopwords, CommonWordsStopped) {
  EXPECT_TRUE(is_stopword("the"));
  EXPECT_TRUE(is_stopword("and"));
  EXPECT_TRUE(is_stopword("would"));
}

TEST(Stopwords, DomainWordsKept) {
  // These carry signal in this corpus and must NOT be stopped.
  EXPECT_FALSE(is_stopword("out"));
  EXPECT_FALSE(is_stopword("full"));
  EXPECT_FALSE(is_stopword("long"));
  EXPECT_FALSE(is_stopword("crash"));
}

TEST(Stopwords, RemovePreservesOrder) {
  const auto t = remove_stopwords({"the", "server", "is", "down"});
  EXPECT_EQ(t, (std::vector<std::string>{"server", "down"}));
}

// --------------------------------------------------------------- stemmer

TEST(Stemmer, CollapsesMorphologicalVariants) {
  EXPECT_EQ(stem("crashes"), stem("crashed"));
  EXPECT_EQ(stem("crashes"), stem("crashing"));
  EXPECT_EQ(stem("hangs"), stem("hanging"));
}

TEST(Stemmer, DiedMatchesDies) {
  EXPECT_EQ(stem("died"), stem("dies"));
}

TEST(Stemmer, LeavesIdentifiersAlone) {
  EXPECT_EQ(stem("va_list"), "va_list");
  EXPECT_EQ(stem("1.3.0"), "1.3.0");
  EXPECT_EQ(stem("tar.gz"), "tar.gz");
}

TEST(Stemmer, LeavesShortTokensAlone) {
  EXPECT_EQ(stem("is"), "is");
  EXPECT_EQ(stem("bug"), "bug");
}

TEST(Stemmer, UndoublesConsonants) {
  EXPECT_EQ(stem("stopped"), "stop");
  EXPECT_EQ(stem("stopping"), "stop");
}

TEST(Stemmer, DerivationalSuffixes) {
  EXPECT_EQ(stem("initialization"), stem("initialize"));
}

TEST(Stemmer, StemAllMapsEveryToken) {
  const auto t = stem_all({"crashes", "running"});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0], stem("crashes"));
}

// ---------------------------------------------------------------- tf-idf

TEST(Vocabulary, AddAndLookup) {
  Vocabulary v;
  const auto id = v.add("crash");
  EXPECT_EQ(v.add("crash"), id);
  EXPECT_EQ(v.lookup("crash"), id);
  EXPECT_EQ(v.lookup("unseen"), Vocabulary::kUnknown);
  EXPECT_EQ(v.term(id), "crash");
}

TEST(TfIdf, VectorsAreUnitNorm) {
  TfIdfModel model;
  model.fit({{"a", "b", "c"}, {"a", "d"}});
  const auto vec = model.transform({"a", "b", "b"});
  double norm2 = 0.0;
  for (const auto& e : vec.entries) norm2 += double(e.weight) * e.weight;
  EXPECT_NEAR(norm2, 1.0, 1e-6);
}

TEST(TfIdf, SortedByTermId) {
  TfIdfModel model;
  model.fit({{"z", "y", "x", "w"}});
  const auto vec = model.transform({"w", "z", "x"});
  for (std::size_t i = 1; i < vec.entries.size(); ++i) {
    EXPECT_LT(vec.entries[i - 1].term, vec.entries[i].term);
  }
}

TEST(TfIdf, UnknownTermsDropped) {
  TfIdfModel model;
  model.fit({{"a"}});
  const auto vec = model.transform({"never", "seen"});
  EXPECT_TRUE(vec.entries.empty());
}

TEST(TfIdf, CosineIdenticalIsOne) {
  TfIdfModel model;
  model.fit({{"a", "b"}, {"c", "d"}});
  const auto v1 = model.transform({"a", "b"});
  const auto v2 = model.transform({"a", "b"});
  EXPECT_NEAR(cosine(v1, v2), 1.0, 1e-6);
}

TEST(TfIdf, CosineDisjointIsZero) {
  TfIdfModel model;
  model.fit({{"a", "b"}, {"c", "d"}});
  EXPECT_DOUBLE_EQ(cosine(model.transform({"a"}), model.transform({"c"})), 0.0);
}

TEST(TfIdf, RareTermsWeighMore) {
  TfIdfModel model;
  // "common" appears in every document, "rare" in one.
  model.fit({{"common", "rare"}, {"common"}, {"common"}, {"common"}});
  const auto vec = model.transform({"common", "rare"});
  ASSERT_EQ(vec.entries.size(), 2u);
  float common_w = 0, rare_w = 0;
  const auto& vocab = model.vocabulary();
  for (const auto& e : vec.entries) {
    if (e.term == vocab.lookup("common")) common_w = e.weight;
    if (e.term == vocab.lookup("rare")) rare_w = e.weight;
  }
  EXPECT_GT(rare_w, common_w);
}

// ---------------------------------------------------------------- minhash

TEST(MinHash, IdenticalDocsIdenticalSignatures) {
  const MinHasher h({});
  const std::vector<std::string> doc = {"a", "b", "c", "d", "e"};
  EXPECT_EQ(h.signature(doc), h.signature(doc));
}

TEST(MinHash, EstimateNearExactJaccard) {
  // Property test: over random document pairs, the MinHash estimate must
  // track exact Jaccard within the standard error ~1/sqrt(num_hashes).
  MinHashParams params;
  params.num_hashes = 128;
  params.band_size = 2;
  params.shingle_size = 1;  // token-level so exact_jaccard is comparable
  const MinHasher h(params);
  util::Rng rng(42);

  double total_err = 0.0;
  constexpr int kPairs = 30;
  for (int p = 0; p < kPairs; ++p) {
    std::vector<std::string> a, b;
    for (int i = 0; i < 60; ++i) {
      const auto tok = "tok" + std::to_string(rng.below(80));
      if (rng.chance(0.7)) a.push_back(tok);
      if (rng.chance(0.7)) b.push_back(tok);
    }
    if (a.empty() || b.empty()) continue;
    const double exact = exact_jaccard(a, b);
    const double est = MinHasher::estimate_jaccard(h.signature(a), h.signature(b));
    total_err += std::fabs(exact - est);
  }
  EXPECT_LT(total_err / kPairs, 0.12);
}

TEST(MinHash, LshFindsSimilarPair) {
  MinHashParams params;
  params.band_size = 2;
  const MinHasher h(params);
  std::vector<std::string> base;
  for (int i = 0; i < 30; ++i) base.emplace_back("w") += std::to_string(i);
  auto near_dup = base;
  near_dup[0] = "changed";
  std::vector<std::string> other;
  for (int i = 0; i < 30; ++i) other.emplace_back("x") += std::to_string(i);

  const std::vector<Signature> sigs = {h.signature(base), h.signature(near_dup),
                                       h.signature(other)};
  const auto pairs = lsh_candidates(sigs, params);
  bool found01 = false, found02 = false;
  for (const auto& [i, j] : pairs) {
    if (i == 0 && j == 1) found01 = true;
    if (i == 0 && j == 2) found02 = true;
  }
  EXPECT_TRUE(found01) << "near-duplicate pair missed";
  EXPECT_FALSE(found02) << "disjoint pair proposed";
}

TEST(MinHash, ShortDocumentsStillSign) {
  const MinHasher h({});
  const auto sig = h.signature({"one"});
  EXPECT_EQ(sig.size(), MinHashParams{}.num_hashes);
  // And identical short docs collide fully.
  EXPECT_EQ(MinHasher::estimate_jaccard(sig, h.signature({"one"})), 1.0);
}

TEST(ExactJaccard, KnownValues) {
  EXPECT_DOUBLE_EQ(exact_jaccard({"a", "b"}, {"a", "b"}), 1.0);
  EXPECT_DOUBLE_EQ(exact_jaccard({"a"}, {"b"}), 0.0);
  EXPECT_NEAR(exact_jaccard({"a", "b", "c"}, {"b", "c", "d"}), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(exact_jaccard({}, {}), 0.0);
}

}  // namespace
}  // namespace faultstudy::text
