// Multinomial naive-Bayes text classifier over fault classes.
//
// The automated comparator for ablation D1 (DESIGN.md): instead of the
// hand-built cue lexicon, learn token likelihoods from labeled reports.
// Tokens are stemmed, stopword-filtered unigrams plus bigrams (bigrams
// capture "race condition", "file descriptors", "process table").
#pragma once

#include <array>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/rule_classifier.hpp"  // ReportText
#include "core/taxonomy.hpp"

namespace faultstudy::core {

class BayesClassifier {
 public:
  /// Laplace smoothing constant.
  explicit BayesClassifier(double alpha = 1.0) : alpha_(alpha) {}

  /// Adds one labeled training report.
  void train(const ReportText& report, FaultClass label);

  /// Most probable class under the trained model. With no training data,
  /// returns kEnvironmentIndependent (the study's overwhelming prior).
  FaultClass classify(const ReportText& report) const;

  /// Log-posterior (up to a constant) per class, for calibration tests.
  std::array<double, 3> log_posterior(const ReportText& report) const;

  std::size_t training_count() const noexcept;

  /// Feature extraction used for both training and inference; exposed for
  /// tests.
  static std::vector<std::string> features(const ReportText& report);

 private:
  double alpha_;
  std::array<std::size_t, 3> class_docs_{};
  std::array<std::size_t, 3> class_tokens_{};
  std::unordered_map<std::string, std::array<std::uint32_t, 3>> vocab_;
};

}  // namespace faultstudy::core
