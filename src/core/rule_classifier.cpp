#include "core/rule_classifier.hpp"

#include <array>

namespace faultstudy::core {

namespace {

struct Cue {
  const char* phrase;  // lowercase ASCII; matched case-insensitively
  Trigger trigger;
  double weight;       // specificity: multiword diagnostic phrases score higher
};

// The cue lexicon. Phrases are drawn from the vocabulary of the paper's own
// bug descriptions (Sections 5.1-5.3) plus common report phrasing for the
// same mechanisms. Order does not matter; all matches vote.
constexpr Cue kCues[] = {
    // --- environment-independent ---
    {"long url", Trigger::kBoundaryInput, 3.0},
    {"very long", Trigger::kBoundaryInput, 1.5},
    {"buffer overflow", Trigger::kBoundaryInput, 2.5},
    {"overflow in the hash", Trigger::kBoundaryInput, 3.0},
    {"zero entries", Trigger::kBoundaryInput, 3.0},
    {"size zero", Trigger::kBoundaryInput, 2.5},
    {"empty table", Trigger::kBoundaryInput, 2.5},
    {"empty directory", Trigger::kBoundaryInput, 2.5},
    {"selects zero records", Trigger::kBoundaryInput, 3.0},
    {"nonexistent url", Trigger::kBoundaryInput, 2.5},
    {"boundary condition", Trigger::kBoundaryInput, 2.0},
    {"off-by-one", Trigger::kBoundaryInput, 2.5},
    {"missing initialization", Trigger::kMissingInitialization, 3.0},
    {"missing check", Trigger::kMissingInitialization, 2.0},
    {"uninitialized", Trigger::kMissingInitialization, 2.5},
    {"initializing a variable to an incorrect value", Trigger::kMissingInitialization, 3.0},
    {"local copy of the variable", Trigger::kWrongVariableUsage, 3.0},
    {"instead of the global", Trigger::kWrongVariableUsage, 2.5},
    {"declared as \"long\"", Trigger::kWrongVariableUsage, 3.0},
    {"wrong type", Trigger::kWrongVariableUsage, 1.5},
    {"sign extension", Trigger::kWrongVariableUsage, 2.0},
    {"va_list", Trigger::kApiMisuse, 3.0},
    {"without an intervening", Trigger::kApiMisuse, 2.0},
    {"api contract", Trigger::kApiMisuse, 2.0},
    {"double free", Trigger::kApiMisuse, 2.5},
    {"memory leak", Trigger::kDeterministicLeak, 2.5},
    {"shared memory segment keeps growing", Trigger::kDeterministicLeak, 3.0},
    {"leaks memory", Trigger::kDeterministicLeak, 2.5},
    {"sighup kills", Trigger::kSignalHandlingBug, 3.0},
    {"signal handler", Trigger::kSignalHandlingBug, 2.0},
    {"should gracefully restart", Trigger::kSignalHandlingBug, 2.0},
    {"duplicate values in the index", Trigger::kLogicError, 3.0},
    {"while scanning the index", Trigger::kLogicError, 3.0},
    {"flush tables", Trigger::kLogicError, 2.0},
    {"lock tables", Trigger::kLogicError, 2.0},
    {"optimize table", Trigger::kMissingInitialization, 2.0},
    {"order by", Trigger::kMissingInitialization, 1.0},
    {"clicking on", Trigger::kUiEventSequence, 2.0},
    {"double-clicking", Trigger::kUiEventSequence, 2.5},
    {"pressing tab", Trigger::kUiEventSequence, 2.5},
    {"tab is pressed", Trigger::kUiEventSequence, 2.5},
    {"pop up the main menu", Trigger::kUiEventSequence, 2.5},
    {"dialog", Trigger::kUiEventSequence, 1.0},

    // --- environment-dependent-nontransient ---
    {"unknown resource leak", Trigger::kResourceLeakUnderLoad, 3.0},
    {"resource leak", Trigger::kResourceLeakUnderLoad, 2.0},
    {"under high load", Trigger::kResourceLeakUnderLoad, 1.5},
    {"out of file descriptors", Trigger::kFdExhaustion, 3.0},
    {"lack of file descriptors", Trigger::kFdExhaustion, 3.0},
    {"runs out of file descriptors", Trigger::kFdExhaustion, 3.0},
    {"no file descriptors", Trigger::kFdExhaustion, 2.5},
    {"too many open files", Trigger::kFdExhaustion, 3.0},
    {"disk cache", Trigger::kDiskCacheFull, 2.5},
    {"cannot store any more temporary files", Trigger::kDiskCacheFull, 3.0},
    {"maximum allowed file size", Trigger::kFileSizeLimit, 3.0},
    {"log file is greater", Trigger::kFileSizeLimit, 2.5},
    {"file too large", Trigger::kFileSizeLimit, 2.5},
    {"2gb limit", Trigger::kFileSizeLimit, 2.5},
    {"full file system", Trigger::kFullFileSystem, 3.0},
    {"file system is full", Trigger::kFullFileSystem, 3.0},
    {"filesystem full", Trigger::kFullFileSystem, 3.0},
    {"disk full", Trigger::kFullFileSystem, 2.5},
    {"no space left on device", Trigger::kFullFileSystem, 3.0},
    {"network resource", Trigger::kNetworkResourceExhausted, 2.0},
    {"pcmcia", Trigger::kHardwareRemoval, 3.0},
    {"card is removed", Trigger::kHardwareRemoval, 2.5},
    {"removal of", Trigger::kHardwareRemoval, 1.0},
    {"hostname of the machine was changed", Trigger::kHostnameChanged, 3.0},
    {"hostname of the machine is changed", Trigger::kHostnameChanged, 3.0},
    {"change the hostname", Trigger::kHostnameChanged, 3.0},
    {"hostname changed", Trigger::kHostnameChanged, 3.0},
    {"hostname stays changed", Trigger::kHostnameChanged, 3.0},
    {"open sockets left around", Trigger::kExternalSocketLeak, 3.0},
    {"sockets left", Trigger::kExternalSocketLeak, 2.5},
    {"illegal value in the owner field", Trigger::kCorruptFileMetadata, 3.0},
    {"illegal value", Trigger::kCorruptFileMetadata, 1.5},
    {"owner field", Trigger::kCorruptFileMetadata, 2.0},
    {"reverse dns is not configured", Trigger::kReverseDnsMissing, 3.0},
    {"no reverse dns", Trigger::kReverseDnsMissing, 3.0},
    {"reverse lookup fails", Trigger::kReverseDnsMissing, 2.5},

    // --- environment-dependent-transient ---
    {"dns returns an error", Trigger::kDnsError, 3.0},
    {"call to domain name service returns an error", Trigger::kDnsError, 3.0},
    {"dns error", Trigger::kDnsError, 2.5},
    {"name server error", Trigger::kDnsError, 2.5},
    {"slots in the process table", Trigger::kProcessTableFull, 3.0},
    {"process table", Trigger::kProcessTableFull, 2.0},
    {"cannot fork", Trigger::kProcessTableFull, 2.0},
    {"fork failed", Trigger::kProcessTableFull, 2.0},
    {"presses stop on the browser", Trigger::kWorkloadTiming, 3.0},
    {"stop button", Trigger::kWorkloadTiming, 2.0},
    {"midst of a page download", Trigger::kWorkloadTiming, 3.0},
    {"aborts the transfer", Trigger::kWorkloadTiming, 2.0},
    {"hang onto required network ports", Trigger::kPortsHeldByChildren, 3.0},
    {"address already in use", Trigger::kPortsHeldByChildren, 2.5},
    {"port is held", Trigger::kPortsHeldByChildren, 2.5},
    {"slow domain name service", Trigger::kDnsSlow, 3.0},
    {"slow dns", Trigger::kDnsSlow, 3.0},
    {"dns times out", Trigger::kDnsSlow, 2.5},
    {"slow network connection", Trigger::kNetworkSlow, 3.0},
    {"network is slow", Trigger::kNetworkSlow, 2.5},
    {"high latency", Trigger::kNetworkSlow, 1.5},
    {"/dev/random", Trigger::kEntropyShortage, 3.0},
    {"random numbers", Trigger::kEntropyShortage, 2.0},
    {"lack of events to generate", Trigger::kEntropyShortage, 3.0},
    {"entropy", Trigger::kEntropyShortage, 2.5},
    {"race condition", Trigger::kRaceCondition, 3.0},
    {"race between", Trigger::kRaceCondition, 3.0},
    {"timing of thread scheduling", Trigger::kRaceCondition, 3.0},
    {"masking of a signal and its arrival", Trigger::kRaceCondition, 3.0},
    {"cannot reproduce reliably", Trigger::kRaceCondition, 1.0},
    {"happens sometimes", Trigger::kUnknownTransient, 1.5},
    {"works on a retry", Trigger::kUnknownTransient, 3.0},
    {"works on retry", Trigger::kUnknownTransient, 3.0},
    {"could not repeat", Trigger::kUnknownTransient, 2.0},
    {"not reproducible", Trigger::kUnknownTransient, 2.0},
};

// classify() lowers each field once and searches it for the phrases as
// written, which equals a case-insensitive match only while no phrase has
// an uppercase letter or a byte outside ASCII.
constexpr bool cues_are_lowercase_ascii() {
  for (const Cue& cue : kCues) {
    for (const char* p = cue.phrase; *p != '\0'; ++p) {
      const auto c = static_cast<unsigned char>(*p);
      if (c >= 0x80 || (c >= 'A' && c <= 'Z')) return false;
    }
  }
  return true;
}
static_assert(cues_are_lowercase_ascii(),
              "cue phrases must be lowercase ASCII");

struct Field {
  const char* name;
  double weight;
};

// How-to-repeat is "a key field in all the bug reports we study"; it gets
// the highest weight, developer comments next (they carry the diagnosis).
constexpr Field kFields[] = {
    {"title", 1.5},
    {"body", 1.0},
    {"how_to_repeat", 2.0},
    {"developer_comments", 1.75},
};

const std::string& field_text(const ReportText& r, std::size_t i) {
  switch (i) {
    case 0:
      return r.title;
    case 1:
      return r.body;
    case 2:
      return r.how_to_repeat;
    default:
      return r.developer_comments;
  }
}

}  // namespace

RuleClassifier::RuleClassifier(RulePolicy policy) : policy_(policy) {}

std::size_t RuleClassifier::lexicon_size() {
  return std::size(kCues);
}

Classification RuleClassifier::classify(const ReportText& report) const {
  std::array<double, kNumTriggers> scores{};
  Classification result;

  std::string lowered;
  for (std::size_t f = 0; f < std::size(kFields); ++f) {
    const std::string& text = field_text(report, f);
    if (text.empty()) continue;
    lowered.assign(text);
    for (char& c : lowered) {
      if (c >= 'A' && c <= 'Z') c += 'a' - 'A';
    }
    for (const Cue& cue : kCues) {
      if (lowered.find(cue.phrase) != std::string::npos) {
        const double w = cue.weight * kFields[f].weight;
        scores[static_cast<std::size_t>(cue.trigger)] += w;
        result.evidence.push_back(
            {cue.trigger, cue.phrase, kFields[f].name, w});
      }
    }
  }

  double total = 0.0;
  double best = 0.0;
  std::size_t best_idx = static_cast<std::size_t>(Trigger::kLogicError);
  for (std::size_t i = 0; i < kNumTriggers; ++i) {
    total += scores[i];
    if (scores[i] > best) {
      best = scores[i];
      best_idx = i;
    }
  }

  // No environmental or mechanism cue at all: the report describes a
  // workload that deterministically fails, i.e. environment-independent.
  if (total == 0.0) {
    result.trigger = Trigger::kLogicError;
    result.fault_class = policy_.classify(result.trigger);
    result.confidence = 0.0;
    return result;
  }

  result.trigger = static_cast<Trigger>(best_idx);
  result.fault_class = policy_.classify(result.trigger);
  result.confidence = best / total;
  return result;
}

}  // namespace faultstudy::core
