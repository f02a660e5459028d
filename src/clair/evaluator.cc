#include "src/clair/evaluator.h"

#include <algorithm>
#include <cmath>

#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace clair {

double HypothesisSeverityWeight(const std::string& id) {
  if (id == "critical") {
    return 1.0;
  }
  if (id == "cvss_gt7") {
    return 0.9;
  }
  if (id == "av_network") {
    return 0.8;
  }
  if (id == "cwe121" || id == "memory_safety") {
    return 0.7;
  }
  return 0.5;
}

std::string SecurityReport::ToString() const {
  std::string out = support::Format("Security report for %s\n", subject.c_str());
  out += support::Format("  overall risk: %.3f\n", overall_risk);
  for (const auto& prediction : predictions) {
    out += support::Format("  [%s] %-18s risk=%.3f%s\n",
                           prediction.predicted_risky ? "!" : " ",
                           prediction.hypothesis_id.c_str(), prediction.risk,
                           prediction.predicted_risky ? "  <- predicted risky" : "");
    if (prediction.predicted_risky && !prediction.mitigation.empty()) {
      out += support::Format("      hint: %s\n", prediction.mitigation.c_str());
    }
    if (!prediction.contributing_features.empty()) {
      out += "      drivers:";
      const size_t n = std::min<size_t>(3, prediction.contributing_features.size());
      for (size_t i = 0; i < n; ++i) {
        out += support::Format(" %s", prediction.contributing_features[i].first.c_str());
      }
      out += "\n";
    }
  }
  return out;
}

std::string VersionDelta::ToString() const {
  std::string out =
      support::Format("Version comparison: %.3f -> %.3f (delta %+0.3f)\n",
                      before.overall_risk, after.overall_risk, risk_delta);
  for (const auto& [id, delta] : by_hypothesis) {
    out += support::Format("  %-18s %+0.3f\n", id.c_str(), delta);
  }
  return out;
}

SecurityEvaluator::SecurityEvaluator(const TrainedModel& model, const Testbed& testbed)
    : model_(model), testbed_(testbed) {}

SecurityReport SecurityEvaluator::Evaluate(
    const std::string& subject, const std::vector<metrics::SourceFile>& files) const {
  SecurityReport report;
  report.subject = subject;
  report.features = testbed_.ExtractFeatures(files);
  double weighted = 0.0;
  double weight_total = 0.0;
  for (const auto& hypothesis : StandardHypotheses()) {
    const HypothesisModel* bundle = model_.ForHypothesis(hypothesis.id);
    if (bundle == nullptr) {
      continue;
    }
    HypothesisPrediction prediction;
    prediction.hypothesis_id = hypothesis.id;
    prediction.question = hypothesis.question;
    prediction.risk = bundle->PredictRisk(report.features);
    prediction.predicted_risky = prediction.risk >= 0.5;
    if (prediction.predicted_risky) {
      prediction.mitigation = hypothesis.mitigation;
    }
    prediction.contributing_features = bundle->top_features;
    const double weight = HypothesisSeverityWeight(hypothesis.id);
    weighted += weight * prediction.risk;
    weight_total += weight;
    report.predictions.push_back(std::move(prediction));
  }
  report.overall_risk = weight_total > 0.0 ? weighted / weight_total : 0.0;
  return report;
}

VersionDelta SecurityEvaluator::CompareVersions(
    const std::vector<metrics::SourceFile>& before,
    const std::vector<metrics::SourceFile>& after) const {
  VersionDelta delta;
  delta.before = Evaluate("before", before);
  delta.after = Evaluate("after", after);
  delta.risk_delta = delta.after.overall_risk - delta.before.overall_risk;
  for (size_t i = 0;
       i < delta.before.predictions.size() && i < delta.after.predictions.size(); ++i) {
    delta.by_hypothesis.emplace_back(
        delta.before.predictions[i].hypothesis_id,
        delta.after.predictions[i].risk - delta.before.predictions[i].risk);
  }
  std::sort(delta.by_hypothesis.begin(), delta.by_hypothesis.end(),
            [](const auto& a, const auto& b) {
              return std::fabs(a.second) > std::fabs(b.second);
            });
  return delta;
}

std::vector<SecurityReport> SecurityEvaluator::RankLibraries(
    const std::vector<std::pair<std::string, std::vector<metrics::SourceFile>>>& candidates)
    const {
  // Candidate libraries evaluate independently (one extraction battery
  // each); collect in input order, then sort.
  std::vector<SecurityReport> reports = support::ParallelMap<SecurityReport>(
      candidates.size(),
      [&](size_t i) { return Evaluate(candidates[i].first, candidates[i].second); });
  std::stable_sort(reports.begin(), reports.end(),
                   [](const SecurityReport& a, const SecurityReport& b) {
                     return a.overall_risk < b.overall_risk;
                   });
  return reports;
}

}  // namespace clair
