// The training phase (Figure 4): builds a Weka-style dataset per hypothesis
// from the testbed's (features, labels) rows, cross-validates a battery of
// learners, selects the best per hypothesis, and retains final models whose
// weights can be inspected.
#ifndef SRC_CLAIR_PIPELINE_H_
#define SRC_CLAIR_PIPELINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/clair/hypothesis.h"
#include "src/clair/testbed.h"
#include "src/ml/classifier.h"
#include "src/ml/eval.h"
#include "src/ml/transforms.h"

namespace clair {

struct LearnerSpec {
  std::string name;
  std::function<std::unique_ptr<ml::Classifier>()> factory;
};

// logistic, naive-bayes, decision-tree, random-forest, knn.
const std::vector<LearnerSpec>& StandardLearners();

struct PipelineOptions {
  int cv_folds = 10;
  uint64_t seed = 7;
  bool log1p = true;        // Heavy-tailed code features.
  bool standardize = true;
  size_t top_k_features = 0;  // 0 = keep all features.
};

struct LearnerOutcome {
  std::string learner;
  ml::CvMetrics metrics;
};

struct HypothesisReport {
  std::string hypothesis_id;
  std::vector<LearnerOutcome> per_learner;  // In StandardLearners() order.
  std::string best_learner;
  ml::CvMetrics best;
  // From the final model trained on all rows.
  std::vector<std::pair<std::string, double>> top_features;
  double positive_rate = 0.0;  // Base rate of the risky class.
};

// A trained per-hypothesis model bundle, applicable to new feature vectors.
struct HypothesisModel {
  std::string hypothesis_id;
  std::string learner;
  std::unique_ptr<ml::Classifier> model;
  ml::Standardizer standardizer;
  bool log1p = false;
  bool standardize = false;
  std::vector<std::string> feature_names;
  // The model's five most important features (FeatureImportance order),
  // computed once at training time: every SecurityEvaluator::Evaluate
  // reports them, and a forest rebuilds its importance table per call.
  std::vector<std::pair<std::string, double>> top_features;

  // Probability of the risky ("yes") class for a raw feature vector.
  double PredictRisk(const metrics::FeatureVector& features) const;

  // Batched risk: out[i] == PredictRisk(*rows[i]) exactly (same per-row
  // transform, then one Classifier::PredictProbaBatch call, so the forest
  // amortizes tree traversal across the whole batch). The serving
  // scheduler's cross-request predict batching rides on this.
  std::vector<double> PredictRiskBatch(
      const std::vector<const metrics::FeatureVector*>& rows) const;
};

class TrainedModel {
 public:
  const std::vector<HypothesisModel>& models() const { return models_; }
  const HypothesisModel* ForHypothesis(const std::string& id) const;
  void Add(HypothesisModel model) { models_.push_back(std::move(model)); }

 private:
  std::vector<HypothesisModel> models_;
};

class TrainingPipeline {
 public:
  TrainingPipeline(std::vector<AppRecord> records, PipelineOptions options = {});

  // The union of feature names across records (dataset column order).
  const std::vector<std::string>& feature_names() const { return feature_names_; }
  const CorpusStats& corpus_stats() const { return stats_; }

  // Robustness audit folded from the rows' `robust.*` provenance features:
  // how many stages degraded or retried while extracting this training set
  // (survives serialization and the feature cache — see run_report.h).
  const RunReport& robustness() const { return robustness_; }

  // Builds the per-hypothesis dataset (raw, untransformed).
  ml::Dataset BuildDataset(const Hypothesis& hypothesis) const;

  // Cross-validates all standard learners on one hypothesis.
  HypothesisReport EvaluateHypothesis(const Hypothesis& hypothesis) const;

  // CV across every standard hypothesis.
  std::vector<HypothesisReport> EvaluateAll() const;

  // Trains final models (best learner per hypothesis) on all rows. The
  // overload taking precomputed reports (from EvaluateAll) skips re-running
  // cross-validation for model selection.
  TrainedModel TrainFinal() const;
  TrainedModel TrainFinal(const std::vector<HypothesisReport>& reports) const;

  // Applies the configured transforms to a dataset (fits on it).
  void ApplyTransforms(ml::Dataset& data, ml::Standardizer* fitted) const;

  // --- Vulnerability-count regression (the paper's headline quantitative
  // goal: "predict the number ... of vulnerabilities", vs Figure 2's
  // LoC-only baseline at R² ≈ 24.66%). Target: log10(1 + total vulns). ---

  struct CountRegressionOutcome {
    std::string model;            // "ols", "ridge", "forest-regressor".
    ml::RegressionMetrics metrics;  // Cross-validated (out-of-fold R²).
  };

  ml::Dataset BuildCountDataset() const;
  // CV metrics for each standard regressor over the full feature set.
  std::vector<CountRegressionOutcome> EvaluateCountRegression() const;

 private:
  std::vector<AppRecord> records_;
  PipelineOptions options_;
  std::vector<std::string> feature_names_;
  CorpusStats stats_;
  RunReport robustness_;
};

}  // namespace clair

#endif  // SRC_CLAIR_PIPELINE_H_
