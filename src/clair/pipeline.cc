#include "src/clair/pipeline.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/ml/linear.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/tree.h"
#include "src/support/thread_pool.h"

namespace clair {

const std::vector<LearnerSpec>& StandardLearners() {
  static const std::vector<LearnerSpec> kLearners = {
      {"logistic",
       [] { return std::unique_ptr<ml::Classifier>(new ml::LogisticClassifier()); }},
      {"naive-bayes",
       [] { return std::unique_ptr<ml::Classifier>(new ml::NaiveBayesClassifier()); }},
      {"decision-tree",
       [] {
         ml::TreeOptions options;
         options.max_depth = 8;
         return std::unique_ptr<ml::Classifier>(new ml::DecisionTreeClassifier(options, 11));
       }},
      {"random-forest",
       [] {
         ml::ForestOptions options;
         options.num_trees = 48;
         options.tree.max_depth = 10;
         options.seed = 13;
         return std::unique_ptr<ml::Classifier>(new ml::RandomForestClassifier(options));
       }},
      {"knn", [] { return std::unique_ptr<ml::Classifier>(new ml::KnnClassifier(5)); }},
  };
  return kLearners;
}

double HypothesisModel::PredictRisk(const metrics::FeatureVector& features) const {
  std::vector<double> row;
  row.reserve(feature_names.size());
  for (const auto& name : feature_names) {
    double value = features.Get(name, 0.0);
    if (log1p) {
      value = value >= 0.0 ? std::log1p(value) : -std::log1p(-value);
    }
    row.push_back(value);
  }
  if (standardize) {
    const auto& means = standardizer.means();
    const auto& stddevs = standardizer.stddevs();
    for (size_t j = 0; j < row.size() && j < means.size(); ++j) {
      row[j] = (row[j] - means[j]) / stddevs[j];
    }
  }
  const auto proba = model->PredictProba(row);
  return proba.size() > 1 ? proba[1] : 0.0;
}

std::vector<double> HypothesisModel::PredictRiskBatch(
    const std::vector<const metrics::FeatureVector*>& rows) const {
  // Same transform as PredictRisk, applied per row; the classifier call is
  // the only batched step, and PredictProbaBatch is bit-identical to the
  // per-row loop, so batched risks byte-equal N independent PredictRisk
  // calls.
  std::vector<std::vector<double>> matrix;
  matrix.reserve(rows.size());
  for (const metrics::FeatureVector* features : rows) {
    std::vector<double> row;
    row.reserve(feature_names.size());
    for (const auto& name : feature_names) {
      double value = features->Get(name, 0.0);
      if (log1p) {
        value = value >= 0.0 ? std::log1p(value) : -std::log1p(-value);
      }
      row.push_back(value);
    }
    if (standardize) {
      const auto& means = standardizer.means();
      const auto& stddevs = standardizer.stddevs();
      for (size_t j = 0; j < row.size() && j < means.size(); ++j) {
        row[j] = (row[j] - means[j]) / stddevs[j];
      }
    }
    matrix.push_back(std::move(row));
  }
  const auto probas = model->PredictProbaBatch(matrix);
  std::vector<double> risks;
  risks.reserve(probas.size());
  for (const auto& proba : probas) {
    risks.push_back(proba.size() > 1 ? proba[1] : 0.0);
  }
  return risks;
}

const HypothesisModel* TrainedModel::ForHypothesis(const std::string& id) const {
  for (const auto& model : models_) {
    if (model.hypothesis_id == id) {
      return &model;
    }
  }
  return nullptr;
}

TrainingPipeline::TrainingPipeline(std::vector<AppRecord> records, PipelineOptions options)
    : records_(std::move(records)), options_(options) {
  std::set<std::string> names;
  std::vector<cvedb::AppSummary> summaries;
  for (const auto& record : records_) {
    for (const auto& [name, _] : record.features.values()) {
      names.insert(name);
    }
    summaries.push_back(record.labels);
  }
  feature_names_.assign(names.begin(), names.end());
  stats_ = ComputeCorpusStats(summaries);
  robustness_ = SummarizeRecordRobustness(records_);
}

ml::Dataset TrainingPipeline::BuildDataset(const Hypothesis& hypothesis) const {
  ml::Dataset data = ml::Dataset::ForClassification(feature_names_, hypothesis.classes);
  data.Reserve(records_.size());
  // Row-major staging + one bulk append: a single binned-cache invalidation
  // instead of one per row.
  std::vector<double> rows(records_.size() * feature_names_.size());
  std::vector<double> targets(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    const auto& record = records_[i];
    for (size_t j = 0; j < feature_names_.size(); ++j) {
      rows[i * feature_names_.size() + j] = record.features.Get(feature_names_[j], 0.0);
    }
    targets[i] = hypothesis.label(record.labels, stats_);
  }
  data.AppendRows(rows, targets);
  return data;
}

void TrainingPipeline::ApplyTransforms(ml::Dataset& data, ml::Standardizer* fitted) const {
  if (options_.log1p) {
    ml::ApplyLog1p(data);
  }
  if (options_.standardize) {
    ml::Standardizer standardizer;
    standardizer.Fit(data);
    standardizer.Apply(data);
    if (fitted != nullptr) {
      *fitted = standardizer;
    }
  }
}

HypothesisReport TrainingPipeline::EvaluateHypothesis(const Hypothesis& hypothesis) const {
  HypothesisReport report;
  report.hypothesis_id = hypothesis.id;
  ml::Dataset data = BuildDataset(hypothesis);
  ApplyTransforms(data, nullptr);
  const auto counts = data.ClassCounts();
  report.positive_rate = data.num_rows() == 0
                             ? 0.0
                             : static_cast<double>(counts.size() > 1 ? counts[1] : 0) /
                                   static_cast<double>(data.num_rows());
  // Learners cross-validate independently on the shared transformed dataset;
  // selection scans the results in StandardLearners() order afterwards, so
  // ties keep resolving to the same learner at any worker count.
  const auto& learners = StandardLearners();
  report.per_learner = support::ParallelMap<LearnerOutcome>(
      learners.size(), [&](size_t i) {
        return LearnerOutcome{
            learners[i].name,
            ml::CrossValidate(data, learners[i].factory, options_.cv_folds,
                              options_.seed)};
      });
  double best_score = -1.0;
  for (const auto& outcome : report.per_learner) {
    // Model selection on macro-F1 (robust to the skewed base rates these
    // hypotheses have), AUC as the tie-breaker.
    const double score = outcome.metrics.macro_f1 + 1e-3 * outcome.metrics.auc;
    if (score > best_score) {
      best_score = score;
      report.best_learner = outcome.learner;
      report.best = outcome.metrics;
    }
  }
  // Feature attribution from a final model with importances, trained on the
  // same transformed dataset (and shared binned view) the CV sweep used.
  ml::ForestOptions forest_options;
  forest_options.num_trees = 48;
  forest_options.seed = 13;
  ml::RandomForestClassifier forest(forest_options);
  forest.Train(data);
  auto importance = forest.FeatureImportance();
  if (importance.size() > 10) {
    importance.resize(10);
  }
  report.top_features = std::move(importance);
  return report;
}

std::vector<HypothesisReport> TrainingPipeline::EvaluateAll() const {
  // Hypotheses are independent (each builds its own labelled dataset), so
  // they form the outermost parallel axis of the training phase; the nested
  // learner/fold regions inside collapse to inline execution.
  const auto& hypotheses = StandardHypotheses();
  return support::ParallelMap<HypothesisReport>(
      hypotheses.size(), [&](size_t i) { return EvaluateHypothesis(hypotheses[i]); });
}

ml::Dataset TrainingPipeline::BuildCountDataset() const {
  ml::Dataset data = ml::Dataset::ForRegression(feature_names_, "log10_vulns");
  data.Reserve(records_.size());
  std::vector<double> rows(records_.size() * feature_names_.size());
  std::vector<double> targets(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    const auto& record = records_[i];
    for (size_t j = 0; j < feature_names_.size(); ++j) {
      rows[i * feature_names_.size() + j] = record.features.Get(feature_names_[j], 0.0);
    }
    targets[i] = std::log10(1.0 + record.labels.total);
  }
  data.AppendRows(rows, targets);
  return data;
}

std::vector<TrainingPipeline::CountRegressionOutcome>
TrainingPipeline::EvaluateCountRegression() const {
  ml::Dataset data = BuildCountDataset();
  ApplyTransforms(data, nullptr);
  struct Spec {
    const char* name;
    std::function<std::unique_ptr<ml::Regressor>()> factory;
  };
  const Spec specs[] = {
      {"ols", [] { return std::unique_ptr<ml::Regressor>(new ml::LinearRegressor(0.0)); }},
      {"ridge",
       [] { return std::unique_ptr<ml::Regressor>(new ml::LinearRegressor(10.0)); }},
      {"forest-regressor",
       [] {
         ml::ForestOptions options;
         options.num_trees = 48;
         options.tree.max_depth = 10;
         options.seed = 17;
         return std::unique_ptr<ml::Regressor>(new ml::RandomForestRegressor(options));
       }},
  };
  return support::ParallelMap<CountRegressionOutcome>(std::size(specs), [&](size_t i) {
    CountRegressionOutcome outcome;
    outcome.model = specs[i].name;
    outcome.metrics = ml::CrossValidateRegression(data, specs[i].factory,
                                                  options_.cv_folds, options_.seed);
    return outcome;
  });
}

TrainedModel TrainingPipeline::TrainFinal() const {
  return TrainFinal(EvaluateAll());
}

TrainedModel TrainingPipeline::TrainFinal(
    const std::vector<HypothesisReport>& reports) const {
  const auto& hypotheses = StandardHypotheses();
  // Final per-hypothesis models are independent fits on all rows; train them
  // in parallel and assemble in hypothesis order (empty slots = hypotheses
  // without a report).
  auto bundles = support::ParallelMap<HypothesisModel>(
      hypotheses.size(), [&](size_t i) {
        const auto& hypothesis = hypotheses[i];
        HypothesisModel bundle;
        const HypothesisReport* report = nullptr;
        for (const auto& candidate : reports) {
          if (candidate.hypothesis_id == hypothesis.id) {
            report = &candidate;
            break;
          }
        }
        if (report == nullptr) {
          return bundle;
        }
        bundle.hypothesis_id = hypothesis.id;
        bundle.learner = report->best_learner;
        bundle.log1p = options_.log1p;
        bundle.standardize = options_.standardize;
        bundle.feature_names = feature_names_;
        ml::Dataset data = BuildDataset(hypothesis);
        ApplyTransforms(data, &bundle.standardizer);
        for (const auto& learner : StandardLearners()) {
          if (learner.name == report->best_learner) {
            bundle.model = learner.factory();
            break;
          }
        }
        if (!bundle.model) {
          bundle.model = StandardLearners().front().factory();
        }
        bundle.model->Train(data);
        bundle.top_features = bundle.model->FeatureImportance();
        if (bundle.top_features.size() > 5) {
          bundle.top_features.resize(5);
        }
        return bundle;
      });
  TrainedModel trained;
  for (auto& bundle : bundles) {
    if (bundle.model != nullptr) {
      trained.Add(std::move(bundle));
    }
  }
  return trained;
}

}  // namespace clair
