#include "src/ml/naive_bayes.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace ml {

namespace {
constexpr double kMinVariance = 1e-9;
}  // namespace

void NaiveBayesClassifier::Train(const Dataset& data) {
  std::vector<size_t> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  TrainIndexed(data, rows);
}

void NaiveBayesClassifier::TrainIndexed(const Dataset& data,
                                        std::span<const size_t> rows) {
  feature_names_ = data.feature_names();
  const size_t classes = data.num_classes();
  const size_t features = data.num_features();
  log_priors_.assign(classes, 0.0);
  means_.assign(classes, std::vector<double>(features, 0.0));
  variances_.assign(classes, std::vector<double>(features, 1.0));
  std::vector<size_t> counts(classes, 0);
  // Class of each view row, gathered once; the two sweeps below are then
  // pure column scans over the SoA storage.
  std::vector<size_t> row_class(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    row_class[i] = static_cast<size_t>(data.ClassIndex(rows[i]));
    ++counts[row_class[i]];
  }
  for (size_t j = 0; j < features; ++j) {
    const auto column = data.Column(j);
    for (size_t i = 0; i < rows.size(); ++i) {
      means_[row_class[i]][j] += column[rows[i]];
    }
  }
  for (size_t c = 0; c < classes; ++c) {
    // Laplace-smoothed prior.
    log_priors_[c] = std::log((static_cast<double>(counts[c]) + 1.0) /
                              (static_cast<double>(rows.size()) +
                               static_cast<double>(classes)));
    if (counts[c] > 0) {
      for (size_t j = 0; j < features; ++j) {
        means_[c][j] /= static_cast<double>(counts[c]);
      }
    }
  }
  std::vector<std::vector<double>> sq(classes, std::vector<double>(features, 0.0));
  for (size_t j = 0; j < features; ++j) {
    const auto column = data.Column(j);
    for (size_t i = 0; i < rows.size(); ++i) {
      const double d = column[rows[i]] - means_[row_class[i]][j];
      sq[row_class[i]][j] += d * d;
    }
  }
  for (size_t c = 0; c < classes; ++c) {
    for (size_t j = 0; j < features; ++j) {
      variances_[c][j] =
          counts[c] > 1 ? std::max(sq[c][j] / static_cast<double>(counts[c] - 1),
                                   kMinVariance)
                        : 1.0;
    }
  }
}

std::vector<double> NaiveBayesClassifier::PredictProba(std::span<const double> x) const {
  const size_t classes = log_priors_.size();
  if (classes == 0) {
    return {};  // Untrained: Predict reads an empty distribution as class 0.
  }
  std::vector<double> log_post(classes, 0.0);
  for (size_t c = 0; c < classes; ++c) {
    double lp = log_priors_[c];
    const size_t features = std::min(x.size(), means_[c].size());
    for (size_t j = 0; j < features; ++j) {
      const double var = variances_[c][j];
      const double d = x[j] - means_[c][j];
      lp += -0.5 * (std::log(2.0 * 3.14159265358979323846 * var) + d * d / var);
    }
    log_post[c] = lp;
  }
  const double max_lp = *std::max_element(log_post.begin(), log_post.end());
  double total = 0.0;
  for (double& lp : log_post) {
    lp = std::exp(lp - max_lp);
    total += lp;
  }
  for (double& lp : log_post) {
    lp /= total;
  }
  return log_post;
}

std::vector<std::pair<std::string, double>> NaiveBayesClassifier::FeatureImportance() const {
  // Importance: spread of class means relative to pooled stddev.
  std::vector<std::pair<std::string, double>> out;
  for (size_t j = 0; j < feature_names_.size(); ++j) {
    double min_mean = 0.0;
    double max_mean = 0.0;
    double pooled_var = 0.0;
    for (size_t c = 0; c < means_.size(); ++c) {
      if (c == 0) {
        min_mean = max_mean = means_[c][j];
      } else {
        min_mean = std::min(min_mean, means_[c][j]);
        max_mean = std::max(max_mean, means_[c][j]);
      }
      pooled_var += variances_[c][j];
    }
    pooled_var /= static_cast<double>(means_.empty() ? 1 : means_.size());
    out.emplace_back(feature_names_[j],
                     (max_mean - min_mean) / std::sqrt(std::max(pooled_var, kMinVariance)));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

}  // namespace ml
