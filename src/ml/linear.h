// Linear models: ordinary-least-squares / ridge regression (normal equations
// with partial-pivot Gaussian elimination) and binary/multinomial logistic
// regression (batch gradient descent with L2).
#ifndef SRC_ML_LINEAR_H_
#define SRC_ML_LINEAR_H_

#include <vector>

#include "src/ml/classifier.h"

namespace ml {

// Solves (X^T X + lambda I) w = X^T y. Exposed for tests.
// Returns false if the system is singular beyond repair.
bool SolveLinearSystem(std::vector<std::vector<double>> a, std::vector<double> b,
                       std::vector<double>& x);

class LinearRegressor : public Regressor {
 public:
  explicit LinearRegressor(double ridge_lambda = 0.0) : lambda_(ridge_lambda) {}

  void Train(const Dataset& data) override;
  void TrainIndexed(const Dataset& data, std::span<const size_t> rows) override;
  double Predict(std::span<const double> x) const override;
  std::string Name() const override { return lambda_ > 0.0 ? "ridge" : "ols"; }
  std::vector<std::pair<std::string, double>> FeatureImportance() const override;

  // weights()[0] is the intercept; weights()[1 + j] pairs with feature j.
  const std::vector<double>& weights() const { return weights_; }

 private:
  double lambda_;
  std::vector<double> weights_;
  std::vector<std::string> feature_names_;
};

struct LogisticOptions {
  double learning_rate = 0.1;
  int iterations = 500;
  double l2 = 1e-3;
};

// Multinomial logistic regression (softmax); reduces to standard binary
// logistic for two classes. Training runs a register-blocked kernel whose
// every sum keeps the plain per-row gradient loop's order, so its weights
// match that loop (the oracle in tests/ml_test.cc) bit for bit (DESIGN.md,
// "Training-phase data layout").
class LogisticClassifier : public Classifier {
 public:
  explicit LogisticClassifier(LogisticOptions options = {}) : options_(options) {}

  void Train(const Dataset& data) override;
  void TrainIndexed(const Dataset& data, std::span<const size_t> rows) override;
  std::vector<double> PredictProba(std::span<const double> x) const override;
  std::string Name() const override { return "logistic"; }
  std::vector<std::pair<std::string, double>> FeatureImportance() const override;

  // Per-class weight vectors, each laid out [intercept, w_0, w_1, ...].
  const std::vector<std::vector<double>>& weights() const { return weights_; }

 private:
  LogisticOptions options_;
  std::vector<std::vector<double>> weights_;
  std::vector<std::string> feature_names_;
  size_t num_classes_ = 0;
};

}  // namespace ml

#endif  // SRC_ML_LINEAR_H_
