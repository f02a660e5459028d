// Tests for the ML library: dataset mechanics, learners, evaluation, and
// feature selection, including property-style checks on synthetic data.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "src/ml/dataset.h"
#include "src/ml/eval.h"
#include "src/ml/feature_select.h"
#include "src/ml/linear.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/transforms.h"
#include "src/ml/tree.h"
#include "src/support/rng.h"

namespace ml {
namespace {

// Two Gaussian blobs, linearly separable when `separation` is large.
Dataset MakeBlobs(size_t per_class, double separation, uint64_t seed) {
  Dataset data = Dataset::ForClassification({"f0", "f1", "noise"}, {"neg", "pos"});
  support::Rng rng(seed);
  for (size_t i = 0; i < per_class; ++i) {
    data.AddRow({rng.Normal(0.0, 1.0), rng.Normal(0.0, 1.0), rng.Normal(0.0, 1.0)}, 0.0);
    data.AddRow({rng.Normal(separation, 1.0), rng.Normal(separation, 1.0),
                 rng.Normal(0.0, 1.0)},
                1.0);
  }
  return data;
}

TEST(Dataset, BasicAccessors) {
  Dataset data = Dataset::ForClassification({"a", "b"}, {"x", "y"});
  data.AddRow({1.0, 2.0}, 0.0);
  data.AddRow({3.0, 4.0}, 1.0);
  EXPECT_EQ(data.num_rows(), 2u);
  EXPECT_EQ(data.num_features(), 2u);
  EXPECT_EQ(data.num_classes(), 2u);
  EXPECT_EQ(data.ClassIndex(1), 1);
  const auto column = data.Column(1);
  EXPECT_EQ(std::vector<double>(column.begin(), column.end()),
            (std::vector<double>{2.0, 4.0}));
  EXPECT_EQ(data.Row(1), (std::vector<double>{3.0, 4.0}));
  const auto counts = data.ClassCounts();
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
}

TEST(Dataset, StratifiedFoldsPreserveBalance) {
  Dataset data = MakeBlobs(50, 2.0, 3);
  support::Rng rng(1);
  const auto folds = data.StratifiedFolds(5, rng);
  ASSERT_EQ(folds.size(), 5u);
  size_t total = 0;
  for (const auto& fold : folds) {
    size_t pos = 0;
    for (const size_t row : fold) {
      pos += data.ClassIndex(row) == 1 ? 1 : 0;
    }
    // Each fold is ~20 rows, ~half positive.
    EXPECT_NEAR(static_cast<double>(pos) / fold.size(), 0.5, 0.15);
    total += fold.size();
  }
  EXPECT_EQ(total, data.num_rows());
}

TEST(Transforms, Log1pAndStandardize) {
  Dataset data = Dataset::ForRegression({"a"}, "y");
  data.AddRow({0.0}, 0.0);
  data.AddRow({std::exp(1.0) - 1.0}, 0.0);
  ApplyLog1p(data);
  EXPECT_NEAR(data.Feature(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(data.Feature(1, 0), 1.0, 1e-12);
  Standardizer std_;
  std_.Fit(data);
  std_.Apply(data);
  EXPECT_NEAR(data.Feature(0, 0) + data.Feature(1, 0), 0.0, 1e-9);
}

TEST(Transforms, DiscretizerBins) {
  Dataset data = Dataset::ForRegression({"a"}, "y");
  for (int i = 0; i <= 10; ++i) {
    data.AddRow({static_cast<double>(i)}, 0.0);
  }
  Discretizer disc(5);
  disc.Fit(data);
  EXPECT_EQ(disc.BinOf(0, 0.0), 0);
  EXPECT_EQ(disc.BinOf(0, 10.0), 4);
  EXPECT_EQ(disc.BinOf(0, -100.0), 0);   // Clamped.
  EXPECT_EQ(disc.BinOf(0, 100.0), 4);    // Clamped.
}

TEST(LinearSystem, SolvesKnown) {
  std::vector<double> x;
  ASSERT_TRUE(SolveLinearSystem({{2, 1}, {1, 3}}, {5, 10}, x));
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
  EXPECT_FALSE(SolveLinearSystem({{1, 1}, {2, 2}}, {1, 2}, x));  // Singular.
}

TEST(LinearRegressor, RecoversPlane) {
  Dataset data = Dataset::ForRegression({"a", "b"}, "y");
  support::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.Uniform(-5, 5);
    const double b = rng.Uniform(-5, 5);
    data.AddRow({a, b}, 2.0 + 3.0 * a - 1.5 * b);
  }
  LinearRegressor model;
  model.Train(data);
  EXPECT_NEAR(model.weights()[0], 2.0, 1e-6);
  EXPECT_NEAR(model.weights()[1], 3.0, 1e-6);
  EXPECT_NEAR(model.weights()[2], -1.5, 1e-6);
  EXPECT_NEAR(model.Predict(std::vector<double>{1.0, 1.0}), 3.5, 1e-6);
  const auto importance = model.FeatureImportance();
  EXPECT_EQ(importance[0].first, "a");  // |3.0| > |-1.5|.
}

TEST(LinearRegressor, RidgeShrinksWeights) {
  Dataset data = Dataset::ForRegression({"a"}, "y");
  support::Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const double a = rng.Uniform(-1, 1);
    data.AddRow({a}, 10.0 * a + rng.Normal(0, 0.1));
  }
  LinearRegressor ols(0.0);
  LinearRegressor ridge(50.0);
  ols.Train(data);
  ridge.Train(data);
  EXPECT_LT(std::fabs(ridge.weights()[1]), std::fabs(ols.weights()[1]));
}

template <typename Model>
double TrainAndScore(Model&& model, const Dataset& data) {
  model.Train(data);
  size_t correct = 0;
  for (size_t i = 0; i < data.num_rows(); ++i) {
    if (model.Predict(data.Row(i)) == data.ClassIndex(i)) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / data.num_rows();
}

TEST(Classifiers, AllSeparateCleanBlobs) {
  const Dataset data = MakeBlobs(60, 4.0, 9);
  EXPECT_GT(TrainAndScore(LogisticClassifier(), data), 0.95);
  EXPECT_GT(TrainAndScore(NaiveBayesClassifier(), data), 0.95);
  EXPECT_GT(TrainAndScore(DecisionTreeClassifier(), data), 0.95);
  EXPECT_GT(TrainAndScore(RandomForestClassifier(), data), 0.95);
  EXPECT_GT(TrainAndScore(KnnClassifier(5), data), 0.95);
}

TEST(Classifiers, ProbaSumsToOne) {
  const Dataset data = MakeBlobs(40, 2.0, 11);
  LogisticClassifier logistic;
  logistic.Train(data);
  NaiveBayesClassifier bayes;
  bayes.Train(data);
  RandomForestClassifier forest;
  forest.Train(data);
  for (size_t i = 0; i < 10; ++i) {
    for (const Classifier* model :
         {static_cast<const Classifier*>(&logistic),
          static_cast<const Classifier*>(&bayes),
          static_cast<const Classifier*>(&forest)}) {
      const auto proba = model->PredictProba(data.Row(i));
      double total = 0.0;
      for (const double p : proba) {
        EXPECT_GE(p, 0.0);
        total += p;
      }
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
  }
}

TEST(Classifiers, BatchPredictBitIdenticalToPerRow) {
  // The serving scheduler's batched-equals-sequential guarantee rides on
  // PredictProbaBatch: the forest's columnar override (one walk per tree for
  // the whole batch) must reproduce the per-row loop exactly.
  const Dataset data = MakeBlobs(40, 2.0, 19);
  RandomForestClassifier forest;
  forest.Train(data);
  LogisticClassifier logistic;  // Exercises the default per-row fallback.
  logistic.Train(data);
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.Row(i);
    rows.emplace_back(row.begin(), row.end());
  }
  for (const Classifier* model :
       {static_cast<const Classifier*>(&forest),
        static_cast<const Classifier*>(&logistic)}) {
    const auto batched = model->PredictProbaBatch(rows);
    ASSERT_EQ(batched.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(batched[i], model->PredictProba(rows[i])) << model->Name() << " row " << i;
    }
  }
}

TEST(Classifiers, SignalFeatureOutranksNoise) {
  const Dataset data = MakeBlobs(80, 3.0, 13);
  LogisticClassifier logistic;
  logistic.Train(data);
  auto importance = logistic.FeatureImportance();
  EXPECT_NE(importance[0].first, "noise");
  DecisionTreeClassifier tree;
  tree.Train(data);
  importance = tree.FeatureImportance();
  EXPECT_NE(importance[0].first, "noise");
}

// Scalar per-row logistic trainer: the bit-exact oracle for
// LogisticClassifier's register-blocked kernel. It is the plain loop the
// kernel's summation-order contract is defined against, kept line for line.
class ReferenceLogistic {
 public:
  void TrainIndexed(const Dataset& data, std::span<const size_t> rows) {
    num_classes_ = data.num_classes();
    const size_t features = data.num_features();
    const size_t dim = features + 1;
    weights_.assign(num_classes_, std::vector<double>(dim, 0.0));
    if (rows.empty()) {
      return;
    }
    // Gather once: the gradient loop touches every row 500 times.
    std::vector<double> x;
    std::vector<double> y;
    GatherMatrix(data, rows, x, y);
    std::vector<std::vector<double>> gradients(num_classes_, std::vector<double>(dim, 0.0));
    const double inv_n = 1.0 / static_cast<double>(rows.size());
    for (int iter = 0; iter < options_.iterations; ++iter) {
      for (auto& g : gradients) {
        std::fill(g.begin(), g.end(), 0.0);
      }
      for (size_t i = 0; i < rows.size(); ++i) {
        const std::span<const double> row(x.data() + i * features, features);
        const auto proba = PredictProba(row);
        const auto label = static_cast<size_t>(y[i]);
        for (size_t c = 0; c < num_classes_; ++c) {
          const double error = proba[c] - (c == label ? 1.0 : 0.0);
          gradients[c][0] += error;
          for (size_t j = 0; j < features; ++j) {
            gradients[c][j + 1] += error * row[j];
          }
        }
      }
      for (size_t c = 0; c < num_classes_; ++c) {
        for (size_t j = 0; j < dim; ++j) {
          const double l2 = j == 0 ? 0.0 : options_.l2 * weights_[c][j];
          weights_[c][j] -= options_.learning_rate * (gradients[c][j] * inv_n + l2);
        }
      }
    }
  }

  std::vector<double> PredictProba(std::span<const double> x) const {
    std::vector<double> logits(num_classes_, 0.0);
    for (size_t c = 0; c < num_classes_; ++c) {
      double z = weights_[c].empty() ? 0.0 : weights_[c][0];
      const size_t n = std::min(x.size(), weights_[c].size() - 1);
      for (size_t j = 0; j < n; ++j) {
        z += weights_[c][j + 1] * x[j];
      }
      logits[c] = z;
    }
    // Stable softmax.
    const double max_logit = *std::max_element(logits.begin(), logits.end());
    double total = 0.0;
    for (double& logit : logits) {
      logit = std::exp(logit - max_logit);
      total += logit;
    }
    for (double& logit : logits) {
      logit /= total;
    }
    return logits;
  }

  const std::vector<std::vector<double>>& weights() const { return weights_; }

 private:
  static void GatherMatrix(const Dataset& data, std::span<const size_t> rows,
                           std::vector<double>& x, std::vector<double>& y) {
    const size_t dim = data.num_features();
    x.resize(rows.size() * dim);
    y.resize(rows.size());
    for (size_t j = 0; j < dim; ++j) {
      const auto column = data.Column(j);
      for (size_t i = 0; i < rows.size(); ++i) {
        x[i * dim + j] = column[rows[i]];
      }
    }
    const auto& targets = data.targets();
    for (size_t i = 0; i < rows.size(); ++i) {
      y[i] = targets[rows[i]];
    }
  }

  LogisticOptions options_;
  std::vector<std::vector<double>> weights_;
  size_t num_classes_ = 0;
};

// Weights as bit patterns, so EXPECT_EQ tells -0.0 from 0.0 and matches NaNs.
std::vector<std::vector<uint64_t>> WeightBits(const std::vector<std::vector<double>>& weights) {
  std::vector<std::vector<uint64_t>> bits;
  for (const auto& class_weights : weights) {
    bits.emplace_back();
    for (const double w : class_weights) {
      bits.back().push_back(std::bit_cast<uint64_t>(w));
    }
  }
  return bits;
}

// `rows` rows of `features` features over `classes` classes: class-shifted
// Gaussians, with exact zeros and a wide-range column mixed in.
Dataset MakeLogisticData(size_t rows, size_t features, size_t classes, uint64_t seed) {
  std::vector<std::string> feature_names;
  for (size_t j = 0; j < features; ++j) {
    feature_names.push_back("f" + std::to_string(j));
  }
  std::vector<std::string> class_names;
  for (size_t c = 0; c < classes; ++c) {
    class_names.push_back("c" + std::to_string(c));
  }
  Dataset data = Dataset::ForClassification(feature_names, class_names);
  support::Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    const size_t label = rng.NextBelow(classes);
    std::vector<double> row(features);
    for (size_t j = 0; j < features; ++j) {
      if (rng.NextBelow(7) == 0) {
        row[j] = 0.0;
      } else if (j % 5 == 4) {
        row[j] = rng.Normal(0.0, 1.0) * 1e3;
      } else {
        row[j] = rng.Normal(0.5 * static_cast<double>(label) * ((j % 3) - 1.0), 1.0);
      }
    }
    data.AddRow(row, static_cast<double>(label));
  }
  return data;
}

TEST(LogisticKernel, BitIdenticalToScalarOracleOverShapes) {
  // Row counts straddle the 8-row block (0, 1, 2, 7, 8, 9, 17) and reach a
  // 10-fold CV training fold of the 164-app corpus (148); feature counts
  // straddle the 8-feature block and reach the corpus width (100), and 0
  // leaves only the intercepts.
  for (const size_t rows : {0, 1, 2, 7, 8, 9, 17, 148}) {
    for (const size_t features : {0, 1, 7, 8, 9, 100}) {
      for (const size_t classes : {2, 3}) {
        const Dataset data = MakeLogisticData(rows, features, classes,
                                              rows * 1000 + features * 10 + classes);
        std::vector<size_t> all(rows);
        std::iota(all.begin(), all.end(), size_t{0});
        LogisticClassifier kernel;
        kernel.Train(data);
        ReferenceLogistic oracle;
        oracle.TrainIndexed(data, all);
        ASSERT_EQ(kernel.weights().size(), classes);
        EXPECT_EQ(WeightBits(kernel.weights()), WeightBits(oracle.weights()))
            << rows << " rows, " << features << " features, " << classes << " classes";
      }
    }
  }
}

TEST(LogisticKernel, TrainIndexedRepeatedAndUnsortedRows) {
  // Bootstrap bags repeat rows and CV folds come shuffled: the kernel must
  // gather exactly the rows it is given, in the order given.
  const Dataset data = MakeLogisticData(40, 9, 3, 77);
  const std::vector<std::vector<size_t>> views = {
      {5, 3, 3, 9, 0, 5, 39, 12, 12, 12, 1},
      {39, 38, 37, 36, 35, 34, 33, 32, 31},
      {0, 1, 3, 3, 5, 5, 9, 12, 12, 12, 39},
      {7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7},
  };
  for (const auto& rows : views) {
    LogisticClassifier kernel;
    kernel.TrainIndexed(data, rows);
    ReferenceLogistic oracle;
    oracle.TrainIndexed(data, rows);
    EXPECT_EQ(WeightBits(kernel.weights()), WeightBits(oracle.weights()))
        << rows.size() << " indexed rows";
  }
}

TEST(LogisticKernel, PinnedWeightsDigest) {
  // FNV-1a over the weights' bit patterns, class-major, recorded from the
  // scalar trainer before the kernel replaced it. Pins the kernel and the
  // oracle above together: they cannot drift in step unnoticed.
  const Dataset data = MakeBlobs(40, 2.0, 11);
  LogisticClassifier model;
  model.Train(data);
  uint64_t digest = 1469598103934665603ull;
  for (const auto& class_weights : model.weights()) {
    for (const double w : class_weights) {
      const auto bits = std::bit_cast<uint64_t>(w);
      for (int byte = 0; byte < 8; ++byte) {
        digest ^= (bits >> (8 * byte)) & 0xff;
        digest *= 1099511628211ull;
      }
    }
  }
  EXPECT_EQ(digest, 0x44975df9c405f941ull);
}

TEST(Classifiers, UntrainedPredictsEmptyDistribution) {
  // Regression: PredictProba on an untrained model took max_element of an
  // empty vector. It now returns an empty distribution; Predict reads that
  // as class 0.
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const LogisticClassifier logistic;
  const NaiveBayesClassifier bayes;
  for (const Classifier* model :
       {static_cast<const Classifier*>(&logistic), static_cast<const Classifier*>(&bayes)}) {
    EXPECT_TRUE(model->PredictProba(x).empty()) << model->Name();
    EXPECT_EQ(model->Predict(x), 0) << model->Name();
  }
}

TEST(Tree, RespectsDepthLimit) {
  TreeOptions options;
  options.max_depth = 2;
  DecisionTreeClassifier tree(options);
  const Dataset data = MakeBlobs(100, 1.0, 17);
  tree.Train(data);
  EXPECT_LE(tree.depth(), 2);
}

TEST(Eval, ConfusionMatrixMetrics) {
  ConfusionMatrix cm(2);
  // 40 TN, 10 FP, 5 FN, 45 TP.
  for (int i = 0; i < 40; ++i) {
    cm.Add(0, 0);
  }
  for (int i = 0; i < 10; ++i) {
    cm.Add(0, 1);
  }
  for (int i = 0; i < 5; ++i) {
    cm.Add(1, 0);
  }
  for (int i = 0; i < 45; ++i) {
    cm.Add(1, 1);
  }
  EXPECT_NEAR(cm.Accuracy(), 0.85, 1e-12);
  EXPECT_NEAR(cm.Precision(1), 45.0 / 55.0, 1e-12);
  EXPECT_NEAR(cm.Recall(1), 0.9, 1e-12);
  EXPECT_GT(cm.MacroF1(), 0.8);
  EXPECT_EQ(cm.Total(), 100u);
}

TEST(Eval, RocAucPerfectAndRandom) {
  const std::vector<double> perfect_scores = {0.1, 0.2, 0.8, 0.9};
  const std::vector<int> labels = {0, 0, 1, 1};
  EXPECT_NEAR(RocAuc(perfect_scores, labels), 1.0, 1e-12);
  const std::vector<double> inverted = {0.9, 0.8, 0.2, 0.1};
  EXPECT_NEAR(RocAuc(inverted, labels), 0.0, 1e-12);
  const std::vector<double> constant = {0.5, 0.5, 0.5, 0.5};
  EXPECT_NEAR(RocAuc(constant, labels), 0.5, 1e-12);
}

TEST(Eval, RegressionMetrics) {
  const std::vector<double> actual = {1, 2, 3, 4};
  const std::vector<double> perfect = actual;
  const RegressionMetrics m = EvaluateRegression(perfect, actual);
  EXPECT_NEAR(m.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(m.rmse, 0.0, 1e-12);
  const std::vector<double> off = {2, 3, 4, 5};
  const RegressionMetrics m2 = EvaluateRegression(off, actual);
  EXPECT_NEAR(m2.mae, 1.0, 1e-12);
}

TEST(Eval, CrossValidationOnSeparableData) {
  const Dataset data = MakeBlobs(60, 4.0, 21);
  const CvMetrics metrics = CrossValidate(
      data, [] { return std::unique_ptr<Classifier>(new LogisticClassifier()); }, 5, 1);
  EXPECT_GT(metrics.accuracy, 0.9);
  EXPECT_GT(metrics.auc, 0.95);
  EXPECT_EQ(metrics.confusion.Total(), data.num_rows());
}

TEST(Eval, CvIsDeterministicGivenSeed) {
  const Dataset data = MakeBlobs(40, 1.0, 23);
  auto factory = [] { return std::unique_ptr<Classifier>(new NaiveBayesClassifier()); };
  const CvMetrics a = CrossValidate(data, factory, 5, 42);
  const CvMetrics b = CrossValidate(data, factory, 5, 42);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_DOUBLE_EQ(a.auc, b.auc);
}

TEST(FeatureSelect, InformationGainFindsSignal) {
  const Dataset data = MakeBlobs(100, 3.0, 29);
  const auto ranking = RankByInformationGain(data);
  ASSERT_EQ(ranking.size(), 3u);
  EXPECT_NE(data.feature_names()[ranking[0].first], "noise");
  EXPECT_GT(ranking[0].second, ranking[2].second);
}

TEST(FeatureSelect, CorrelationAndProjection) {
  const Dataset data = MakeBlobs(100, 3.0, 31);
  const auto ranking = RankByCorrelation(data);
  const Dataset reduced = SelectFeatures(data, ranking, 2);
  EXPECT_EQ(reduced.num_features(), 2u);
  EXPECT_EQ(reduced.num_rows(), data.num_rows());
  // The projected features are the top-ranked ones in order.
  EXPECT_EQ(reduced.feature_names()[0], data.feature_names()[ranking[0].first]);
}


TEST(TreeRegressor, FitsPiecewiseConstant) {
  Dataset data = Dataset::ForRegression({"x"}, "y");
  for (int i = 0; i < 100; ++i) {
    const double x = static_cast<double>(i);
    data.AddRow({x}, x < 50 ? 10.0 : -5.0);
  }
  DecisionTreeRegressor tree;
  tree.Train(data);
  EXPECT_NEAR(tree.Predict(std::vector<double>{10.0}), 10.0, 1e-9);
  EXPECT_NEAR(tree.Predict(std::vector<double>{80.0}), -5.0, 1e-9);
  const auto importance = tree.FeatureImportance();
  EXPECT_EQ(importance[0].first, "x");
}

TEST(ForestRegressor, BeatsMeanOnNonlinearData) {
  Dataset data = Dataset::ForRegression({"a", "b"}, "y");
  support::Rng rng(33);
  for (int i = 0; i < 300; ++i) {
    const double a = rng.Uniform(-3, 3);
    const double b = rng.Uniform(-3, 3);
    data.AddRow({a, b}, a * a + (b > 0 ? 5.0 : 0.0) + rng.Normal(0, 0.2));
  }
  ForestOptions options;
  options.num_trees = 32;
  options.seed = 5;
  const RegressionMetrics metrics = CrossValidateRegression(
      data,
      [&options] {
        return std::unique_ptr<Regressor>(new RandomForestRegressor(options));
      },
      5, 3);
  EXPECT_GT(metrics.r_squared, 0.8);
  // Linear OLS cannot capture a*a well.
  const RegressionMetrics linear = CrossValidateRegression(
      data, [] { return std::unique_ptr<Regressor>(new LinearRegressor()); }, 5, 3);
  EXPECT_GT(metrics.r_squared, linear.r_squared);
}

TEST(Eval, RegressionCvIsDeterministic) {
  Dataset data = Dataset::ForRegression({"x"}, "y");
  support::Rng rng(8);
  for (int i = 0; i < 60; ++i) {
    const double x = rng.Uniform(-1, 1);
    data.AddRow({x}, 2 * x + rng.Normal(0, 0.1));
  }
  auto factory = [] { return std::unique_ptr<Regressor>(new LinearRegressor()); };
  const RegressionMetrics a = CrossValidateRegression(data, factory, 4, 9);
  const RegressionMetrics b = CrossValidateRegression(data, factory, 4, 9);
  EXPECT_DOUBLE_EQ(a.r_squared, b.r_squared);
  EXPECT_GT(a.r_squared, 0.9);
}

}  // namespace
}  // namespace ml
