#include "src/ml/linear.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace ml {
namespace {

// Gathers the row-index view into a flat row-major matrix + target vector.
// The normal-equation accumulation is a row-major hot loop; one gather out of
// the columnar storage beats materialising a row per access (or a Subset per
// fold).
void GatherMatrix(const Dataset& data, std::span<const size_t> rows,
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

std::vector<size_t> AllRows(const Dataset& data) {
  std::vector<size_t> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  return rows;
}

// Stable softmax in place; a no-op on an empty vector (an untrained model).
// PredictProba and the trainer share it, so both round alike.
void Softmax(std::span<double> logits) {
  if (logits.empty()) {
    return;
  }
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  double total = 0.0;
  for (double& logit : logits) {
    logit = std::exp(logit - max_logit);
    total += logit;
  }
  for (double& logit : logits) {
    logit /= total;
  }
}

// The logistic trainer's kernel works on blocks of 8 doubles held in four
// two-lane registers (GCC/Clang vector extension: SSE2 on x86-64 at the
// baseline ISA, with no -march). Lane-wise + and * are single IEEE
// operations rounded exactly like their scalar forms, so a lane that sums
// its terms in the scalar loop's order produces the scalar loop's bits.
// Only the independent sums run side by side; no sum is reassociated.
using Lanes = double __attribute__((vector_size(16)));
constexpr size_t kBlock = 8;

size_t RoundUpToBlock(size_t n) { return (n + kBlock - 1) / kBlock * kBlock; }

Lanes Load(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void Store(double* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

// out = init + vᵀ·m for a `count` × `width` row-major matrix m (width a
// multiple of kBlock): out[k] = init + v[0]·m[0][k] + v[1]·m[1][k] + ...,
// summed with the row ascending, 8 columns at a time.
void VecMat(double init, const double* v, size_t count, const double* m, size_t width,
            double* out) {
  for (size_t k = 0; k < width; k += kBlock) {
    Lanes a0 = {init, init};
    Lanes a1 = a0;
    Lanes a2 = a0;
    Lanes a3 = a0;
    for (size_t r = 0; r < count; ++r) {
      const double* row = m + r * width + k;
      const Lanes scale = {v[r], v[r]};
      a0 += scale * Load(row);
      a1 += scale * Load(row + 2);
      a2 += scale * Load(row + 4);
      a3 += scale * Load(row + 6);
    }
    Store(out + k, a0);
    Store(out + k + 2, a1);
    Store(out + k + 4, a2);
    Store(out + k + 6, a3);
  }
}

}  // namespace

bool SolveLinearSystem(std::vector<std::vector<double>> a, std::vector<double> b,
                       std::vector<double>& x) {
  const size_t n = a.size();
  for (size_t col = 0; col < n; ++col) {
    // Partial pivot.
    size_t pivot = col;
    for (size_t row = col + 1; row < n; ++row) {
      if (std::fabs(a[row][col]) > std::fabs(a[pivot][col])) {
        pivot = row;
      }
    }
    if (std::fabs(a[pivot][col]) < 1e-12) {
      return false;
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (size_t row = col + 1; row < n; ++row) {
      const double factor = a[row][col] / a[col][col];
      if (factor == 0.0) {
        continue;
      }
      for (size_t k = col; k < n; ++k) {
        a[row][k] -= factor * a[col][k];
      }
      b[row] -= factor * b[col];
    }
  }
  x.assign(n, 0.0);
  for (size_t row = n; row-- > 0;) {
    double sum = b[row];
    for (size_t k = row + 1; k < n; ++k) {
      sum -= a[row][k] * x[k];
    }
    x[row] = sum / a[row][row];
  }
  return true;
}

void LinearRegressor::Train(const Dataset& data) {
  const auto rows = AllRows(data);
  TrainIndexed(data, rows);
}

void LinearRegressor::TrainIndexed(const Dataset& data, std::span<const size_t> rows) {
  feature_names_ = data.feature_names();
  const size_t dim = data.num_features();
  const size_t n = dim + 1;  // +1 intercept.
  std::vector<double> x;
  std::vector<double> y;
  GatherMatrix(data, rows, x, y);
  auto accumulate = [&](std::vector<std::vector<double>>& xtx, std::vector<double>& xty) {
    for (size_t i = 0; i < rows.size(); ++i) {
      const double* row = x.data() + i * dim;
      // Augmented feature vector [1, x...].
      auto feature = [row](size_t j) { return j == 0 ? 1.0 : row[j - 1]; };
      for (size_t p = 0; p < n; ++p) {
        for (size_t q = 0; q < n; ++q) {
          xtx[p][q] += feature(p) * feature(q);
        }
        xty[p] += feature(p) * y[i];
      }
    }
  };
  std::vector<std::vector<double>> xtx(n, std::vector<double>(n, 0.0));
  std::vector<double> xty(n, 0.0);
  accumulate(xtx, xty);
  for (size_t p = 1; p < n; ++p) {
    xtx[p][p] += lambda_;  // Intercept is not regularised.
  }
  if (!SolveLinearSystem(std::move(xtx), std::move(xty), weights_)) {
    // Singular system: retry with a stabilising ridge.
    std::vector<std::vector<double>> xtx2(n, std::vector<double>(n, 0.0));
    std::vector<double> xty2(n, 0.0);
    accumulate(xtx2, xty2);
    for (size_t p = 0; p < n; ++p) {
      xtx2[p][p] += 1e-6;
    }
    SolveLinearSystem(std::move(xtx2), std::move(xty2), weights_);
  }
}

double LinearRegressor::Predict(std::span<const double> x) const {
  if (weights_.empty()) {
    return 0.0;
  }
  double value = weights_[0];
  const size_t n = std::min(x.size(), weights_.size() - 1);
  for (size_t j = 0; j < n; ++j) {
    value += weights_[j + 1] * x[j];
  }
  return value;
}

std::vector<std::pair<std::string, double>> LinearRegressor::FeatureImportance() const {
  std::vector<std::pair<std::string, double>> out;
  for (size_t j = 0; j + 1 < weights_.size() && j < feature_names_.size(); ++j) {
    out.emplace_back(feature_names_[j], std::fabs(weights_[j + 1]));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

void LogisticClassifier::Train(const Dataset& data) {
  const auto rows = AllRows(data);
  TrainIndexed(data, rows);
}

void LogisticClassifier::TrainIndexed(const Dataset& data, std::span<const size_t> rows) {
  feature_names_ = data.feature_names();
  num_classes_ = data.num_classes();
  const size_t features = data.num_features();
  const size_t dim = features + 1;
  weights_.assign(num_classes_, std::vector<double>(dim, 0.0));
  if (rows.empty()) {
    return;
  }
  // Gather once, in the two layouts VecMat reads: the gradient loop touches
  // every row 500 times. `xcol` is features × padded rows (logits pass),
  // `xrow` is rows × padded features (gradient pass). Padding cells are 0.0,
  // and what they produce is never read.
  const size_t n = rows.size();
  const size_t padded_rows = RoundUpToBlock(n);
  const size_t padded_features = RoundUpToBlock(features);
  std::vector<double> xcol(features * padded_rows, 0.0);
  std::vector<double> xrow(n * padded_features, 0.0);
  for (size_t j = 0; j < features; ++j) {
    const auto column = data.Column(j);
    for (size_t i = 0; i < n; ++i) {
      xcol[j * padded_rows + i] = xrow[i * padded_features + j] = column[rows[i]];
    }
  }
  std::vector<double> logits(num_classes_ * padded_rows);
  std::vector<double> errors(num_classes_ * n);
  std::vector<double> gradient(padded_features);
  std::vector<double> proba(num_classes_);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (int iter = 0; iter < options_.iterations; ++iter) {
    // logit[c][i] = w[c][0] + Σ_j w[c][j+1]·x[i][j], j ascending: the order
    // PredictProba sums in.
    for (size_t c = 0; c < num_classes_; ++c) {
      const double* w = weights_[c].data();
      VecMat(w[0], w + 1, features, xcol.data(), padded_rows, logits.data() + c * padded_rows);
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < num_classes_; ++c) {
        proba[c] = logits[c * padded_rows + i];
      }
      Softmax(proba);
      const auto label = static_cast<size_t>(data.targets()[rows[i]]);
      for (size_t c = 0; c < num_classes_; ++c) {
        errors[c * n + i] = proba[c] - (c == label ? 1.0 : 0.0);
      }
    }
    // gradient[c][j] = 0.0 + Σ_i error[c][i]·x[i][j] and the intercept's
    // Σ_i error[c][i], i ascending.
    for (size_t c = 0; c < num_classes_; ++c) {
      const double* error = errors.data() + c * n;
      VecMat(0.0, error, n, xrow.data(), padded_features, gradient.data());
      double intercept = 0.0;
      for (size_t i = 0; i < n; ++i) {
        intercept += error[i];
      }
      auto& w = weights_[c];
      for (size_t j = 0; j < dim; ++j) {
        const double g = j == 0 ? intercept : gradient[j - 1];
        const double l2 = j == 0 ? 0.0 : options_.l2 * w[j];
        w[j] -= options_.learning_rate * (g * inv_n + l2);
      }
    }
  }
}

std::vector<double> LogisticClassifier::PredictProba(std::span<const double> x) const {
  std::vector<double> logits(num_classes_, 0.0);
  for (size_t c = 0; c < num_classes_; ++c) {
    double z = weights_[c].empty() ? 0.0 : weights_[c][0];
    const size_t n = std::min(x.size(), weights_[c].size() - 1);
    for (size_t j = 0; j < n; ++j) {
      z += weights_[c][j + 1] * x[j];
    }
    logits[c] = z;
  }
  Softmax(logits);  // Untrained: stays empty, which Predict reads as class 0.
  return logits;
}

std::vector<std::pair<std::string, double>> LogisticClassifier::FeatureImportance() const {
  // Importance: max |weight| across classes per feature.
  std::vector<std::pair<std::string, double>> out;
  for (size_t j = 0; j < feature_names_.size(); ++j) {
    double best = 0.0;
    for (const auto& class_weights : weights_) {
      if (j + 1 < class_weights.size()) {
        best = std::max(best, std::fabs(class_weights[j + 1]));
      }
    }
    out.emplace_back(feature_names_[j], best);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

}  // namespace ml
