#include "ml/dataset.hpp"

#include <algorithm>
#include <stdexcept>

namespace polaris::ml {

Dataset::Dataset(std::vector<std::vector<double>> features,
                 std::vector<int> labels)
    : rows_(std::move(features)), labels_(std::move(labels)) {
  if (rows_.size() != labels_.size()) {
    throw std::invalid_argument("Dataset: feature/label size mismatch");
  }
  weights_.assign(labels_.size(), 1.0);
}

void Dataset::add(std::vector<double> features, int label, double weight) {
  if (!rows_.empty() && features.size() != rows_[0].size()) {
    throw std::invalid_argument("Dataset::add: feature width mismatch");
  }
  rows_.push_back(std::move(features));
  labels_.push_back(label);
  weights_.push_back(weight);
}

std::size_t Dataset::positives() const {
  return static_cast<std::size_t>(
      std::count(labels_.begin(), labels_.end(), 1));
}

void Dataset::apply_class_balance_weights() {
  const double pos = static_cast<double>(positives());
  const double neg = static_cast<double>(size()) - pos;
  if (pos == 0.0 || neg == 0.0) return;  // single class: nothing to balance
  const double half = static_cast<double>(size()) / 2.0;
  const double w_pos = half / pos;
  const double w_neg = half / neg;
  for (std::size_t i = 0; i < size(); ++i) {
    weights_[i] = labels_[i] == 1 ? w_pos : w_neg;
  }
}

void Dataset::append(const Dataset& other) {
  if (!empty() && !other.empty() &&
      feature_count() != other.feature_count()) {
    throw std::invalid_argument("Dataset::append: feature width mismatch");
  }
  for (std::size_t i = 0; i < other.size(); ++i) {
    add(other.rows_[i], other.labels_[i], other.weights_[i]);
  }
}

}  // namespace polaris::ml
