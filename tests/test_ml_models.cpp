#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "ml/adaboost.hpp"
#include "ml/forest.hpp"
#include "ml/gbdt.hpp"
#include "ml/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace polaris::ml;

/// Noisy two-cluster problem with a few irrelevant features.
Dataset cluster_dataset(std::size_t n, std::uint64_t seed, double noise = 0.1) {
  polaris::util::Xoshiro256 rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    const double center = label == 1 ? 0.8 : 0.2;
    data.add({center + rng.uniform(-noise, noise),
              center + rng.uniform(-noise, noise), rng.uniform(),
              rng.uniform()},
             label);
  }
  return data;
}

/// XOR-of-two-binary-features with distractors: requires depth >= 2.
Dataset xor_dataset(std::size_t n, std::uint64_t seed) {
  polaris::util::Xoshiro256 rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.chance(0.5) ? 1.0 : 0.0;
    const double b = rng.chance(0.5) ? 1.0 : 0.0;
    data.add({a, b, rng.uniform()}, (a != b) ? 1 : 0);
  }
  return data;
}

/// Seeded shuffle, then the first `train_fraction` of rows train the model
/// and the rest test it.
std::pair<Dataset, Dataset> holdout_split(const Dataset& data,
                                          double train_fraction,
                                          std::uint64_t seed) {
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  polaris::util::Xoshiro256 rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(order[i - 1], order[rng.bounded(i)]);
  }
  const auto cut = static_cast<std::size_t>(
      train_fraction * static_cast<double>(order.size()));
  Dataset train, test;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t src = order[i];
    (i < cut ? train : test).add(data.rows()[src], data.label(src),
                                 data.weight(src));
  }
  return {std::move(train), std::move(test)};
}

template <typename Model>
double holdout_accuracy(Model& model, const Dataset& data) {
  auto [train, test] = holdout_split(data, 0.7, 99);
  model.fit(train);
  return evaluate(model, test).accuracy;
}

TEST(RandomForest, SeparatesClusters) {
  auto data = cluster_dataset(600, 1);
  RandomForest model({.trees = 30, .max_depth = 6, .seed = 7});
  EXPECT_GT(holdout_accuracy(model, data), 0.95);
}

TEST(RandomForest, LearnsXor) {
  auto data = xor_dataset(800, 2);
  RandomForest model({.trees = 40, .max_depth = 5, .seed = 3});
  EXPECT_GT(holdout_accuracy(model, data), 0.95);
}

TEST(RandomForest, ProbabilitiesAreAverages) {
  auto data = cluster_dataset(200, 3);
  RandomForest model({.trees = 10, .seed = 1});
  model.fit(data);
  for (std::size_t i = 0; i < 10; ++i) {
    const double p = model.predict_proba(data.row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_EQ(model.ensemble().trees.size(), 10u);
  EXPECT_EQ(model.ensemble().link, TreeEnsemble::Link::kIdentity);
}

TEST(Gbdt, SeparatesClusters) {
  auto data = cluster_dataset(600, 4);
  Gbdt model({.rounds = 60, .max_depth = 3, .learning_rate = 0.3});
  EXPECT_GT(holdout_accuracy(model, data), 0.95);
}

TEST(Gbdt, LearnsXor) {
  auto data = xor_dataset(800, 5);
  Gbdt model({.rounds = 80, .max_depth = 3, .learning_rate = 0.3});
  EXPECT_GT(holdout_accuracy(model, data), 0.95);
}

TEST(Gbdt, BaseScoreIsPriorLogOdds) {
  Dataset data;
  for (int i = 0; i < 90; ++i) data.add({0.0}, 1);
  for (int i = 0; i < 10; ++i) data.add({1.0}, 0);
  Gbdt model({.rounds = 1, .learning_rate = 0.0});
  model.fit(data);
  EXPECT_NEAR(model.ensemble().base, std::log(0.9 / 0.1), 1e-9);
}

TEST(Gbdt, MoreRoundsImproveTrainingFit) {
  auto data = xor_dataset(400, 6);
  Gbdt small({.rounds = 2, .max_depth = 2, .learning_rate = 0.1});
  Gbdt large({.rounds = 100, .max_depth = 2, .learning_rate = 0.1});
  small.fit(data);
  large.fit(data);
  EXPECT_GE(evaluate(large, data).accuracy, evaluate(small, data).accuracy);
}

TEST(AdaBoost, SeparatesClusters) {
  auto data = cluster_dataset(600, 7);
  AdaBoost model({.rounds = 40, .max_depth = 2, .learning_rate = 0.5});
  EXPECT_GT(holdout_accuracy(model, data), 0.95);
}

TEST(AdaBoost, LearnsXor) {
  auto data = xor_dataset(800, 8);
  AdaBoost model({.rounds = 60, .max_depth = 2, .learning_rate = 0.5});
  EXPECT_GT(holdout_accuracy(model, data), 0.95);
}

TEST(AdaBoost, StopsOnUnlearnableData) {
  // A constant feature with perfectly balanced labels: the stump cannot do
  // better than chance (err = 0.5 exactly), so boosting must halt at once.
  Dataset data;
  for (int i = 0; i < 300; ++i) data.add({0.0}, i % 2);
  AdaBoost model({.rounds = 50, .max_depth = 1});
  model.fit(data);
  EXPECT_TRUE(model.ensemble().trees.empty());
  // The untrained-ish model still predicts a valid probability.
  EXPECT_NEAR(model.predict_proba(std::array{0.0}), 0.5, 0.01);
}

TEST(AdaBoost, MarginIsWeightedVote) {
  auto data = cluster_dataset(300, 12);
  AdaBoost model({.rounds = 15, .max_depth = 2});
  model.fit(data);
  const auto& ensemble = model.ensemble();
  ASSERT_FALSE(ensemble.trees.empty());
  // Manual margin = base + sum(w * tree(x)) must match predict_margin.
  const auto x = data.row(0);
  double manual = ensemble.base;
  for (const auto& wt : ensemble.trees) manual += wt.weight * wt.tree.predict(x);
  EXPECT_NEAR(manual, model.predict_margin(x), 1e-12);
}

TEST(Models, DeterministicForFixedSeed) {
  auto data = cluster_dataset(300, 13);
  RandomForest a({.trees = 10, .seed = 5}), b({.trees = 10, .seed = 5});
  a.fit(data);
  b.fit(data);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.predict_proba(data.row(i)), b.predict_proba(data.row(i)));
  }
}

TEST(Models, ClassWeightsCounterImbalance) {
  // 95/5 imbalance; with balance weights the boosted model must still
  // recall most minority samples.
  polaris::util::Xoshiro256 rng(15);
  Dataset data;
  for (int i = 0; i < 950; ++i) data.add({rng.uniform(0.0, 0.6)}, 0);
  for (int i = 0; i < 50; ++i) data.add({rng.uniform(0.4, 1.0)}, 1);
  data.apply_class_balance_weights();
  Gbdt model({.rounds = 40, .max_depth = 2, .learning_rate = 0.3});
  model.fit(data);
  const auto metrics = evaluate(model, data);
  EXPECT_GT(metrics.recall, 0.6);
}

}  // namespace
