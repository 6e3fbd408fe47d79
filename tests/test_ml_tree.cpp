#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "ml/tree.hpp"
#include "util/rng.hpp"

namespace {

using namespace polaris::ml;

Dataset xor_dataset(int copies) {
  Dataset data;
  for (int c = 0; c < copies; ++c) {
    data.add({0, 0}, 0);
    data.add({0, 1}, 1);
    data.add({1, 0}, 1);
    data.add({1, 1}, 0);
  }
  return data;
}

std::size_t leaf_count(const Tree& tree) {
  return static_cast<std::size_t>(
      std::count_if(tree.nodes.begin(), tree.nodes.end(),
                    [](const TreeNode& node) { return node.is_leaf(); }));
}

std::vector<std::size_t> all_indices(const Dataset& data) {
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

TEST(ClassificationTree, LearnsXorExactly) {
  const Dataset data = xor_dataset(8);
  TreeConfig config;
  config.max_depth = 3;
  const Tree tree = fit_classification_tree(data, all_indices(data), config);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double p = tree.predict(data.row(i));
    EXPECT_EQ(p >= 0.5 ? 1 : 0, data.label(i)) << "row " << i;
  }
  EXPECT_GE(tree.depth(), 2u);
}

TEST(ClassificationTree, DepthZeroIsPrior) {
  Dataset data;
  data.add({0.0}, 1);
  data.add({1.0}, 1);
  data.add({2.0}, 0);
  TreeConfig config;
  config.max_depth = 0;
  const Tree tree = fit_classification_tree(data, all_indices(data), config);
  EXPECT_EQ(tree.nodes.size(), 1u);
  EXPECT_NEAR(tree.nodes[0].value, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(leaf_count(tree), 1u);
}

TEST(ClassificationTree, RespectsMinSamplesLeaf) {
  Dataset data;
  for (int i = 0; i < 20; ++i) data.add({static_cast<double>(i)}, i < 10 ? 0 : 1);
  TreeConfig config;
  config.max_depth = 10;
  config.min_samples_leaf = 8;
  const Tree tree = fit_classification_tree(data, all_indices(data), config);
  // Any split must leave >= 8 samples per side: at most one split here.
  EXPECT_LE(leaf_count(tree), 2u);
}

TEST(ClassificationTree, WeightsShiftTheDecision) {
  // Same geometry, but class-1 samples get huge weight: the leaf
  // probability must follow the weights.
  Dataset data;
  data.add({0.0}, 0, 1.0);
  data.add({0.0}, 0, 1.0);
  data.add({0.0}, 1, 10.0);
  TreeConfig config;
  config.max_depth = 0;
  const Tree tree = fit_classification_tree(data, all_indices(data), config);
  EXPECT_NEAR(tree.nodes[0].value, 10.0 / 12.0, 1e-12);
}

TEST(ClassificationTree, CoverTracksWeights) {
  Dataset data = xor_dataset(4);
  TreeConfig config;
  const Tree tree = fit_classification_tree(data, all_indices(data), config);
  EXPECT_DOUBLE_EQ(tree.nodes[0].cover, 16.0);
  // Children covers sum to the parent cover.
  for (const auto& node : tree.nodes) {
    if (!node.is_leaf()) {
      EXPECT_NEAR(tree.nodes[static_cast<std::size_t>(node.left)].cover +
                      tree.nodes[static_cast<std::size_t>(node.right)].cover,
                  node.cover, 1e-9);
    }
  }
}

TEST(ClassificationTree, HandlesContinuousFeatures) {
  // y = 1 iff x > 0.37: needs the sorted-scan path (many distinct values).
  Dataset data;
  polaris::util::Xoshiro256 rng(5);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.uniform();
    data.add({x}, x > 0.37 ? 1 : 0);
  }
  TreeConfig config;
  config.max_depth = 1;
  const Tree tree = fit_classification_tree(data, all_indices(data), config);
  ASSERT_FALSE(tree.nodes[0].is_leaf());
  EXPECT_NEAR(tree.nodes[0].threshold, 0.37, 0.05);
}

TEST(ClassificationTree, BootstrappedIndicesWithMultiplicity) {
  Dataset data = xor_dataset(2);
  // Overweight one row by repetition.
  std::vector<std::size_t> indices = {1, 1, 1, 1, 1, 1, 0};
  TreeConfig config;
  config.max_depth = 0;
  const Tree tree = fit_classification_tree(data, indices, config);
  EXPECT_NEAR(tree.nodes[0].value, 6.0 / 7.0, 1e-12);
}

TEST(BoostTree, NewtonLeafValue) {
  // One leaf: value = -sum(g)/(sum(h)+lambda).
  Dataset data;
  data.add({0.0}, 1);
  data.add({1.0}, 0);
  const std::vector<double> g{-0.5, 0.5};
  const std::vector<double> h{0.25, 0.25};
  BoostTreeConfig config;
  config.max_depth = 0;
  config.lambda = 1.0;
  const Tree tree = fit_boost_tree(data, g, h, config);
  EXPECT_NEAR(tree.nodes[0].value, 0.0, 1e-12);  // gradients cancel
}

TEST(BoostTree, SplitsOnInformativeFeature) {
  Dataset data;
  std::vector<double> g, h;
  for (int i = 0; i < 100; ++i) {
    const double x = i < 50 ? 0.0 : 1.0;
    data.add({x, 0.5}, x > 0.5 ? 1 : 0);
    g.push_back(x > 0.5 ? -0.5 : 0.5);
    h.push_back(0.25);
  }
  BoostTreeConfig config;
  config.max_depth = 2;
  const Tree tree = fit_boost_tree(data, g, h, config);
  ASSERT_FALSE(tree.nodes[0].is_leaf());
  EXPECT_EQ(tree.nodes[0].feature, 0);
  // Left leaf (x=0) pushes negative class: value = -25/(12.5+1) < 0 ...
  const double left = tree.nodes[static_cast<std::size_t>(tree.nodes[0].left)].value;
  const double right = tree.nodes[static_cast<std::size_t>(tree.nodes[0].right)].value;
  EXPECT_LT(left, 0.0);
  EXPECT_GT(right, 0.0);
}

TEST(BoostTree, GammaPrunesWeakSplits) {
  Dataset data;
  std::vector<double> g, h;
  polaris::util::Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    data.add({rng.uniform()}, 0);
    g.push_back(rng.uniform(-0.01, 0.01));  // nearly no signal
    h.push_back(0.25);
  }
  BoostTreeConfig strict;
  strict.max_depth = 3;
  strict.gamma = 10.0;
  const Tree tree = fit_boost_tree(data, g, h, strict);
  EXPECT_EQ(leaf_count(tree), 1u);
}

TEST(Tree, PredictTraversesCorrectPath) {
  Tree tree;
  tree.nodes.resize(3);
  tree.nodes[0] = {0, 0.5, 1, 2, 0.0, 4.0};
  tree.nodes[1] = {-1, 0.0, -1, -1, 0.25, 2.0};
  tree.nodes[2] = {-1, 0.0, -1, -1, 0.75, 2.0};
  EXPECT_DOUBLE_EQ(tree.predict(std::array{0.3}), 0.25);
  EXPECT_DOUBLE_EQ(tree.predict(std::array{0.5}), 0.25);  // <= goes left
  EXPECT_DOUBLE_EQ(tree.predict(std::array{0.7}), 0.75);
}

TEST(Ensemble, MarginAndLinks) {
  Tree stump;
  stump.nodes.resize(1);
  stump.nodes[0] = {-1, 0.0, -1, -1, 1.0, 1.0};
  TreeEnsemble ensemble;
  ensemble.base = 0.5;
  ensemble.trees.push_back({stump, 2.0});
  EXPECT_DOUBLE_EQ(ensemble.margin(std::array{0.0}), 2.5);
  ensemble.link = TreeEnsemble::Link::kIdentity;
  EXPECT_DOUBLE_EQ(ensemble.probability(std::array{0.0}), 1.0);  // clamped
  ensemble.link = TreeEnsemble::Link::kLogistic;
  EXPECT_NEAR(ensemble.probability(std::array{0.0}),
              1.0 / (1.0 + std::exp(-2.5)), 1e-12);
}

TEST(TreeErrors, EmptyDatasetThrows) {
  Dataset empty;
  TreeConfig config;
  EXPECT_THROW((void)fit_classification_tree(empty, {}, config),
               std::invalid_argument);
  const std::vector<double> g;
  EXPECT_THROW((void)fit_boost_tree(empty, g, g, {}), std::invalid_argument);
}

}  // namespace
