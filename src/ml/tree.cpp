#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace polaris::ml {

double Tree::predict(std::span<const double> x) const {
  std::size_t node = 0;
  while (!nodes[node].is_leaf()) {
    const TreeNode& n = nodes[node];
    node = static_cast<std::size_t>(
        x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left : n.right);
  }
  return nodes[node].value;
}

std::size_t Tree::depth() const {
  // Iterative depth via parallel depth array (nodes are in creation order,
  // children always after parents).
  std::vector<std::size_t> depth(nodes.size(), 0);
  std::size_t max_depth = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].is_leaf()) {
      depth[static_cast<std::size_t>(nodes[i].left)] = depth[i] + 1;
      depth[static_cast<std::size_t>(nodes[i].right)] = depth[i] + 1;
    }
    max_depth = std::max(max_depth, depth[i]);
  }
  return max_depth;
}

double TreeEnsemble::margin(std::span<const double> x) const {
  double sum = base;
  for (const auto& wt : trees) sum += wt.weight * wt.tree.predict(x);
  return sum;
}

double TreeEnsemble::probability(std::span<const double> x) const {
  const double m = margin(x);
  if (link == Link::kLogistic) return 1.0 / (1.0 + std::exp(-m));
  return std::clamp(m, 0.0, 1.0);
}

namespace {

/// A candidate split produced by the scan below.
struct Split {
  bool found = false;
  std::int32_t feature = -1;
  double threshold = 0.0;
  double score = 0.0;  // larger is better; comparable within one node only
};

/// Per-sample payload for split scanning: a feature value and two
/// accumulands. Classification uses (w0, w1) = weight by class; boosting
/// uses (g, h) = gradient, hessian.
struct Sample {
  double value;
  double a;
  double b;
};

/// Enumerates thresholds of one feature over the node's samples and returns
/// the best score according to `score_children(al, bl, nl, ar, br, nr)`
/// (nl/nr = sample counts). Handles the common few-distinct-values case
/// without sorting.
template <typename ScoreFn>
Split scan_feature(std::vector<Sample>& samples, std::int32_t feature,
                   std::size_t min_leaf, const ScoreFn& score_children) {
  Split best;
  best.feature = feature;

  // Fast path: collect up to kMaxBuckets distinct values.
  constexpr std::size_t kMaxBuckets = 24;
  double values[kMaxBuckets];
  double acc_a[kMaxBuckets];
  double acc_b[kMaxBuckets];
  std::size_t counts[kMaxBuckets];
  std::size_t buckets = 0;
  bool bucketed = true;
  for (const Sample& s : samples) {
    std::size_t slot = buckets;
    for (std::size_t i = 0; i < buckets; ++i) {
      if (values[i] == s.value) {
        slot = i;
        break;
      }
    }
    if (slot == buckets) {
      if (buckets == kMaxBuckets) {
        bucketed = false;
        break;
      }
      values[buckets] = s.value;
      acc_a[buckets] = 0.0;
      acc_b[buckets] = 0.0;
      counts[buckets] = 0;
      ++buckets;
    }
    acc_a[slot] += s.a;
    acc_b[slot] += s.b;
    counts[slot] += 1;
  }

  const auto consider = [&](double threshold, double al, double bl,
                            std::size_t nl, double ar, double br,
                            std::size_t nr) {
    if (nl < min_leaf || nr < min_leaf) return;
    const double score = score_children(al, bl, nl, ar, br, nr);
    if (!best.found || score > best.score) {
      best.found = true;
      best.threshold = threshold;
      best.score = score;
    }
  };

  if (bucketed) {
    if (buckets < 2) return best;
    // Order buckets by value (insertion sort on tiny arrays).
    std::size_t order[kMaxBuckets];
    std::iota(order, order + buckets, std::size_t{0});
    std::sort(order, order + buckets,
              [&](std::size_t x, std::size_t y) { return values[x] < values[y]; });
    double al = 0.0, bl = 0.0;
    std::size_t nl = 0;
    double ar = 0.0, br = 0.0;
    std::size_t nr = 0;
    for (std::size_t i = 0; i < buckets; ++i) {
      ar += acc_a[order[i]];
      br += acc_b[order[i]];
      nr += counts[order[i]];
    }
    for (std::size_t i = 0; i + 1 < buckets; ++i) {
      const std::size_t o = order[i];
      al += acc_a[o];
      bl += acc_b[o];
      nl += counts[o];
      ar -= acc_a[o];
      br -= acc_b[o];
      nr -= counts[o];
      const double threshold = 0.5 * (values[o] + values[order[i + 1]]);
      consider(threshold, al, bl, nl, ar, br, nr);
    }
    return best;
  }

  // General path: sort the node's samples by value and sweep.
  std::sort(samples.begin(), samples.end(),
            [](const Sample& x, const Sample& y) { return x.value < y.value; });
  double ar = 0.0, br = 0.0;
  for (const Sample& s : samples) {
    ar += s.a;
    br += s.b;
  }
  double al = 0.0, bl = 0.0;
  std::size_t nl = 0;
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    al += samples[i].a;
    bl += samples[i].b;
    ar -= samples[i].a;
    br -= samples[i].b;
    ++nl;
    if (samples[i].value == samples[i + 1].value) continue;
    const double threshold = 0.5 * (samples[i].value + samples[i + 1].value);
    consider(threshold, al, bl, nl, ar, br, samples.size() - nl);
  }
  return best;
}

/// Shared recursive builder. `payload(i)` yields the (a, b) accumulands of
/// dataset row i; `leaf_value(a, b)` and `score_children` specialize the
/// objective.
template <typename PayloadFn, typename LeafFn, typename ScoreFn>
class TreeBuilder {
 public:
  TreeBuilder(const Dataset& data, std::size_t max_depth, std::size_t min_leaf,
              double min_gain, std::size_t features_per_split,
              std::uint64_t seed, bool pure_is_leaf, PayloadFn payload,
              LeafFn leaf_value, ScoreFn score_children)
      : data_(data),
        max_depth_(max_depth),
        min_leaf_(min_leaf),
        min_gain_(min_gain),
        features_per_split_(features_per_split),
        rng_(seed),
        pure_is_leaf_(pure_is_leaf),
        payload_(payload),
        leaf_value_(leaf_value),
        score_children_(score_children) {
    feature_order_.resize(data.feature_count());
    std::iota(feature_order_.begin(), feature_order_.end(), 0);
  }

  Tree build(std::span<const std::size_t> indices) {
    Tree tree;
    indices_.assign(indices.begin(), indices.end());
    grow(tree, 0, indices_.size(), 0);
    return tree;
  }

 private:
  std::int32_t grow(Tree& tree, std::size_t begin, std::size_t end,
                    std::size_t depth) {
    const auto node_id = static_cast<std::int32_t>(tree.nodes.size());
    tree.nodes.emplace_back();

    double total_a = 0.0, total_b = 0.0, total_w = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto [a, b] = payload_(indices_[i]);
      total_a += a;
      total_b += b;
      total_w += data_.weight(indices_[i]);
    }
    tree.nodes[static_cast<std::size_t>(node_id)].cover = total_w;
    tree.nodes[static_cast<std::size_t>(node_id)].value =
        leaf_value_(total_a, total_b);

    const std::size_t count = end - begin;
    if (depth >= max_depth_ || count < 2 * min_leaf_ || count < 2) {
      return node_id;
    }
    // Pure nodes (all weight in one accumuland) cannot improve: stop. This
    // also lets zero-gain splits proceed on *mixed* nodes, which is what
    // makes XOR-style interactions learnable (the gain appears one level
    // down).
    if (total_a == 0.0 || total_b == 0.0) {
      if (pure_is_leaf_) return node_id;
    }
    // Score of keeping everything in one child == the unsplit node's score.
    const double parent_score =
        score_children_(total_a, total_b, count, 0.0, 0.0, 0);

    // Choose candidate features (all, or a random subset for forests).
    std::size_t candidates = feature_order_.size();
    if (features_per_split_ != 0 && features_per_split_ < candidates) {
      for (std::size_t i = 0; i < features_per_split_; ++i) {
        const std::size_t j = i + rng_.bounded(candidates - i);
        std::swap(feature_order_[i], feature_order_[j]);
      }
      candidates = features_per_split_;
    }

    Split best;
    std::vector<Sample> samples(count);
    for (std::size_t c = 0; c < candidates; ++c) {
      const std::int32_t feature = static_cast<std::int32_t>(feature_order_[c]);
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t row = indices_[i];
        const auto [a, b] = payload_(row);
        samples[i - begin] = {
            data_.row(row)[static_cast<std::size_t>(feature)], a, b};
      }
      Split split = scan_feature(samples, feature, min_leaf_, score_children_);
      if (split.found && (!best.found || split.score > best.score)) {
        best = split;
      }
    }

    if (!best.found || best.score - parent_score < min_gain_) {
      return node_id;
    }

    const std::size_t feature = static_cast<std::size_t>(best.feature);
    const double threshold = best.threshold;
    const auto middle = std::stable_partition(
        indices_.begin() + static_cast<std::ptrdiff_t>(begin),
        indices_.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t row) { return data_.row(row)[feature] <= threshold; });
    const auto mid =
        static_cast<std::size_t>(middle - indices_.begin());
    if (mid == begin || mid == end) return node_id;  // degenerate numeric tie

    const std::int32_t left = grow(tree, begin, mid, depth + 1);
    const std::int32_t right = grow(tree, mid, end, depth + 1);
    TreeNode& node = tree.nodes[static_cast<std::size_t>(node_id)];
    node.feature = best.feature;
    node.threshold = threshold;
    node.left = left;
    node.right = right;
    return node_id;
  }

  const Dataset& data_;
  std::size_t max_depth_;
  std::size_t min_leaf_;
  double min_gain_;
  std::size_t features_per_split_;
  util::Xoshiro256 rng_;
  bool pure_is_leaf_;
  PayloadFn payload_;
  LeafFn leaf_value_;
  ScoreFn score_children_;
  std::vector<std::size_t> indices_;
  std::vector<std::size_t> feature_order_;
};

}  // namespace

Tree fit_classification_tree(const Dataset& data,
                             std::span<const std::size_t> indices,
                             const TreeConfig& config) {
  if (data.empty()) throw std::invalid_argument("fit tree: empty dataset");
  // Accumulands: a = weight of class 0, b = weight of class 1.
  const auto payload = [&](std::size_t row) {
    const double w = data.weight(row);
    return data.label(row) == 1 ? std::pair{0.0, w} : std::pair{w, 0.0};
  };
  const auto leaf_value = [](double w0, double w1) {
    const double total = w0 + w1;
    return total <= 0.0 ? 0.5 : w1 / total;
  };
  // Maximize sum of (w0^2 + w1^2)/w per child, which is equivalent to
  // minimizing weighted Gini impurity.
  const auto score = [](double al, double bl, std::size_t nl, double ar,
                        double br, std::size_t nr) {
    (void)nl;
    (void)nr;
    const double wl = al + bl;
    const double wr = ar + br;
    double s = 0.0;
    if (wl > 0.0) s += (al * al + bl * bl) / wl;
    if (wr > 0.0) s += (ar * ar + br * br) / wr;
    return s;
  };
  TreeBuilder builder(data, config.max_depth, config.min_samples_leaf,
                      config.min_impurity_decrease, config.features_per_split,
                      config.seed, /*pure_is_leaf=*/true, payload, leaf_value,
                      score);
  return builder.build(indices);
}

Tree fit_boost_tree(const Dataset& data, std::span<const double> gradients,
                    std::span<const double> hessians,
                    const BoostTreeConfig& config) {
  if (data.empty()) throw std::invalid_argument("fit tree: empty dataset");
  if (gradients.size() != data.size() || hessians.size() != data.size()) {
    throw std::invalid_argument("fit_boost_tree: gradient size mismatch");
  }
  const double lambda = config.lambda;
  const auto payload = [&](std::size_t row) {
    return std::pair{gradients[row], hessians[row]};
  };
  const auto leaf_value = [lambda](double g, double h) {
    return -g / (h + lambda);
  };
  // XGBoost structure score: sum of G^2/(H + lambda) per child (the gain
  // comparison against the parent handles gamma via min_gain below).
  const auto score = [lambda](double gl, double hl, std::size_t nl, double gr,
                              double hr, std::size_t nr) {
    (void)nl;
    (void)nr;
    double s = 0.0;
    if (nl > 0 || gl != 0.0 || hl != 0.0) s += gl * gl / (hl + lambda);
    if (nr > 0 || gr != 0.0 || hr != 0.0) s += gr * gr / (hr + lambda);
    return s;
  };
  std::vector<std::size_t> indices(data.size());
  std::iota(indices.begin(), indices.end(), 0);
  TreeBuilder builder(data, config.max_depth, config.min_samples_leaf,
                      config.gamma, 0, /*seed=*/1, /*pure_is_leaf=*/false,
                      payload, leaf_value, score);
  return builder.build(indices);
}

}  // namespace polaris::ml
