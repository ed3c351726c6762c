#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "nn/data.hpp"

namespace lightnas::nn {
namespace {

Dataset tiny_dataset() {
  Dataset d;
  d.features = Tensor::from_rows(
      {{0.f, 1.f}, {2.f, 3.f}, {4.f, 5.f}, {6.f, 7.f}});
  d.labels = {0, 1, 0, 1};
  return d;
}

TEST(Dataset, GatherPicksRows) {
  const Dataset d = tiny_dataset();
  const Dataset g = d.gather({2, 0});
  EXPECT_EQ(g.size(), 2u);
  EXPECT_FLOAT_EQ(g.features.at(0, 0), 4.0f);
  EXPECT_EQ(g.labels[1], 0u);
}

TEST(Dataset, SplitPartitionsWithoutOverlap) {
  const Dataset d = tiny_dataset();
  util::Rng rng(3);
  const auto [a, b] = d.split(3, rng);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(b.size(), 1u);
  std::multiset<float> all;
  for (std::size_t i = 0; i < a.size(); ++i) all.insert(a.features.at(i, 0));
  for (std::size_t i = 0; i < b.size(); ++i) all.insert(b.features.at(i, 0));
  EXPECT_EQ(all, (std::multiset<float>{0.f, 2.f, 4.f, 6.f}));
}

TEST(Batcher, CoversEpochAndReshuffles) {
  const Dataset d = tiny_dataset();
  util::Rng rng(7);
  Batcher batcher(d, 2, rng);
  EXPECT_EQ(batcher.batches_per_epoch(), 2u);
  std::multiset<float> seen;
  for (int i = 0; i < 2; ++i) {
    const Dataset b = batcher.next();
    EXPECT_EQ(b.size(), 2u);
    seen.insert(b.features.at(0, 0));
    seen.insert(b.features.at(1, 0));
  }
  EXPECT_EQ(seen, (std::multiset<float>{0.f, 2.f, 4.f, 6.f}));
  // Next epoch keeps producing valid batches.
  EXPECT_EQ(batcher.next().size(), 2u);
}

// Regression: only the order's length was checked, so an entry >= n
// reached Dataset::gather, which reads out of bounds in Release.
TEST(Batcher, RestoreRejectsOrderThatIsNotAPermutation) {
  const Dataset d = tiny_dataset();
  util::Rng rng(7);
  Batcher batcher(d, 2, rng);
  EXPECT_NO_THROW(batcher.restore_state({{3, 1, 2, 0}, 2}));
  EXPECT_THROW(batcher.restore_state({{0, 1, 2, 4}, 0}),
               std::invalid_argument);
  EXPECT_THROW(batcher.restore_state({{0, 1, 1, 3}, 0}),
               std::invalid_argument);
  EXPECT_THROW(batcher.restore_state({{0, 1, 2}, 0}), std::invalid_argument);
  EXPECT_THROW(batcher.restore_state({{0, 1, 2, 3}, 5}),
               std::invalid_argument);
}

TEST(SyntheticTask, ShapesMatchConfig) {
  SyntheticTaskConfig config;
  config.train_size = 512;
  config.valid_size = 128;
  const SyntheticTask task = make_synthetic_task(config);
  EXPECT_EQ(task.train.size(), 512u);
  EXPECT_EQ(task.valid.size(), 128u);
  EXPECT_EQ(task.train.feature_dim(), config.feature_dim);
}

TEST(SyntheticTask, DeterministicForSeed) {
  SyntheticTaskConfig config;
  config.train_size = 64;
  config.valid_size = 32;
  const SyntheticTask a = make_synthetic_task(config);
  const SyntheticTask b = make_synthetic_task(config);
  EXPECT_EQ(a.train.labels, b.train.labels);
  for (std::size_t i = 0; i < a.train.features.size(); ++i) {
    EXPECT_FLOAT_EQ(a.train.features[i], b.train.features[i]);
  }
}

TEST(SyntheticTask, DifferentSeedsDiffer) {
  SyntheticTaskConfig a_cfg, b_cfg;
  a_cfg.train_size = b_cfg.train_size = 256;
  b_cfg.seed = 999;
  const SyntheticTask a = make_synthetic_task(a_cfg);
  const SyntheticTask b = make_synthetic_task(b_cfg);
  EXPECT_NE(a.train.labels, b.train.labels);
}

TEST(SyntheticTask, ClassesRoughlyBalanced) {
  SyntheticTaskConfig config;
  config.train_size = 8000;
  config.label_noise = 0.0;
  const SyntheticTask task = make_synthetic_task(config);
  std::vector<int> counts(config.num_classes, 0);
  for (std::size_t label : task.train.labels) ++counts[label];
  for (int c : counts) {
    // Voronoi cells of random centers are uneven, but round-robin class
    // assignment keeps every class well represented.
    EXPECT_GT(c, 300);
    EXPECT_LT(c, 1800);
  }
}

TEST(SyntheticTask, LabelsWithinRange) {
  SyntheticTaskConfig config;
  config.train_size = 500;
  const SyntheticTask task = make_synthetic_task(config);
  for (std::size_t label : task.train.labels) {
    EXPECT_LT(label, config.num_classes);
  }
}

TEST(SyntheticTask, LabelNoiseChangesSomeLabels) {
  SyntheticTaskConfig clean;
  clean.train_size = 4000;
  clean.label_noise = 0.0;
  SyntheticTaskConfig noisy = clean;
  noisy.label_noise = 0.3;
  const SyntheticTask a = make_synthetic_task(clean);
  const SyntheticTask b = make_synthetic_task(noisy);
  // Same seed, same features: count label differences. A 0.3 noise rate
  // flips ~0.3 * (C-1)/C of the labels... but noise also consumes RNG
  // draws, so just require a substantial fraction to differ.
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.train.labels.size(); ++i) {
    if (a.train.labels[i] != b.train.labels[i]) ++diff;
  }
  EXPECT_GT(diff, a.train.size() / 10);
}

}  // namespace
}  // namespace lightnas::nn
