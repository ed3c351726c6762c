#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <unordered_set>

#include "space/architecture.hpp"
#include "space/operator_space.hpp"
#include "space/search_space.hpp"
#include "util/rng.hpp"

namespace lightnas::space {
namespace {

TEST(OperatorSpace, CanonicalHasSevenOps) {
  const OperatorSpace& ops = OperatorSpace::canonical();
  EXPECT_EQ(ops.size(), 7u);  // |O| = 7 (Sec 3.1)
}

TEST(OperatorSpace, CanonicalOrderAndNames) {
  const OperatorSpace& ops = OperatorSpace::canonical();
  EXPECT_EQ(ops.name(0), "K3_E3");
  EXPECT_EQ(ops.name(1), "K3_E6");
  EXPECT_EQ(ops.name(2), "K5_E3");
  EXPECT_EQ(ops.name(3), "K5_E6");
  EXPECT_EQ(ops.name(4), "K7_E3");
  EXPECT_EQ(ops.name(5), "K7_E6");
  EXPECT_EQ(ops.name(6), "Skip");
}

TEST(OperatorSpace, LookupsAreConsistent) {
  const OperatorSpace& ops = OperatorSpace::canonical();
  EXPECT_EQ(ops.skip_index(), 6u);
  EXPECT_EQ(ops.mbconv_index(5, 6), 3u);
  EXPECT_EQ(ops.mbconv_index(9, 9), ops.size());  // absent
  for (std::size_t k = 0; k < ops.size(); ++k) {
    EXPECT_EQ(ops.index_of(ops.op(k)), k);
  }
}

TEST(SearchSpace, FbnetXavierStructure) {
  const SearchSpace space = SearchSpace::fbnet_xavier();
  EXPECT_EQ(space.num_layers(), 22u);          // L = 22
  EXPECT_EQ(space.num_ops(), 7u);              // K = 7
  EXPECT_EQ(space.num_searchable_layers(), 21u);
  EXPECT_FALSE(space.layers()[0].searchable);  // first layer fixed
  EXPECT_EQ(space.input_resolution(), 224u);
  // |A| = 7^21 ~ 5.6e17 => log10 ~ 17.75 (Sec 3.1)
  EXPECT_NEAR(space.space_size_log10(), 17.748, 0.01);
}

TEST(SearchSpace, StageChannelProgression) {
  const SearchSpace space = SearchSpace::fbnet_xavier();
  const std::size_t expected_channels[] = {16, 24, 32, 64, 112, 184, 352};
  for (const LayerSpec& layer : space.layers()) {
    EXPECT_EQ(layer.out_channels, expected_channels[layer.stage]);
  }
  // Resolution decreases monotonically through the stack.
  std::size_t prev = space.layers().front().in_resolution;
  for (const LayerSpec& layer : space.layers()) {
    EXPECT_LE(layer.in_resolution, prev);
    prev = layer.in_resolution;
  }
  // Stem halves 224 -> 112.
  EXPECT_EQ(space.layers().front().in_resolution, 112u);
}

TEST(SearchSpace, ScaledChannelsRoundToEight) {
  const SearchSpace space = SearchSpace::scaled(0.75, 192);
  for (const LayerSpec& layer : space.layers()) {
    EXPECT_EQ(layer.out_channels % 8, 0u);
    EXPECT_GE(layer.out_channels, 8u);
  }
  EXPECT_EQ(space.input_resolution(), 192u);
}

TEST(SearchSpace, RandomArchitectureIsValid) {
  const SearchSpace space = SearchSpace::fbnet_xavier();
  util::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const Architecture arch = space.random_architecture(rng);
    ASSERT_EQ(arch.num_layers(), space.num_layers());
    EXPECT_EQ(arch.op_at(0), 0u);  // fixed layer untouched
    for (std::size_t l = 0; l < arch.num_layers(); ++l) {
      ASSERT_LT(arch.op_at(l), space.num_ops());
    }
  }
}

TEST(SearchSpace, MutateChangesOnlySearchableLayers) {
  const SearchSpace space = SearchSpace::fbnet_xavier();
  util::Rng rng(6);
  const Architecture base = space.mobilenet_v2_like();
  for (int i = 0; i < 30; ++i) {
    const Architecture child = space.mutate(base, 3, rng);
    EXPECT_EQ(child.op_at(0), base.op_at(0));
  }
}

TEST(SearchSpace, CrossoverMixesParents) {
  const SearchSpace space = SearchSpace::fbnet_xavier();
  util::Rng rng(7);
  const Architecture a = space.uniform_architecture(0);
  const Architecture b = space.uniform_architecture(5);
  const Architecture child = space.crossover(a, b, rng);
  for (std::size_t l = 1; l < child.num_layers(); ++l) {
    EXPECT_TRUE(child.op_at(l) == 0u || child.op_at(l) == 5u);
  }
}

TEST(SearchSpace, MobilenetV2LikeIsUniformK3E6) {
  const SearchSpace space = SearchSpace::fbnet_xavier();
  const Architecture arch = space.mobilenet_v2_like();
  const std::size_t k3e6 = space.ops().mbconv_index(3, 6);
  for (std::size_t l = 1; l < arch.num_layers(); ++l) {
    EXPECT_EQ(arch.op_at(l), k3e6);
  }
}

TEST(Architecture, OneHotRoundTrip) {
  const SearchSpace space = SearchSpace::fbnet_xavier();
  util::Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    const Architecture arch = space.random_architecture(rng);
    const std::vector<float> enc = arch.encode_one_hot(space.num_ops());
    EXPECT_EQ(enc.size(), space.num_layers() * space.num_ops());
    float total = 0.0f;
    for (float v : enc) total += v;
    EXPECT_FLOAT_EQ(total, static_cast<float>(space.num_layers()));
    const Architecture decoded = Architecture::decode_one_hot(
        enc, space.num_layers(), space.num_ops());
    EXPECT_EQ(decoded.ops(), arch.ops());
  }
}

// Regression: the range check was an assert, so in Release an op of
// num_ops in the last layer (`lightnas predict --arch ...,7`) wrote past
// the encoding and one in a middle layer set the next layer's slot.
TEST(Architecture, OneHotRejectsOutOfRangeOp) {
  EXPECT_THROW(Architecture({0, 1, 3}).encode_one_hot(3), std::out_of_range);
  EXPECT_THROW(Architecture({0, 3, 1}).encode_one_hot(3), std::out_of_range);
  EXPECT_EQ(Architecture({0, 2, 1}).encode_one_hot(3).size(), 9u);
}

// The in-place form predictors build their inputs with: it must write
// exactly encode_one_hot's floats over whatever the row held, and throw
// before touching the row when an op is out of range.
TEST(Architecture, OneHotIntoMatchesEncodeAndOverwritesRow) {
  const SearchSpace space = SearchSpace::fbnet_xavier();
  util::Rng rng(12);
  const std::size_t width = space.num_layers() * space.num_ops();
  std::vector<float> row(width + 1, 7.0f);  // one guard float past the row
  for (int i = 0; i < 20; ++i) {
    const Architecture arch = space.random_architecture(rng);
    arch.encode_one_hot_into(space.num_ops(), row.data());
    EXPECT_EQ(std::vector<float>(row.begin(), row.end() - 1),
              arch.encode_one_hot(space.num_ops()));
    EXPECT_EQ(row.back(), 7.0f);
  }

  std::vector<float> small(9, 7.0f);
  EXPECT_THROW(Architecture({0, 1, 3}).encode_one_hot_into(3, small.data()),
               std::out_of_range);
  EXPECT_EQ(small, std::vector<float>(9, 7.0f));
}

TEST(Architecture, SerializeRoundTrip) {
  const SearchSpace space = SearchSpace::fbnet_xavier();
  util::Rng rng(9);
  Architecture arch = space.random_architecture(rng);
  arch.set_with_se(true);
  const Architecture restored = Architecture::deserialize(arch.serialize());
  EXPECT_EQ(restored, arch);
}

// Ops are stored one byte each; a wider index must fail loudly wherever
// it enters instead of wrapping to another op (256 -> 0, 263 -> 7).
TEST(Architecture, RejectsOpsWiderThanOneByte) {
  EXPECT_THROW(Architecture({0, 256}), std::out_of_range);
  try {
    Architecture({0, 1, 263});
    FAIL() << "op 263 was accepted";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(),
                 "layer 2 has op 263, but an op index is at most 255");
  }
  Architecture arch({0, 1, 2});
  EXPECT_THROW(arch.set_op(1, 256), std::out_of_range);
  EXPECT_EQ(arch, Architecture({0, 1, 2}));
  EXPECT_THROW(Architecture::deserialize("0,256,2"), std::out_of_range);
  EXPECT_THROW(Architecture::deserialize("0,99999999999999999999999,2"),
               std::out_of_range);
  EXPECT_THROW(Architecture::deserialize("0,-1,2"), std::out_of_range);
  EXPECT_THROW(Architecture::deserialize("0,x,2"), std::invalid_argument);
}

TEST(Architecture, EveryByteOpRoundTrips) {
  std::vector<std::size_t> ops(Architecture::kMaxOp + 1);
  for (std::size_t l = 0; l < ops.size(); ++l) ops[l] = l;
  Architecture arch(ops);
  EXPECT_EQ(arch.ops(), ops);
  EXPECT_EQ(arch.op_at(255), 255u);
  arch.set_with_se(true);
  const std::string text = arch.serialize();
  EXPECT_EQ(text.substr(text.size() - 11), ",254,255:se");
  const Architecture restored = Architecture::deserialize(text);
  EXPECT_EQ(restored, arch);
  EXPECT_EQ(restored.fingerprint(), arch.fingerprint());
  arch.set_op(0, 255);
  EXPECT_EQ(arch.op_at(0), 255u);
}

TEST(Architecture, EffectiveDepthCountsNonSkip) {
  const SearchSpace space = SearchSpace::fbnet_xavier();
  Architecture arch = space.uniform_architecture(space.ops().skip_index());
  EXPECT_EQ(arch.effective_depth(space), 1u);  // only the fixed layer
  arch.set_op(5, 0);
  EXPECT_EQ(arch.effective_depth(space), 2u);
}

TEST(Architecture, ToStringAndDiagramMentionOps) {
  const SearchSpace space = SearchSpace::fbnet_xavier();
  const Architecture arch = space.mobilenet_v2_like();
  EXPECT_NE(arch.to_string(space).find("K3_E6"), std::string::npos);
  const std::string diagram = arch.to_diagram(space);
  EXPECT_NE(diagram.find("stage 0"), std::string::npos);
  EXPECT_NE(diagram.find("stage 6"), std::string::npos);
}

TEST(ArchitectureFingerprint, StableAcrossRunsAndPlatforms) {
  // Golden values pin the byte-level definition: any change to the
  // mixing chain silently invalidates serving caches and on-disk keys,
  // so it must show up here as a failure.
  Architecture arch({0, 1, 2, 3, 4, 5, 6});
  EXPECT_EQ(arch.fingerprint(), 0xb2fecf5fe4844ef0ULL);
  arch.set_with_se(true);
  EXPECT_EQ(arch.fingerprint(), 0x158457f4893d550fULL);
  EXPECT_EQ(Architecture().fingerprint(), 0x48218226ff3cd4bfULL);
}

TEST(ArchitectureFingerprint, EqualArchitecturesAgree) {
  const SearchSpace space = SearchSpace::fbnet_xavier();
  util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Architecture a = space.random_architecture(rng);
    const Architecture b(a.ops());
    ASSERT_EQ(a, b);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
  }
}

TEST(ArchitectureFingerprint, SensitiveToEveryField) {
  Architecture base({2, 2, 2, 2});
  const std::uint64_t fp = base.fingerprint();
  for (std::size_t l = 0; l < base.num_layers(); ++l) {
    Architecture mutated = base;
    mutated.set_op(l, 3);
    EXPECT_NE(mutated.fingerprint(), fp) << "layer " << l;
  }
  Architecture se = base;
  se.set_with_se(true);
  EXPECT_NE(se.fingerprint(), fp);
  // Prefix/padding: [2,2,2] vs [2,2,2,0] vs [2,2,2,2] all distinct.
  EXPECT_NE(Architecture({2, 2, 2}).fingerprint(),
            Architecture({2, 2, 2, 0}).fingerprint());
  EXPECT_NE(Architecture({2, 2, 2, 0}).fingerprint(), fp);
}

TEST(ArchitectureFingerprint, NoCollisionsOverRandomSample) {
  const SearchSpace space = SearchSpace::fbnet_xavier();
  util::Rng rng(11);
  std::unordered_set<Architecture> unique;
  std::set<std::uint64_t> fingerprints;
  while (unique.size() < 5000) {
    const Architecture arch = space.random_architecture(rng);
    if (unique.insert(arch).second) {
      fingerprints.insert(arch.fingerprint());
    }
  }
  // 5000 distinct architectures -> 5000 distinct 64-bit fingerprints
  // (a birthday collision here has probability ~7e-13).
  EXPECT_EQ(fingerprints.size(), unique.size());
}

TEST(ArchitectureFingerprint, StdHashUsableInUnorderedSet) {
  const SearchSpace space = SearchSpace::fbnet_xavier();
  util::Rng rng(12);
  std::unordered_set<Architecture> seen;
  std::vector<Architecture> inserted;
  for (int i = 0; i < 200; ++i) {
    const Architecture arch = space.random_architecture(rng);
    if (seen.insert(arch).second) inserted.push_back(arch);
  }
  for (const Architecture& arch : inserted) {
    EXPECT_TRUE(seen.contains(arch));
  }
}

TEST(SearchSpace, DescribeMentionsSize) {
  const SearchSpace space = SearchSpace::fbnet_xavier();
  EXPECT_NE(space.describe().find("L=22"), std::string::npos);
}

}  // namespace
}  // namespace lightnas::space
