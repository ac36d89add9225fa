#include "core/expand.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <set>

#include "core/acquire.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

std::unique_ptr<test_util::SyntheticTask> MakeFixture(size_t d) {
  SyntheticOptions options;
  options.d = d;
  options.rows = 500;
  return MakeSyntheticTask(options);
}

int64_t Sum(const GridCoord& c) {
  return std::accumulate(c.begin(), c.end(), int64_t{0});
}

int32_t Max(const GridCoord& c) {
  return *std::max_element(c.begin(), c.end());
}

// Drains up to `limit` coordinates of a d-dimensional space.
std::vector<GridCoord> Drain(QueryGenerator* gen, size_t d, size_t limit) {
  std::vector<GridCoord> out;
  for (auto& [coord, score] : test_util::DrainCoords(gen, d, limit)) {
    out.push_back(std::move(coord));
  }
  return out;
}

TEST(BfsGeneratorTest, StartsAtOriginWithScoreZero) {
  auto fixture = MakeFixture(3);
  RefinedSpace space(&fixture->task, 9.0, Norm::L1());
  BfsGenerator gen(&space);
  std::vector<int32_t> keys;
  double score = -1.0;
  ASSERT_TRUE(gen.NextLayer(&keys, &score));
  EXPECT_EQ(keys, GridCoord(3, 0));
  EXPECT_DOUBLE_EQ(score, 0.0);
}

TEST(BfsGeneratorTest, Theorem2LayerOrdering) {
  // All grid queries of layer k come out before any of layer k+1.
  auto fixture = MakeFixture(3);
  RefinedSpace space(&fixture->task, 9.0, Norm::L1());
  BfsGenerator gen(&space);
  int64_t last_layer = 0;
  for (const GridCoord& c : Drain(&gen, 3, 500)) {
    int64_t layer = Sum(c);
    EXPECT_GE(layer, last_layer);
    last_layer = layer;
  }
}

TEST(BfsGeneratorTest, NoDuplicatesAndCompleteLayers) {
  auto fixture = MakeFixture(2);
  RefinedSpace space(&fixture->task, 10.0, Norm::L1());
  BfsGenerator gen(&space);
  std::set<GridCoord> seen;
  std::vector<GridCoord> coords = Drain(&gen, 2, 200);
  for (const GridCoord& c : coords) {
    EXPECT_TRUE(seen.insert(c).second) << "duplicate coordinate";
  }
  // Layers 0..3 must be complete: layer k has k+1 coords in 2-D.
  for (int64_t k = 0; k <= 3; ++k) {
    int64_t count = std::count_if(coords.begin(), coords.end(),
                                  [&](const GridCoord& c) { return Sum(c) == k; });
    EXPECT_EQ(count, k + 1) << "layer " << k;
  }
}

TEST(BfsGeneratorTest, RespectsPerDimensionCaps) {
  auto fixture = MakeFixture(2);
  fixture->task.dims[0]->set_weight(1.0);
  // Cap dim 0 at a small refinement so only a few levels exist.
  auto* dim0 = dynamic_cast<NumericDim*>(fixture->task.dims[0].get());
  ASSERT_NE(dim0, nullptr);
  dim0->set_max_refinement(7.0);  // step 5 -> max level 2
  RefinedSpace space(&fixture->task, 10.0, Norm::L1());
  EXPECT_EQ(space.MaxLevel(0), 2);
  BfsGenerator gen(&space);
  for (const GridCoord& c : Drain(&gen, 2, 1000)) {
    EXPECT_LE(c[0], 2);
  }
}

TEST(BfsGeneratorTest, ExhaustsFiniteSpace) {
  auto fixture = MakeFixture(2);
  for (auto& dim : fixture->task.dims) {
    dynamic_cast<NumericDim*>(dim.get())->set_max_refinement(10.0);
  }
  RefinedSpace space(&fixture->task, 10.0, Norm::L1());
  // Max level 2 per dim -> 3x3 grid.
  BfsGenerator gen(&space);
  EXPECT_EQ(Drain(&gen, 2, 1000).size(), 9u);
}

TEST(ShellGeneratorTest, EnumeratesLInfShellsInOrder) {
  auto fixture = MakeFixture(3);
  RefinedSpace space(&fixture->task, 9.0, Norm::LInf());
  ShellGenerator gen(&space);
  int32_t last_shell = 0;
  for (const auto& [c, score] : test_util::DrainCoords(&gen, 3, 300)) {
    int32_t shell = Max(c);
    EXPECT_GE(shell, last_shell);
    EXPECT_DOUBLE_EQ(score, shell);
    last_shell = shell;
  }
}

TEST(ShellGeneratorTest, ShellsAreCompleteAndDuplicateFree) {
  auto fixture = MakeFixture(3);
  RefinedSpace space(&fixture->task, 9.0, Norm::LInf());
  ShellGenerator gen(&space);
  std::set<GridCoord> seen;
  std::vector<GridCoord> coords = Drain(&gen, 3, 600);
  for (const GridCoord& c : coords) {
    EXPECT_TRUE(seen.insert(c).second);
  }
  // Shell k in 3-D has (k+1)^3 - k^3 coordinates.
  for (int32_t k = 0; k <= 3; ++k) {
    int64_t count = std::count_if(coords.begin(), coords.end(),
                                  [&](const GridCoord& c) { return Max(c) == k; });
    int64_t expected = static_cast<int64_t>((k + 1)) * (k + 1) * (k + 1) -
                       static_cast<int64_t>(k) * k * k;
    EXPECT_EQ(count, expected) << "shell " << k;
  }
}

TEST(ShellGeneratorTest, RespectsCaps) {
  auto fixture = MakeFixture(2);
  dynamic_cast<NumericDim*>(fixture->task.dims[0].get())
      ->set_max_refinement(7.0);  // max level 2 at step 5
  RefinedSpace space(&fixture->task, 10.0, Norm::LInf());
  ShellGenerator gen(&space);
  for (const GridCoord& c : Drain(&gen, 2, 2000)) {
    EXPECT_LE(c[0], 2);
  }
}

TEST(BestFirstGeneratorTest, ScoresAreNondecreasingExactQScores) {
  auto fixture = MakeFixture(2);
  fixture->task.dims[0]->set_weight(2.0);  // skewed weights
  RefinedSpace space(&fixture->task, 10.0, Norm::L2());
  BestFirstGenerator gen(&space);
  double last = 0.0;
  for (const auto& [coord, score] : test_util::DrainCoords(&gen, 2, 100)) {
    EXPECT_GE(score + 1e-12, last);
    EXPECT_NEAR(score, space.QScoreOf(coord), 1e-12);
    last = score;
  }
}

TEST(BestFirstGeneratorTest, VisitsSameSetAsBfs) {
  auto fixture = MakeFixture(2);
  for (auto& dim : fixture->task.dims) {
    dynamic_cast<NumericDim*>(dim.get())->set_max_refinement(15.0);
  }
  RefinedSpace space(&fixture->task, 10.0, Norm::L1());
  BfsGenerator bfs(&space);
  BestFirstGenerator best(&space);
  auto a = Drain(&bfs, 2, 10000);
  auto b = Drain(&best, 2, 10000);
  std::set<GridCoord> sa(a.begin(), a.end());
  std::set<GridCoord> sb(b.begin(), b.end());
  EXPECT_EQ(sa, sb);
}

// --- Emission order ---------------------------------------------------------

// FNV-1a over raw bytes.
void Fnv1a(uint64_t* h, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

struct LayerDigest {
  uint64_t coords = 0;
  uint64_t layers = 0;
  uint64_t hash = 14695981039346656037ull;
};

// Whole equi-score layers until the generator is exhausted or `limit`
// coordinates were emitted: each layer's score, size and keys, hashed.
LayerDigest DigestLayers(QueryGenerator* gen, size_t d, uint64_t limit) {
  LayerDigest digest;
  std::vector<int32_t> keys;
  double score = 0.0;
  while (digest.coords < limit && gen->NextLayer(&keys, &score)) {
    const uint64_t size = keys.size() / d;
    Fnv1a(&digest.hash, &score, sizeof(score));
    Fnv1a(&digest.hash, &size, sizeof(size));
    Fnv1a(&digest.hash, keys.data(), keys.size() * sizeof(int32_t));
    digest.coords += size;
    ++digest.layers;
  }
  return digest;
}

// The coordinate sequence and its layer boundaries are what the kept-store
// replay, cell_queries and every served reply depend on; the batteries
// that feed one generator to both the driver and its oracle cannot see a
// reordering. These digests pin each generator's emission at d 1-5, with
// and without a capped dimension 0. They were taken from the
// one-coordinate-at-a-time generators that whole-layer emission replaced,
// grouped into layers by score as their driver did.
TEST(GeneratorOrderTest, MatchesParentSequence) {
  struct Case {
    const char* name;
    SearchOrder order;
    NormKind norm;
    bool weighted;
    std::array<LayerDigest, 10> want;  // d 1..5 uncapped, then capped
  };
  const Case cases[] = {
      {"bfs_l1", SearchOrder::kBfs, NormKind::kL1, false,
       {{{119, 119, 0xd68e1e007a1a03c3ull},
         {4005, 89, 0x9371b52680a5cd87ull},
         {4060, 28, 0xdb43689e33fff5bfull},
         {4845, 17, 0xed3234ac9b61e166ull},
         {4368, 12, 0x317adad294a21278ull},
         // capped
         {5, 5, 0xc97d0ad61c09fe45ull},
         {585, 121, 0x2af336c3c58ba89bull},
         {4105, 42, 0x0e4ac32529aebf6cull},
         {4165, 18, 0x2e18928e1d0bcbceull},
         {5396, 13, 0x00191cb989b728ceull}}}},
      {"shell_linf", SearchOrder::kShell, NormKind::kLInf, false,
       {{{119, 119, 0xd68e1e007a1a03c3ull},
         {4096, 64, 0xa9f22b9fec7fe7b0ull},
         {4096, 16, 0x7a532e82a57983f2ull},
         {4096, 8, 0x820e7a3d11f3f9afull},
         {7776, 6, 0x44366eeb472e39d5ull},
         // capped
         {5, 5, 0xc97d0ad61c09fe45ull},
         {585, 117, 0x077bd01ef216cabcull},
         {4205, 29, 0xa8f8117f3d6f8302ull},
         {5000, 10, 0x5c01ee2b15c28774ull},
         {6480, 6, 0xce1db25ca49ecf30ull}}}},
      {"best_first_l1", SearchOrder::kBestFirst, NormKind::kL1, false,
       {{{119, 119, 0xcfad8bc345f91f9bull},
         {4005, 89, 0x70bba110d4ca3d1aull},
         {4060, 28, 0xbc55d7ed1e737a0aull},
         {4845, 17, 0x9fa3d27aac030af7ull},
         {4368, 12, 0xca8995f5c073cbbdull},
         // capped
         {5, 5, 0x5b1a30ea938a16b4ull},
         {585, 240, 0x34198340068dfa3bull},
         {4105, 80, 0xe1a8a560e6679fc5ull},
         {4165, 32, 0xad624424d32268bdull},
         {4071, 21, 0x4e9dae1da0a0dc67ull}}}},
      {"best_first_weighted_l2", SearchOrder::kBestFirst, NormKind::kL2, true,
       {{{119, 119, 0xcfad8bc345f91f9bull},
         {4000, 2749, 0x049213a7a0d48778ull},
         {4009, 967, 0x940407473e8375c3ull},
         {4012, 703, 0x590da839b432d800ull},
         {4000, 410, 0x07015df84aaeb0a9ull},
         // capped
         {5, 5, 0x5b1a30ea938a16b4ull},
         {585, 583, 0xb78b43f1f9c73400ull},
         {4005, 2695, 0x271297aeae455c8cull},
         {4000, 1281, 0xde465b3b4a9d3bfeull},
         {4000, 627, 0xbf327f37b8fcbac8ull}}}},
  };
  constexpr uint64_t kLimit = 4000;
  for (const Case& c : cases) {
    for (size_t capped = 0; capped <= 1; ++capped) {
      for (size_t d = 1; d <= 5; ++d) {
        auto fixture = MakeFixture(d);
        if (capped) {
          dynamic_cast<NumericDim*>(fixture->task.dims[0].get())
              ->set_max_refinement(7.0);
        }
        if (c.weighted) {
          for (size_t i = 0; i < d; ++i) {
            fixture->task.dims[i]->set_weight(1.0 + 0.5 * i);
          }
        }
        AcquireOptions options;
        options.gamma = 2.0 * d;  // step 2: L1 scores of a layer tie exactly
        options.order = c.order;
        options.norm = c.norm == NormKind::kL1   ? Norm::L1()
                       : c.norm == NormKind::kL2 ? Norm::L2()
                                                 : Norm::LInf();
        RefinedSpace space(&fixture->task, options.gamma, options.norm);
        auto gen = MakeQueryGenerator(&space, options);
        const LayerDigest got = DigestLayers(gen.get(), d, kLimit);
        const LayerDigest& want = c.want[capped * 5 + d - 1];
        EXPECT_TRUE(got.coords == want.coords && got.layers == want.layers &&
                    got.hash == want.hash)
            << c.name << " d=" << d << (capped ? " capped" : "")
            << ": got {" << got.coords << ", " << got.layers << ", 0x"
            << std::hex << got.hash << "ull}";
      }
    }
  }
}

// --- Stop poll ---------------------------------------------------------------

// Drives `order` under `norm` over a d = 5 space until a layer exceeds 2048
// coordinates, applies `stop` to the run's context (if any), and returns
// the size of the second layer handed out after that (0 if none).
size_t SecondLayerAfterStop(SearchOrder order, const Norm& norm,
                            void (*stop)(RunContext*)) {
  constexpr size_t kD = 5;
  auto fixture = MakeFixture(kD);
  AcquireOptions options;
  options.gamma = 2.0 * kD;  // step 2: L1 scores of a layer tie exactly
  options.order = order;
  options.norm = norm;
  RefinedSpace space(&fixture->task, options.gamma, options.norm);
  RunContext ctx;
  auto gen = MakeQueryGenerator(&space, options, &ctx);
  std::vector<int32_t> keys;
  double score = 0.0;
  // Every order passes 2048 coordinates within 14 layers of this space; the
  // cap keeps a regression from draining all 36^5 coordinates instead.
  for (int layers = 0; keys.size() / kD <= 2048; ++layers) {
    if (layers == 32 || !gen->NextLayer(&keys, &score)) return 0;
  }
  if (stop != nullptr) stop(&ctx);
  for (int call = 0; call < 2; ++call) {
    if (!gen->NextLayer(&keys, &score)) return 0;
  }
  return keys.size() / kD;
}

void Cancel(RunContext* ctx) { ctx->RequestCancel(); }
void ExhaustBudget(RunContext* ctx) { ctx->budget().MarkExhausted(); }

// Generation polls the run's context once per 256 coordinates, so a stopped
// run is not stuck building a layer of thousands. BFS cuts the layer it
// expands into, which the call after next hands out. The cut layer is not
// empty either, so the stop does not pass for an exhausted space.
void ExpectStopCutsLayers(SearchOrder order, const Norm& norm,
                          void (*stop)(RunContext*)) {
  const size_t unstopped = SecondLayerAfterStop(order, norm, nullptr);
  const size_t stopped = SecondLayerAfterStop(order, norm, stop);
  EXPECT_GT(unstopped, 2048u);
  EXPECT_LE(stopped, 256u * 5);
  EXPECT_GT(stopped, 0u);
}

TEST(BfsGeneratorTest, CancelCutsLayerWithinPollStride) {
  ExpectStopCutsLayers(SearchOrder::kBfs, Norm::L1(), Cancel);
}

TEST(BfsGeneratorTest, ExhaustedBudgetCutsLayerWithinPollStride) {
  ExpectStopCutsLayers(SearchOrder::kBfs, Norm::L1(), ExhaustBudget);
}

TEST(ShellGeneratorTest, CancelCutsLayerWithinPollStride) {
  ExpectStopCutsLayers(SearchOrder::kShell, Norm::LInf(), Cancel);
}

TEST(ShellGeneratorTest, ExhaustedBudgetCutsLayerWithinPollStride) {
  ExpectStopCutsLayers(SearchOrder::kShell, Norm::LInf(), ExhaustBudget);
}

// Under L1 best-first layers tie whole BFS planes, so they reach thousands.
TEST(BestFirstGeneratorTest, CancelCutsLayerWithinPollStride) {
  ExpectStopCutsLayers(SearchOrder::kBestFirst, Norm::L1(), Cancel);
}

TEST(BestFirstGeneratorTest, ExhaustedBudgetCutsLayerWithinPollStride) {
  ExpectStopCutsLayers(SearchOrder::kBestFirst, Norm::L1(), ExhaustBudget);
}

}  // namespace
}  // namespace acquire
