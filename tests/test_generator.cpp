// Tests for the synthetic graph generators.
#include <gtest/gtest.h>
#include <malloc.h>

#include "common/error.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "graph/generator.hpp"
#include "runner/pool.hpp"
#include "support/graph_reference.hpp"
#include "support/rmat_reference.hpp"

// GCC pairs the inlined replacement operator new with std::free and reports a
// false mismatch; the replacement new below really does malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

// Live and peak heap bytes through operator new (this test is its own
// binary, so the override sees every allocation here).  Sizes are malloc's
// usable sizes, so an unsized delete subtracts what its new added.
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

void note_alloc(void* p) {
  if (p == nullptr) return;
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void note_free(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc{};
  note_alloc(p);
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms are replaced too: ASan routes them through their own
// entry points, and what they return is released by the delete below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size ? size : 1);
  note_alloc(p);
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace coolpim::graph {
namespace {

TEST(RmatTest, SizeMatchesParameters) {
  const CsrGraph g = make_rmat(12, 8, 7);
  EXPECT_EQ(g.num_vertices(), 1u << 12);
  EXPECT_EQ(g.num_edges(), static_cast<EdgeId>(8) << 12);
  EXPECT_TRUE(g.has_weights());
}

TEST(RmatTest, DeterministicForSeed) {
  const CsrGraph a = make_rmat(10, 4, 99);
  const CsrGraph b = make_rmat(10, 4, 99);
  EXPECT_EQ(a.col_idx(), b.col_idx());
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
}

TEST(RmatTest, SeedsProduceDifferentGraphs) {
  const CsrGraph a = make_rmat(10, 4, 1);
  const CsrGraph b = make_rmat(10, 4, 2);
  EXPECT_NE(a.col_idx(), b.col_idx());
}

TEST(RmatTest, SkewedDegreeDistribution) {
  // Power-law-ish: max degree far above the mean.
  const CsrGraph g = make_rmat(14, 16, 3);
  EXPECT_GT(g.max_degree(), static_cast<std::uint32_t>(10.0 * g.mean_degree()));
}

TEST(RmatTest, UnweightedOption) {
  RmatParams p;
  p.weighted = false;
  const CsrGraph g = make_rmat(8, 4, 5, p);
  EXPECT_FALSE(g.has_weights());
}

/// Expects make_rmat(8, 4, 5, p) to throw a ConfigError whose message
/// contains `field`.
void expect_rejected(const RmatParams& p, const std::string& field) {
  try {
    (void)make_rmat(8, 4, 5, p);
    ADD_FAILURE() << "accepted bad " << field;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string{e.what()}.find(field), std::string::npos) << e.what();
  }
}

TEST(RmatTest, InvalidProbabilitiesThrow) {
  RmatParams p;
  p.a = 0.8;
  p.b = 0.2;
  p.c = 0.2;  // a+b+c > 1
  EXPECT_THROW(make_rmat(8, 4, 5, p), ConfigError);
  EXPECT_THROW(make_rmat(0, 4, 5), ConfigError);

  // Each of a, b and c must be a finite probability, even when the sum
  // stays <= 1 (a negative one would wrap a quadrant threshold).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-0.1, 1.5, nan, inf, -inf}) {
    SCOPED_TRACE(bad);
    expect_rejected({.a = bad, .b = 0.6, .c = 0.3}, "rmat a");
    expect_rejected({.a = 0.3, .b = bad, .c = 0.3}, "rmat b");
    expect_rejected({.a = 0.3, .b = 0.3, .c = bad}, "rmat c");
  }
  // Probabilities at the ends of [0, 1] are fine.
  EXPECT_NO_THROW((void)make_rmat(8, 4, 5, {.a = 1.0, .b = 0.0, .c = 0.0}));
  EXPECT_NO_THROW((void)make_rmat(8, 4, 5, {.a = 0.0, .b = 0.0, .c = 0.0}));
}

TEST(RmatTest, ZeroMaxWeightThrowsOnlyWhenWeighted) {
  expect_rejected({.max_weight = 0}, "max_weight");
  const CsrGraph g = make_rmat(8, 4, 5, {.weighted = false, .max_weight = 0});
  EXPECT_FALSE(g.has_weights());
}

// The chunked, jump-ahead sampler against the sequential walk it replaced,
// bit for bit: fewer edges than one 2^16 chunk, exactly one chunk, several,
// and a count that is not a multiple of the chunk; every pool width.  The
// sampler walks four chunks per vector and splits the chunks into one group
// per pool participant, so the larger sizes give groups of more than one
// lane set, lane sets with idle lanes, and a short last chunk: 5 chunks
// (scale 16 x 5), 9 (scale 16 x 9) and 4.5 (scale 15 x 9).
TEST(RmatTest, ChunkedSamplingMatchesSequentialWalk) {
  std::vector<std::pair<unsigned, unsigned>> sizes;  // (scale, edge factor)
  for (const unsigned scale : {1u, 5u, 10u, 12u, 14u}) {
    for (const unsigned edge_factor : {0u, 1u, 5u, 16u}) sizes.emplace_back(scale, edge_factor);
  }
  sizes.insert(sizes.end(), {{16u, 5u}, {16u, 9u}, {15u, 9u}});
  runner::Pool pool1{1}, pool2{2}, pool3{3}, pool8{8};
  runner::Pool* const pools[] = {nullptr, &pool1, &pool2, &pool3, &pool8};
  for (const auto& [scale, edge_factor] : sizes) {
    for (const bool scramble : {true, false}) {
      for (const bool weighted : {true, false}) {
        for (const std::uint32_t max_weight : {64u, 10u}) {
          const RmatParams p{.scramble_ids = scramble, .weighted = weighted,
                             .max_weight = max_weight};
          const std::uint64_t seed = 100 + scale + edge_factor;
          const CsrGraph want = reference_rmat(scale, edge_factor, seed, p);
          for (runner::Pool* pool : pools) {
            SCOPED_TRACE(::testing::Message()
                         << "scale " << scale << " ef " << edge_factor << " scramble "
                         << scramble << " weighted " << weighted << " max_weight "
                         << max_weight << " jobs " << (pool ? pool->size() : 0));
            const CsrGraph got = make_rmat(scale, edge_factor, seed, p, pool);
            ASSERT_EQ(got.row_ptr(), want.row_ptr());
            ASSERT_EQ(got.col_idx(), want.col_idx());
            ASSERT_EQ(got.weights(), want.weights());
            ASSERT_EQ(got.degrees(), want.degrees());
          }
        }
      }
    }
  }
}

// Quadrant thresholds at the ends of [0, 2^53]: the vector sampler tests
// u >= lo through lo - 1, which wraps for lo = 0.
TEST(RmatTest, ExtremeQuadrantsMatchSequentialWalk) {
  runner::Pool pool{2};
  const RmatParams cases[] = {{.a = 1.0, .b = 0.0, .c = 0.0},
                              {.a = 0.0, .b = 0.0, .c = 0.0},
                              {.a = 0.0, .b = 1.0, .c = 0.0},
                              {.a = 0.0, .b = 0.0, .c = 1.0},
                              {.a = 0.0, .b = 0.5, .c = 0.5},
                              {.a = 0.25, .b = 0.25, .c = 0.25}};
  for (const RmatParams& p : cases) {
    SCOPED_TRACE(::testing::Message() << "a " << p.a << " b " << p.b << " c " << p.c);
    const CsrGraph want = reference_rmat(13, 9, 5, p);
    for (runner::Pool* with : {static_cast<runner::Pool*>(nullptr), &pool}) {
      const CsrGraph got = make_rmat(13, 9, 5, p, with);
      ASSERT_EQ(got.row_ptr(), want.row_ptr());
      ASSERT_EQ(got.col_idx(), want.col_idx());
      ASSERT_EQ(got.weights(), want.weights());
    }
  }
}

// make_rmat builds the CSR straight from its sampler: besides the finished
// graph it holds the ID scramble, one count table per group and a few MiB of
// sampler buffers, well under 4 bytes per edge at scale 18.  An edge list
// (8 bytes per edge) and a separate weight vector (4 more) would not fit.
TEST(RmatTest, BuildHoldsNoEdgeList) {
  runner::Pool pool{2};
  const std::int64_t before = g_live_bytes.load();
  g_peak_bytes.store(before);
  const CsrGraph g = make_rmat(18, 16, 7, {}, &pool);
  const std::int64_t peak = g_peak_bytes.load() - before;
  const auto graph_bytes = static_cast<std::int64_t>(
      g.structure_bytes() + g.degrees().size() * sizeof(std::uint32_t));
  const auto per_edge = static_cast<std::int64_t>(4 * g.num_edges());
  EXPECT_LT(peak, graph_bytes + per_edge)
      << "peak " << peak << " B, graph " << graph_bytes << " B, " << g.num_edges() << " edges";
  EXPECT_GT(peak, graph_bytes) << "the counter missed the graph's own arrays";
}

TEST(RmatTest, WeightsInRange) {
  RmatParams p;
  p.max_weight = 16;
  const CsrGraph g = make_rmat(10, 4, 9, p);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const auto w : g.edge_weights(v)) {
      EXPECT_GE(w, 1u);
      EXPECT_LE(w, 16u);
    }
  }
}

TEST(UniformTest, SizeAndSpread) {
  const CsrGraph g = make_uniform(1000, 8000, 4);
  EXPECT_EQ(g.num_vertices(), 1000u);
  EXPECT_EQ(g.num_edges(), 8000u);
  // Uniform graphs have a tight degree distribution compared to RMAT.
  EXPECT_LT(g.max_degree(), 40u);
}

TEST(GridTest, RegularDegrees) {
  const CsrGraph g = make_grid(8, 8);
  EXPECT_EQ(g.num_vertices(), 64u);
  EXPECT_EQ(g.num_edges(), 256u);  // 4 per vertex (torus)
  for (VertexId v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.out_degree(v), 4u);
}

TEST(GridTest, InvalidDimensionsThrow) {
  EXPECT_THROW(make_grid(0, 4), ConfigError);
}

TEST(LdbcLikeTest, EdgeFactorSixteen) {
  const CsrGraph g = make_ldbc_like(10, 1);
  EXPECT_EQ(g.num_vertices(), 1024u);
  EXPECT_EQ(g.num_edges(), 16u * 1024u);
  EXPECT_TRUE(g.has_weights());
}

// Property: vertex-ID scrambling spreads high-degree vertices across the ID
// space (no front-loading), checked via the hub position.
TEST(RmatTest, ScrambleSpreadsHubs) {
  const CsrGraph g = make_rmat(12, 8, 21);
  VertexId hub = 0;
  std::uint32_t best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > best) {
      best = g.out_degree(v);
      hub = v;
    }
  }
  // With scrambling the hub is almost surely not vertex 0.
  EXPECT_NE(hub, 0u);
}

}  // namespace
}  // namespace coolpim::graph
