// Unit tests for topology builders and graph utilities.
#include "net/topology.h"

#include <gtest/gtest.h>

#include <set>

namespace abe {
namespace {

TEST(Topology, UnidirectionalRingShape) {
  const Topology t = unidirectional_ring(5);
  EXPECT_EQ(t.n, 5u);
  EXPECT_EQ(t.edge_count(), 5u);
  const auto out = out_adjacency(t);
  const auto in = in_adjacency(t);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(out[i].size(), 1u);
    ASSERT_EQ(in[i].size(), 1u);
    EXPECT_EQ(t.edges[out[i][0]].to, (i + 1) % 5);
  }
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 4u);
}

TEST(Topology, SingleNodeRingHasNoEdges) {
  const Topology t = unidirectional_ring(1);
  EXPECT_EQ(t.n, 1u);
  EXPECT_EQ(t.edge_count(), 0u);
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 0u);
}

TEST(Topology, TwoNodeRing) {
  const Topology t = unidirectional_ring(2);
  EXPECT_EQ(t.edge_count(), 2u);
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 1u);
}

TEST(Topology, BidirectionalRingShape) {
  const Topology t = bidirectional_ring(6);
  EXPECT_EQ(t.edge_count(), 12u);
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 3u);
}

TEST(Topology, LineShapeAndDiameter) {
  const Topology t = line(7);
  EXPECT_EQ(t.edge_count(), 12u);  // 6 hops * 2 directions
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 6u);
}

TEST(Topology, StarShape) {
  const Topology t = star(9);
  EXPECT_EQ(t.edge_count(), 16u);
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 2u);
  const auto out = out_adjacency(t);
  EXPECT_EQ(out[0].size(), 8u);  // hub
  EXPECT_EQ(out[3].size(), 1u);  // spoke
}

TEST(Topology, CompleteShape) {
  const Topology t = complete(5);
  EXPECT_EQ(t.edge_count(), 20u);
  EXPECT_EQ(diameter(t), 1u);
}

TEST(Topology, GridShape) {
  const Topology t = grid(3, 4);
  EXPECT_EQ(t.n, 12u);
  // Horizontal: 3 rows * 3 hops * 2; vertical: 2 * 4 * 2.
  EXPECT_EQ(t.edge_count(), 34u);
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 5u);  // (3-1) + (4-1)
}

TEST(Topology, TorusShapeAndDiameter) {
  const Topology t = torus(4, 4);
  EXPECT_EQ(t.n, 16u);
  EXPECT_EQ(t.edge_count(), 64u);  // 2*n edges, both directions
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 4u);  // wraparound halves distances
}

TEST(Topology, TorusTwoByTwoDeduplicates) {
  const Topology t = torus(2, 2);
  EXPECT_TRUE(is_strongly_connected(t));
  // Each node has exactly 2 distinct neighbours; duplicate wrap edges were
  // dropped rather than doubled.
  const auto out = out_adjacency(t);
  for (std::size_t i = 0; i < t.n; ++i) {
    EXPECT_EQ(out[i].size(), 2u);
  }
}

TEST(Topology, HypercubeShape) {
  const Topology t = hypercube(4);
  EXPECT_EQ(t.n, 16u);
  EXPECT_EQ(t.edge_count(), 64u);  // n * dim
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 4u);
}

TEST(Topology, HypercubeDimZeroIsSingleton) {
  const Topology t = hypercube(0);
  EXPECT_EQ(t.n, 1u);
  EXPECT_EQ(t.edge_count(), 0u);
}

// FNV-1a digest of an edge list: stable fingerprint for the cross-platform
// determinism properties below (the Rng is our own xoshiro — bit-identical
// everywhere — so a fixed seed must give a fixed graph on every platform).
std::uint64_t edge_digest(const Topology& t) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(t.n);
  for (const Edge& e : t.edges) {
    mix(e.from);
    mix(e.to);
  }
  return h;
}

// Property: every random topology is strongly connected and deterministic
// for a fixed Rng seed — including the tiny-n corners, where the documented
// clamps (p := 1 for n <= 2; radius grown to √2 coverage) guarantee
// termination.
TEST(TopologyProperty, RandomConnectedAlwaysConnectedDeterministicTinyN) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 12u, 30u}) {
    for (double p : {0.0, 0.05, 0.5}) {
      for (std::uint64_t seed : {1u, 7u, 42u}) {
        Rng rng_a(seed);
        Rng rng_b(seed);
        const Topology a = random_connected(n, p, rng_a);
        const Topology b = random_connected(n, p, rng_b);
        ASSERT_TRUE(is_strongly_connected(a))
            << "n=" << n << " p=" << p << " seed=" << seed;
        EXPECT_EQ(edge_digest(a), edge_digest(b));
        validate_topology(a);
      }
    }
  }
}

TEST(TopologyProperty, RandomGeometricAlwaysConnectedDeterministicTinyN) {
  for (std::size_t n : {1u, 2u, 3u, 9u, 36u}) {
    // 5.0 exercises the documented clamp to √2; 1e-3 the growth loop.
    for (double radius : {1e-3, 0.25, 5.0}) {
      for (std::uint64_t seed : {1u, 7u, 42u}) {
        Rng rng_a(seed);
        Rng rng_b(seed);
        std::vector<double> pos;
        const Topology a = random_geometric(n, radius, rng_a, &pos);
        const Topology b = random_geometric(n, radius, rng_b);
        ASSERT_TRUE(is_strongly_connected(a))
            << "n=" << n << " radius=" << radius << " seed=" << seed;
        EXPECT_EQ(edge_digest(a), edge_digest(b));
        EXPECT_EQ(pos.size(), 2 * n);
        validate_topology(a);
      }
    }
  }
}

// Golden fingerprints: lock the exact graphs a fixed seed produces, so a
// platform or toolchain whose draws diverge fails loudly here instead of
// silently skewing every scenario sweep. Values recorded from the xoshiro
// Rng's defined output — they must never change.
TEST(TopologyProperty, FixedSeedGoldenDigests) {
  Rng rng_gnp(99);
  EXPECT_EQ(edge_digest(random_connected(12, 0.2, rng_gnp)),
            0x36a5a9958a489d91ull);
  Rng rng_geo(99);
  EXPECT_EQ(edge_digest(random_geometric(12, 0.35, rng_geo)),
            0xd323590796fce3f7ull);
}

TEST(Topology, RandomConnectedTinyNClampsToCompleteGraph) {
  Rng rng(3);
  // n <= 2 clamps p to 1: the graph exists on the first attempt even with
  // p = 0, and for n = 2 it is exactly the 2-cycle.
  const Topology one = random_connected(1, 0.0, rng);
  EXPECT_EQ(one.edge_count(), 0u);
  const Topology two = random_connected(2, 0.0, rng);
  EXPECT_EQ(two.edge_count(), 2u);
  EXPECT_TRUE(is_strongly_connected(two));
}

TEST(Topology, RandomGeometricHugeRadiusClampsToComplete) {
  Rng rng(5);
  // radius > √2 covers the whole unit square: every pair is connected.
  const Topology t = random_geometric(6, 100.0, rng);
  EXPECT_EQ(t.edge_count(), 6u * 5u);
  EXPECT_EQ(diameter(t), 1u);
}

TEST(Topology, RandomConnectedIsConnectedAndDeterministic) {
  Rng rng1(42);
  Rng rng2(42);
  const Topology a = random_connected(20, 0.15, rng1);
  const Topology b = random_connected(20, 0.15, rng2);
  EXPECT_TRUE(is_strongly_connected(a));
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t i = 0; i < a.edge_count(); ++i) {
    EXPECT_EQ(a.edges[i].from, b.edges[i].from);
    EXPECT_EQ(a.edges[i].to, b.edges[i].to);
  }
}

TEST(Topology, RandomConnectedSparseStillTerminates) {
  Rng rng(7);
  const Topology t = random_connected(30, 0.01, rng);
  EXPECT_TRUE(is_strongly_connected(t));
}

TEST(Topology, DisconnectedGraphDetected) {
  Topology t;
  t.n = 4;
  t.edges = {{0, 1}, {1, 0}, {2, 3}, {3, 2}};
  EXPECT_FALSE(is_strongly_connected(t));
}

TEST(Topology, OneWayPairNotStronglyConnected) {
  Topology t;
  t.n = 2;
  t.edges = {{0, 1}};
  EXPECT_FALSE(is_strongly_connected(t));
}

TEST(Topology, InIndexMappingConsistent) {
  const Topology t = grid(2, 3);
  const auto in = in_adjacency(t);
  const auto in_index = in_index_of_edge(t);
  std::set<std::size_t> all_edges;
  for (std::size_t v = 0; v < t.n; ++v) {
    for (std::size_t k = 0; k < in[v].size(); ++k) {
      const std::size_t e = in[v][k];
      EXPECT_EQ(t.edges[e].to, v);
      EXPECT_EQ(in_index[e], k) << "edge " << e;
      all_edges.insert(e);
    }
  }
  EXPECT_EQ(all_edges.size(), t.edge_count());
}

TEST(Topology, ValidateRejectsSelfLoop) {
  Topology t;
  t.n = 2;
  t.edges = {{0, 0}};
  EXPECT_DEATH(validate_topology(t), "self-loops");
}

TEST(Topology, ValidateRejectsOutOfRange) {
  Topology t;
  t.n = 2;
  t.edges = {{0, 5}};
  EXPECT_DEATH(validate_topology(t), "");
}

}  // namespace
}  // namespace abe
