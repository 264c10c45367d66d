//===- tests/tracebuilder_test.cpp - Trace construction pipeline ----------===//

#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace jtc;

namespace {

/// Test harness: a graph fed with synthetic block streams, warm enough
/// that every node of interest has been decayed (and thus evaluated) at
/// least once.
class TraceBuilderTest : public ::testing::Test {
protected:
  TraceBuilderTest() : Graph(makeConfig()) {}

  static ProfilerConfig makeConfig() {
    ProfilerConfig C;
    C.StartStateDelay = 1;
    C.DecayInterval = 64;
    C.CompletionThreshold = 0.97;
    return C;
  }

  void feed(const std::vector<BlockId> &Pattern, unsigned Times) {
    for (unsigned I = 0; I < Times; ++I)
      for (BlockId B : Pattern)
        Graph.onBlockDispatch(B);
  }

  TraceConfig traceConfig(double Threshold = 0.97) {
    TraceConfig C;
    C.CompletionThreshold = Threshold;
    return C;
  }

  NodeId node(BlockId X, BlockId Y) {
    NodeId N = Graph.findNode(X, Y);
    EXPECT_NE(N, InvalidNodeId) << "(" << X << "," << Y << ")";
    return N;
  }

  /// The blocks a candidate runs: the second block of each path node.
  std::vector<BlockId> blocks(const TraceCandidate &C) {
    std::vector<BlockId> Out;
    for (NodeId N : C.Contexts)
      Out.push_back(Graph.node(N).to());
    return Out;
  }

  BranchCorrelationGraph Graph;
};

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

TEST_F(TraceBuilderTest, EntryPointBacktracksStrongChain) {
  // Straight chain 1->2->3->4->5 repeated; entered from 0 occasionally so
  // the chain's head has a cold predecessor.
  feed({0, 1, 2, 3, 4, 5}, 200);
  TraceBuilder B(Graph, traceConfig());
  // A change at (3,4) should backtrack to the chain's start.
  std::vector<NodeId> Entries = B.findEntryPoints(node(3, 4));
  ASSERT_EQ(Entries.size(), 1u);
  // Everything is one cycle here (the pattern repeats), so backtracking
  // walks the whole loop; the entry is *some* node of the cycle.
  EXPECT_NE(std::find(Entries.begin(), Entries.end(), Entries[0]),
            Entries.end());
}

TEST_F(TraceBuilderTest, EntryPointStopsAtWeakPredecessor) {
  // (1,2) is weak (successor alternates 3/4); both (2,3) and (2,4) then
  // funnel into 5 -> 6.
  for (unsigned I = 0; I < 400; ++I) {
    Graph.onBlockDispatch(1);
    Graph.onBlockDispatch(2);
    Graph.onBlockDispatch(I % 2 ? 3 : 4);
    Graph.onBlockDispatch(5);
    Graph.onBlockDispatch(6);
  }
  TraceBuilder B(Graph, traceConfig());
  // Backtracking from (5,6): preds are (3,5) and (4,5), whose preds
  // (2,3)/(2,4) are unique (always -> 5), whose pred (1,2) is weak. So
  // the entries are the two post-branch nodes.
  std::vector<NodeId> Entries = B.findEntryPoints(node(5, 6));
  EXPECT_EQ(Entries.size(), 2u);
  for (NodeId E : Entries)
    EXPECT_EQ(Graph.node(E).from(), 2u)
        << "entries start right after the weak branch";
}

TEST_F(TraceBuilderTest, PureCycleFallsBackToChangedNode) {
  feed({1, 2, 3}, 300); // pure 3-cycle, all unique
  TraceBuilder B(Graph, traceConfig());
  NodeId Changed = node(2, 3);
  std::vector<NodeId> Entries = B.findEntryPoints(Changed);
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0], Changed);
}

//===----------------------------------------------------------------------===//
// Path walking
//===----------------------------------------------------------------------===//

TEST_F(TraceBuilderTest, WalkStopsAtWeakNode) {
  // Chain 1..5 then a coin flip at (4,5).
  for (unsigned I = 0; I < 400; ++I) {
    Graph.onBlockDispatch(1);
    Graph.onBlockDispatch(2);
    Graph.onBlockDispatch(3);
    Graph.onBlockDispatch(4);
    Graph.onBlockDispatch(5);
    Graph.onBlockDispatch(I % 2 ? 6 : 7);
  }
  TraceBuilder B(Graph, traceConfig());
  TraceBuilder::Path P = B.walkPath(node(1, 2));
  ASSERT_FALSE(P.Nodes.empty());
  EXPECT_FALSE(P.EndsInLoop);
  // Path: (1,2) (2,3) (3,4) (4,5) -- the weak node included, then stop.
  EXPECT_EQ(P.Nodes.back(), node(4, 5));
  EXPECT_EQ(P.Nodes.size(), 4u);
}

TEST_F(TraceBuilderTest, WalkDetectsLoop) {
  feed({1, 2, 3, 4}, 300); // pure cycle
  TraceBuilder B(Graph, traceConfig());
  TraceBuilder::Path P = B.walkPath(node(1, 2));
  EXPECT_TRUE(P.EndsInLoop);
  EXPECT_EQ(P.LoopStart, 0u) << "the walk returned to its starting node";
  EXPECT_EQ(P.Nodes.size(), 4u);
}

TEST_F(TraceBuilderTest, WalkBoundedByMaxPathNodes) {
  feed({1, 2, 3, 4}, 300);
  TraceConfig C = traceConfig();
  C.MaxPathNodes = 2;
  TraceBuilder B(Graph, C);
  TraceBuilder::Path P = B.walkPath(node(1, 2));
  EXPECT_LE(P.Nodes.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Cutting
//===----------------------------------------------------------------------===//

TEST_F(TraceBuilderTest, CutKeepsHighProbabilityChainWhole) {
  feed({1, 2, 3, 4, 5, 6}, 300);
  TraceBuilder B(Graph, traceConfig());
  TraceBuilder::Path P = B.walkPath(node(1, 2));
  std::vector<TraceCandidate> Cands = B.cut(P.Nodes);
  ASSERT_EQ(Cands.size(), 1u);
  EXPECT_GE(Cands[0].Contexts.size(), 2u);
  EXPECT_GE(Cands[0].Completion, 0.97);
  EXPECT_EQ(Cands[0].Contexts.front(), node(1, 2)) << "entered at (1 -> 2)";
  EXPECT_EQ(blocks(Cands[0]).front(), 2u);
}

TEST_F(TraceBuilderTest, CutSplitsAtLowProbabilityEdge) {
  // Build two strong runs joined by an 80% edge: 1..3 then mostly 4..6.
  for (unsigned I = 0; I < 500; ++I) {
    Graph.onBlockDispatch(1);
    Graph.onBlockDispatch(2);
    Graph.onBlockDispatch(3);
    if (I % 5 != 0) {
      Graph.onBlockDispatch(4);
      Graph.onBlockDispatch(5);
      Graph.onBlockDispatch(6);
    } else {
      Graph.onBlockDispatch(7);
    }
  }
  TraceBuilder B(Graph, traceConfig(0.97));
  // Hand the cutter the full chain across the 80% edge.
  std::vector<NodeId> Nodes = {node(1, 2), node(2, 3), node(3, 4), node(4, 5),
                               node(5, 6)};
  std::vector<TraceCandidate> Cands = B.cut(Nodes);
  ASSERT_EQ(Cands.size(), 2u) << "the 80% edge must split the trace";
  EXPECT_EQ(blocks(Cands[0]).back(), 3u);
  EXPECT_EQ(blocks(Cands[1]).front(), 4u);
  for (const TraceCandidate &C : Cands)
    EXPECT_GE(C.Completion, 0.97 - 1e-9);
}

TEST_F(TraceBuilderTest, CutRespectsMaxTraceBlocks) {
  feed({1, 2, 3, 4, 5, 6, 7, 8}, 300);
  TraceConfig C = traceConfig();
  C.MaxTraceBlocks = 3;
  TraceBuilder B(Graph, C);
  TraceBuilder::Path P = B.walkPath(node(1, 2));
  for (const TraceCandidate &Cand : B.cut(P.Nodes))
    EXPECT_LE(Cand.Contexts.size(), 3u);
}

TEST_F(TraceBuilderTest, CutDropsSingleBlockRemnants) {
  // A single weak node cannot anchor a >= 2 block trace.
  for (unsigned I = 0; I < 400; ++I) {
    Graph.onBlockDispatch(1);
    Graph.onBlockDispatch(2);
    Graph.onBlockDispatch(I % 2 ? 3 : 4);
  }
  TraceBuilder B(Graph, traceConfig());
  std::vector<TraceCandidate> Cands = B.cut({node(1, 2)});
  EXPECT_TRUE(Cands.empty());
}

TEST_F(TraceBuilderTest, CutOfEmptyPathIsEmpty) {
  TraceBuilder B(Graph, traceConfig());
  EXPECT_TRUE(B.cut({}).empty());
}

//===----------------------------------------------------------------------===//
// Full pipeline (build)
//===----------------------------------------------------------------------===//

TEST_F(TraceBuilderTest, BuildUnrollsLoopOnce) {
  feed({1, 2, 3, 4}, 500); // 4-cycle, all unique edges
  TraceBuilder B(Graph, traceConfig());
  TraceBuilder::BuildResult R = B.build(node(1, 2));
  ASSERT_FALSE(R.Candidates.empty());
  // The loop body has 4 blocks; unrolled once it yields 8.
  size_t Longest = 0;
  for (const TraceCandidate &C : R.Candidates)
    Longest = std::max(Longest, C.Contexts.size());
  EXPECT_EQ(Longest, 8u) << "loop body must be unrolled exactly once";
}

TEST_F(TraceBuilderTest, BuildVisitsEveryPathNode) {
  feed({1, 2, 3, 4, 5, 6}, 300);
  TraceBuilder B(Graph, traceConfig());
  TraceBuilder::BuildResult R = B.build(node(3, 4));
  EXPECT_FALSE(R.Visited.empty());
  // All visited nodes exist in the graph.
  for (NodeId N : R.Visited)
    EXPECT_LT(N, Graph.numNodes());
}

TEST_F(TraceBuilderTest, BuildFromColdNodeYieldsNothing) {
  // A pair observed once: hot (delay 1) but never evaluated (no decay),
  // so it cannot be extended and no >= 2 block trace exists.
  Graph.onBlockDispatch(1);
  Graph.onBlockDispatch(2);
  Graph.onBlockDispatch(3);
  TraceBuilder B(Graph, traceConfig());
  TraceBuilder::BuildResult R = B.build(node(1, 2));
  EXPECT_TRUE(R.Candidates.empty());
}

TEST_F(TraceBuilderTest, CandidatesNeverDipBelowThreshold) {
  // Parameter sweep: whatever the threshold, an installed candidate's
  // expected completion honours it.
  for (double T : {1.0, 0.99, 0.98, 0.97, 0.95}) {
    BranchCorrelationGraph G(makeConfig());
    for (unsigned I = 0; I < 2000; ++I) {
      G.onBlockDispatch(1);
      G.onBlockDispatch(2);
      G.onBlockDispatch(I % 50 == 0 ? 9 : 3);
      G.onBlockDispatch(1);
    }
    TraceBuilder B(G, traceConfig(T));
    NodeId N = G.findNode(1, 2);
    ASSERT_NE(N, InvalidNodeId);
    for (const TraceCandidate &C : B.build(N).Candidates)
      EXPECT_GE(C.Completion, T - 1e-9) << "threshold " << T;
  }
}
