//===- tests/tracecache_test.cpp - Trace cache installation/replacement ---===//

#include "trace/TraceCache.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace jtc;

namespace {

class TraceCacheTest : public ::testing::Test {
protected:
  TraceCacheTest()
      : Graph(profConfig()),
        Cache(Graph, traceConfig(), [](BlockId) { return 4; }) {
    Graph.setSink(&Cache);
  }

  static ProfilerConfig profConfig() {
    ProfilerConfig C;
    C.StartStateDelay = 1;
    C.DecayInterval = 64;
    C.CompletionThreshold = 0.97;
    return C;
  }

  static TraceConfig traceConfig() {
    TraceConfig C;
    C.CompletionThreshold = 0.97;
    return C;
  }

  void feed(const std::vector<BlockId> &Pattern, unsigned Times) {
    for (unsigned I = 0; I < Times; ++I)
      for (BlockId B : Pattern)
        Graph.onBlockDispatch(B);
  }

  BranchCorrelationGraph Graph;
  TraceCache Cache;
};

} // namespace

TEST_F(TraceCacheTest, HotLoopProducesALiveTrace) {
  feed({1, 2, 3, 4}, 200);
  EXPECT_GT(Cache.numLiveTraces(), 0u);
  EXPECT_GT(Cache.stats().SignalsHandled, 0u);
  EXPECT_GT(Cache.stats().TracesConstructed, 0u);
}

TEST_F(TraceCacheTest, GenerationAdvancesOnEveryMutation) {
#ifdef NDEBUG
  GTEST_SKIP() << "the mutation generation is counted in checked builds only";
#endif
  EXPECT_EQ(Cache.generation(), 0u);
  feed({1, 2, 3, 4}, 200); // signals rebuild the trace table
  const uint64_t AfterSignals = Cache.generation();
  EXPECT_GE(AfterSignals, Cache.stats().SignalsHandled);
  const Trace &T = Cache.traces().front();
  // Lookups and reads leave it alone; execution bookkeeping advances it.
  (void)Cache.entryAt(T.Contexts[0]);
  (void)Cache.numLiveTraces();
  EXPECT_EQ(Cache.generation(), AfterSignals);
  Cache.recordExecution(T.Id, /*CompletedRun=*/true);
  EXPECT_EQ(Cache.generation(), AfterSignals + 1);
}

TEST_F(TraceCacheTest, EntryAtFindsTraceByEntryContext) {
  feed({1, 2, 3, 4}, 200);
  // Some rotation of the cycle is installed; find it via its entry node.
  const Trace *Found = nullptr;
  const BlockId Cycle[] = {1, 2, 3, 4};
  for (unsigned I = 0; I < 4 && !Found; ++I)
    Found = Cache.entryAt(Graph.findNode(Cycle[I], Cycle[(I + 1) % 4]));
  ASSERT_NE(Found, nullptr);
  EXPECT_TRUE(Found->Alive);
  EXPECT_GE(Found->Blocks.size(), 2u);
  EXPECT_EQ(Found->Blocks.size() * 4, Found->InstrCount)
      << "instruction count uses the supplied block-size callback";
}

TEST_F(TraceCacheTest, EntryAtMissReturnsNull) {
  feed({1, 2, 3, 4}, 200);
  EXPECT_EQ(Cache.entryAt(InvalidNodeId), nullptr);
  EXPECT_EQ(Cache.entryAt(static_cast<NodeId>(Graph.numNodes())), nullptr);
}

TEST_F(TraceCacheTest, TracesCarryTheNodesOfTheirBlockPairs) {
  feed({1, 2, 3, 4, 5}, 300);
  ASSERT_FALSE(Cache.traces().empty());
  for (const Trace &T : Cache.traces()) {
    ASSERT_EQ(T.Contexts.size(), T.Blocks.size());
    BlockId Prev = T.EntryFrom;
    for (size_t K = 0; K < T.Blocks.size(); ++K) {
      EXPECT_EQ(T.Contexts[K], Graph.findNode(Prev, T.Blocks[K]))
          << "trace " << T.Id << " context " << K;
      Prev = T.Blocks[K];
    }
  }
}

TEST_F(TraceCacheTest, IdenticalRebuildsAreReused) {
  feed({1, 2, 3, 4}, 200);
  NodeId N = Graph.findNode(1, 2);
  ASSERT_NE(N, InvalidNodeId);
  // Two identical rebuilds from the same changed node: the first may
  // construct its rotation, the second must hash-cons everything.
  Cache.onStateChange(N);
  uint64_t BuiltBefore = Cache.stats().TracesConstructed;
  Cache.onStateChange(N);
  EXPECT_EQ(Cache.stats().TracesConstructed, BuiltBefore)
      << "identical candidates must hash-cons, not duplicate";
  EXPECT_GT(Cache.stats().TracesReused, 0u);
}

TEST_F(TraceCacheTest, BehaviourChangeReplacesTraces) {
  // Phase 1: cycle through 3. Phase 2: same entry pair now goes to 5.
  feed({1, 2, 3}, 400);
  size_t LiveBefore = Cache.numLiveTraces();
  ASSERT_GT(LiveBefore, 0u);
  feed({1, 2, 5}, 800);
  EXPECT_GT(Cache.stats().TracesReplaced + Cache.stats().TracesInvalidated,
            0u);
  // A trace for the new behaviour exists and contains block 5.
  bool FoundNew = false;
  for (const Trace &T : Cache.traces()) {
    if (!T.Alive)
      continue;
    for (BlockId B : T.Blocks)
      FoundNew |= B == 5;
  }
  EXPECT_TRUE(FoundNew);
}

TEST_F(TraceCacheTest, CyclicFreshTraceRetiresInteriorFragment) {
  // Warm a partial structure first, then settle into a pure cycle, and
  // finally force one rebuild per cycle node -- the state right after a
  // region's rebuild must contain no trace keyed inside the fresh cyclic
  // trace (paper step 3 reconstructs all affected entries).
  feed({1, 2, 3, 9}, 100); // phase 1: the cycle detours through 9
  feed({1, 2, 3}, 1500);   // phase 2: a pure cycle
  Cache.onStateChange(Graph.findNode(1, 2));
  Cache.onStateChange(Graph.findNode(2, 3));
  Cache.onStateChange(Graph.findNode(3, 1));
  // Count live traces whose entry pair is interior to another live trace.
  const auto &All = Cache.traces();
  unsigned Shadowed = 0;
  for (const Trace &A : All) {
    if (!A.Alive)
      continue;
    for (const Trace &B : All) {
      if (!B.Alive || A.Id == B.Id || B.EntryFrom != B.Blocks.back())
        continue;
      for (size_t I = 0; I + 1 < B.Blocks.size(); ++I)
        if (B.Blocks[I] == A.EntryFrom && B.Blocks[I + 1] == A.Blocks[0])
          ++Shadowed;
    }
  }
  EXPECT_EQ(Shadowed, 0u)
      << "no live trace may be keyed inside a live cyclic trace";
}

TEST_F(TraceCacheTest, StatsCountCandidates) {
  feed({1, 2, 3, 4, 5}, 300);
  const TraceCache::CacheStats &S = Cache.stats();
  EXPECT_GE(S.CandidatesSeen, S.TracesConstructed + S.TracesReused);
}

TEST_F(TraceCacheTest, DumpShowsLiveTraces) {
  feed({1, 2, 3, 4}, 200);
  std::ostringstream OS;
  Cache.dump(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("trace cache:"), std::string::npos);
  EXPECT_NE(Out.find("completion="), std::string::npos);
}

TEST_F(TraceCacheTest, NoSignalsNoTraces) {
  // Below the decay interval nothing is ever evaluated.
  feed({1, 2, 3, 4}, 10);
  EXPECT_EQ(Cache.numLiveTraces(), 0u);
  EXPECT_EQ(Cache.stats().SignalsHandled, 0u);
}
