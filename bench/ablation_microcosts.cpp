//===- bench/ablation_microcosts.cpp - Component micro-costs --------------===//
///
/// Google-benchmark micro-costs for the mechanisms whose relative weights
/// the paper argues about in section 5.4: the per-dispatch profiler hook
/// (inline-cache hit vs. list search), the periodic decay pass, trace
/// construction, and the trace-cache entry lookup. Expected shape
/// (paper): hook << decay pass << trace construction, with the hook cost
/// dominating overall because it runs every dispatch.
///
/// Two benchmarks see the graph's memory layout rather than its code:
/// BM_HookHitWorkingSet hits the inline cache of every context in a ring
/// of 1k, 8k or 64k contexts, so its cost grows with the bytes a hit
/// touches per context once the ring outgrows the caches;
/// BM_NodeCreation creates a fresh context on every hook (the pair
/// lookup, the node, its first correlation and predecessor link), which
/// is what short sessions mostly pay for.
///
/// Three benchmarks price a block inside a block-stepped trace run (Table
/// VII's question) on one recorded 17-block sequence of a branchy loop,
/// in ns per block: BM_BlocksFusedTraceRun runs it as one
/// BlockStepper::runTrace call; BM_BlocksSteppedWithCompare runs it as
/// one step() per block with the successor compare between them;
/// BM_BlocksHookedDispatch runs it as the profiled interpreter does, the
/// profiler hook before every step().
///
/// Two pairs price a frame op (a call or a return): a 100k-iteration
/// loop that calls a two-argument, six-local method, against the same
/// loop without the call, on the block executor
/// (BM_FrameOpsBlockExecutor) and as native trace runs
/// (BM_FrameOpsNative). A pair's difference over 200k frame ops is the
/// cost of one, the callee's three body instructions included.
///
//===----------------------------------------------------------------------===//

#include "backend/JitBackend.h"
#include "bytecode/Assembler.h"
#include "interp/BlockStepper.h"
#include "profile/BranchCorrelationGraph.h"
#include "trace/TraceCache.h"
#include "vm/TraceVM.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace jtc;

namespace {

ProfilerConfig profConfig(uint32_t DecayInterval = 256) {
  ProfilerConfig C;
  C.StartStateDelay = 1;
  C.DecayInterval = DecayInterval;
  C.CompletionThreshold = 0.97;
  return C;
}

/// Per-dispatch hook cost when the inline cache hits (the steady state
/// the paper's "two comparisons, two pointer evaluations, one assignment"
/// refers to).
void BM_HookInlineCacheHit(benchmark::State &State) {
  BranchCorrelationGraph G(profConfig(/*DecayInterval=*/1u << 30));
  G.onBlockDispatch(1);
  G.onBlockDispatch(2);
  BlockId Next = 1;
  for (auto _ : State) {
    G.onBlockDispatch(Next);
    Next = Next == 1 ? 2 : 1;
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()));
}
BENCHMARK(BM_HookInlineCacheHit);

/// Inline-cache hits over a ring of State.range(0) contexts: blocks
/// 0..N-1 run in a cycle, so each hook hits the cache of a different
/// node and the hot state of all N nodes is the working set.
void BM_HookHitWorkingSet(benchmark::State &State) {
  auto N = static_cast<BlockId>(State.range(0));
  BranchCorrelationGraph G(profConfig(/*DecayInterval=*/1u << 30));
  // Two laps create every node and resolve every correlation target.
  for (unsigned Lap = 0; Lap < 2; ++Lap)
    for (BlockId B = 0; B < N; ++B)
      G.onBlockDispatch(B);
  BlockId Next = 0;
  for (auto _ : State) {
    G.onBlockDispatch(Next);
    Next = Next + 1 == N ? 0 : Next + 1;
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()));
}
BENCHMARK(BM_HookHitWorkingSet)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16);

/// Every hook creates a context: a stream of distinct blocks makes each
/// pair new. A fresh graph per 4096 hooks bounds the memory; building
/// and freeing it is part of the measured cost.
void BM_NodeCreation(benchmark::State &State) {
  constexpr BlockId Hooks = 4096;
  for (auto _ : State) {
    BranchCorrelationGraph G(profConfig());
    for (BlockId B = 0; B < Hooks; ++B)
      G.onBlockDispatch(B);
    benchmark::DoNotOptimize(G.numNodes());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * Hooks);
}
BENCHMARK(BM_NodeCreation);

/// Hook cost when the prediction misses and the correlation list must be
/// searched (polymorphic sites). The fan-out is the parameter.
void BM_HookListSearch(benchmark::State &State) {
  auto Fanout = static_cast<BlockId>(State.range(0));
  BranchCorrelationGraph G(profConfig(/*DecayInterval=*/1u << 30));
  G.onBlockDispatch(1);
  BlockId Succ = 0;
  for (auto _ : State) {
    G.onBlockDispatch(2);
    G.onBlockDispatch(3 + (Succ++ % Fanout));
    G.onBlockDispatch(1);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) * 3);
}
BENCHMARK(BM_HookListSearch)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

/// Cost of one decay pass over a node (the periodic check the paper
/// estimates at ~25 dispatch costs).
void BM_DecayPass(benchmark::State &State) {
  BranchCorrelationGraph G(profConfig(/*DecayInterval=*/2));
  G.onBlockDispatch(1);
  G.onBlockDispatch(2);
  BlockId Next = 1;
  // Every second hook triggers a decay: the measured loop alternates
  // hook-only and hook+decay, so item throughput shows the blended cost.
  for (auto _ : State) {
    G.onBlockDispatch(Next);
    Next = Next == 1 ? 2 : 1;
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()));
}
BENCHMARK(BM_DecayPass);

/// Full trace construction from a signal over an 8-block loop.
void BM_TraceConstruction(benchmark::State &State) {
  BranchCorrelationGraph G(profConfig());
  for (unsigned I = 0; I < 2000; ++I)
    for (BlockId B = 1; B <= 8; ++B)
      G.onBlockDispatch(B);
  TraceConfig TC;
  TraceBuilder Builder(G, TC);
  NodeId Changed = G.findNode(1, 2);
  for (auto _ : State) {
    TraceBuilder::BuildResult R = Builder.build(Changed);
    benchmark::DoNotOptimize(R.Candidates.data());
  }
}
BENCHMARK(BM_TraceConstruction);

/// The per-dispatch trace-cache entry lookup on the node the profiler hook
/// resolved (hit and miss).
void BM_TraceEntryLookup(benchmark::State &State) {
  BranchCorrelationGraph G(profConfig());
  TraceCache Cache(G, TraceConfig());
  G.setSink(&Cache);
  for (unsigned I = 0; I < 2000; ++I)
    for (BlockId B = 1; B <= 8; ++B)
      G.onBlockDispatch(B);
  // A live trace's entry node, and a node no trace is entered at.
  NodeId HitNode = InvalidNodeId, MissNode = InvalidNodeId;
  for (NodeId N = 0; N < G.numNodes(); ++N)
    (Cache.entryAt(N) ? HitNode : MissNode) = N;
  if (HitNode == InvalidNodeId) {
    State.SkipWithError("no trace was built");
    return;
  }
  bool Hit = true;
  for (auto _ : State) {
    const Trace *T = Cache.entryAt(Hit ? HitNode : MissNode);
    benchmark::DoNotOptimize(T);
    Hit = !Hit;
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()));
}
BENCHMARK(BM_TraceEntryLookup);

/// An endless loop over i with two data-dependent branches, on i's low
/// two bits: four iterations make a 17-block sequence that repeats.
Module branchyLoop() {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Loop = B.newLabel(), Even = B.newLabel(), Join = B.newLabel(),
        Skip = B.newLabel();
  B.iconst(0);
  B.istore(0);
  B.bind(Loop);
  B.iload(0);
  B.iconst(1);
  B.emit(Opcode::Iand);
  B.branch(Opcode::IfEq, Even);
  B.iinc(1, 3);
  B.branch(Opcode::Goto, Join);
  B.bind(Even);
  B.iinc(1, 5);
  B.bind(Join);
  B.iload(0);
  B.iconst(3);
  B.emit(Opcode::Iand);
  B.branch(Opcode::IfNe, Skip);
  B.iload(1);
  B.iconst(7);
  B.emit(Opcode::Ixor);
  B.istore(1);
  B.bind(Skip);
  B.iinc(0, 1);
  B.branch(Opcode::Goto, Loop);
  B.finish();
  Asm.setEntry(Main);
  return Asm.build();
}

/// A stepper over branchyLoop() standing at the loop header with i = 0,
/// and the loop's four-iteration block sequence from there, which leaves
/// it at the header with i a multiple of four again.
struct LoopFixture {
  Module M = branchyLoop();
  PreparedModule PM{M};
  Machine Mach{M};
  BlockStepper Stepper{PM, Mach};
  std::vector<BlockId> Seq;

  LoopFixture() {
    Stepper.start();
    Stepper.step(); // the entry block: i = 0
    const BlockId Header = Stepper.currentBlock();
    for (unsigned Laps = 0; Laps < 4;) {
      Seq.push_back(Stepper.currentBlock());
      Stepper.step();
      Laps += Stepper.currentBlock() == Header;
    }
  }
};

void BM_BlocksFusedTraceRun(benchmark::State &State) {
  LoopFixture F;
  for (auto _ : State) {
    BlockStepper::TraceStep R = F.Stepper.runTrace(F.Seq, ~0ull);
    benchmark::DoNotOptimize(R);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(F.Seq.size()));
}
BENCHMARK(BM_BlocksFusedTraceRun);

void BM_BlocksSteppedWithCompare(benchmark::State &State) {
  LoopFixture F;
  for (auto _ : State) {
    for (size_t I = 1;; ++I) {
      F.Stepper.step();
      if (I == F.Seq.size() || F.Stepper.currentBlock() != F.Seq[I])
        break;
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(F.Seq.size()));
}
BENCHMARK(BM_BlocksSteppedWithCompare);

void BM_BlocksHookedDispatch(benchmark::State &State) {
  LoopFixture F;
  BranchCorrelationGraph G(profConfig(/*DecayInterval=*/1u << 30));
  for (auto _ : State) {
    for (size_t I = 0; I < F.Seq.size(); ++I) {
      G.onBlockDispatch(F.Stepper.currentBlock());
      F.Stepper.step();
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(F.Seq.size()));
}
BENCHMARK(BM_BlocksHookedDispatch);

/// main: N iterations of s = f(i, s), where f(a, b) has six locals and
/// returns a + b -- or, with \p WithCall false, the same loop with an
/// iadd in place of the call. The two differ by a call and a return (two
/// frame ops) and f's three body instructions per iteration.
Module callLoop(int32_t N, bool WithCall) {
  Assembler Asm;
  uint32_t F = Asm.declareMethod("f", 2, 6, true);
  {
    MethodBuilder B = Asm.beginMethod(F);
    B.iload(0);
    B.iload(1);
    B.emit(Opcode::Iadd);
    B.iret();
    B.finish();
  }
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Loop = B.newLabel(), Done = B.newLabel();
  B.bind(Loop);
  B.iload(0);
  B.iconst(N);
  B.branch(Opcode::IfIcmpGe, Done);
  B.iload(0);
  B.iload(1);
  if (WithCall)
    B.invokestatic(F);
  else
    B.emit(Opcode::Iadd);
  B.istore(1);
  B.iinc(0, 1);
  B.branch(Opcode::Goto, Loop);
  B.bind(Done);
  B.iload(1);
  B.emit(Opcode::Iprint);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  return Asm.build();
}

constexpr int32_t CallLoopTrip = 100000;

/// callLoop(State.range(0)) on the block executor, one plain run per
/// iteration: Machine::pushFrame/popFrame inline in the executor. The
/// per-frame-op cost is (time of /1 - time of /0) / (2 * 100000).
void BM_FrameOpsBlockExecutor(benchmark::State &State) {
  Module M = callLoop(CallLoopTrip, State.range(0) != 0);
  PreparedModule PM(M);
  for (auto _ : State) {
    Machine Mach(M);
    BlockStepper Stepper(PM, Mach);
    RunResult R = runBlocks(Stepper);
    benchmark::DoNotOptimize(R);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          CallLoopTrip);
}
BENCHMARK(BM_FrameOpsBlockExecutor)->Arg(0)->Arg(1);

/// The same loop as a jit-tier session over one module (its native code
/// compiled by the first session), promoting every trace at once: after
/// the first few blocks each iteration is one native run of the inline
/// call and return templates. Read as BM_FrameOpsBlockExecutor.
void BM_FrameOpsNative(benchmark::State &State) {
  if (!backend::jitSupportedHost()) {
    State.SkipWithError("no template-JIT support on this host");
    return;
  }
  Module M = callLoop(CallLoopTrip, State.range(0) != 0);
  PreparedModule PM(M);
  const VmOptions O =
      VmOptions().backend(backend::BackendKind::Jit).jitPromoteAfter(0);
  for (auto _ : State) {
    TraceVM VM(PM, O);
    RunResult R = VM.run();
    benchmark::DoNotOptimize(R);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          CallLoopTrip);
}
BENCHMARK(BM_FrameOpsNative)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
