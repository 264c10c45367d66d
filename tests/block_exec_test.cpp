//===- tests/block_exec_test.cpp - The block executor vs. the oracle ------===//
///
/// \file
/// The block executor (BlockStepper::step over PreparedModule's decoded
/// code) against the reference instruction interpreter (runInstructions
/// over Machine::execOne): same outcome, output, heap digest, instruction
/// count and block sequence on the checked-in corpus, 500 generated
/// programs and all six workloads; the fused trace run
/// (BlockStepper::runTrace) against block-by-block step() on every trace
/// the six workloads build, with budget cuts, traps and finishes inside a
/// run; plus the executor's edge contracts -- trap accounting, budget
/// granularity, frame budget and arena growth.
///
/// JTC_CORPUS_DIR is injected by the build (tests/CMakeLists.txt).
///
//===----------------------------------------------------------------------===//

#include "interp/BlockStepper.h"

#include "TestPrograms.h"
#include "bytecode/Verifier.h"
#include "interp/InstructionInterpreter.h"
#include "text/AsmParser.h"
#include "vm/TraceVM.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <span>
#include <string>
#include <vector>

using namespace jtc;

namespace {

constexpr uint64_t Budget = 50'000'000;

/// Everything the two engines must agree on. The block sequence is kept
/// as a count plus an order-sensitive FNV-1a hash.
struct Outcome {
  RunStatus Status = RunStatus::Finished;
  TrapKind Trap = TrapKind::None;
  uint64_t Instructions = 0;
  std::vector<int64_t> Output;
  uint64_t HeapDigest = 0;
  uint64_t Blocks = 0;
  uint64_t BlockHash = 14695981039346656037ull;

  void block(BlockId B) {
    ++Blocks;
    BlockHash = (BlockHash ^ B) * 1099511628211ull;
  }
};

/// The reference block sequence: a block is entered exactly when the
/// instruction interpreter fetches a block leader. Drives execOne the way
/// runInstructions does, recording leader fetches.
Outcome referenceBlocks(const PreparedModule &PM) {
  const Module &M = PM.module();
  std::vector<std::vector<BlockId>> Leader(M.Methods.size());
  for (uint32_t Mi = 0; Mi < M.Methods.size(); ++Mi)
    Leader[Mi].assign(M.Methods[Mi].Code.size(), InvalidBlockId);
  for (BlockId B = 0; B < PM.numBlocks(); ++B)
    Leader[PM.block(B).MethodId][PM.block(B).StartPc] = B;

  Outcome O;
  Machine Mach(M);
  Mach.start(M.EntryMethod);
  uint32_t Pc = 0;
  for (uint64_t N = 0; N < Budget; ++N) {
    if (BlockId B = Leader[Mach.currentMethodId()][Pc]; B != InvalidBlockId)
      O.block(B);
    Effect E = Mach.execOne(Mach.currentMethod().Code[Pc]);
    switch (E.Kind) {
    case EffectKind::Next:
      ++Pc;
      break;
    case EffectKind::Jump:
      Pc = E.Target;
      break;
    case EffectKind::Call:
      if (!Mach.pushFrame(E.Target, Pc + 1))
        return O;
      Pc = 0;
      break;
    case EffectKind::Ret: {
      Machine::PopInfo Info = Mach.popFrame(E.HasValue);
      if (Info.BottomFrame)
        return O;
      Pc = Info.ReturnPc;
      break;
    }
    case EffectKind::Halt:
    case EffectKind::Trap:
      return O;
    }
  }
  return O;
}

Outcome viaInstructions(const PreparedModule &PM) {
  Outcome O = referenceBlocks(PM);
  Machine Mach(PM.module());
  RunResult R = runInstructions(Mach, Budget);
  O.Status = R.Status;
  O.Trap = R.Trap;
  O.Instructions = R.Instructions;
  O.Output = Mach.output();
  O.HeapDigest = heapDigest(Mach.heap());
  return O;
}

Outcome viaBlocks(const PreparedModule &PM) {
  Outcome O;
  Machine Mach(PM.module());
  BlockStepper Stepper(PM, Mach);
  RunResult R =
      runBlocksWithHook(Stepper, [&O](BlockId B) { O.block(B); }, Budget);
  O.Status = R.Status;
  O.Trap = R.Trap;
  O.Instructions = R.Instructions;
  O.Output = Mach.output();
  O.HeapDigest = heapDigest(Mach.heap());
  return O;
}

void expectAgreement(const Module &M, const std::string &What) {
  SCOPED_TRACE(What);
  PreparedModule PM(M);
  Outcome Ref = viaInstructions(PM);
  ASSERT_NE(Ref.Status, RunStatus::BudgetExhausted) << "program too long";
  Outcome Got = viaBlocks(PM);
  EXPECT_EQ(Got.Status, Ref.Status);
  EXPECT_EQ(Got.Trap, Ref.Trap);
  EXPECT_EQ(Got.Instructions, Ref.Instructions);
  EXPECT_EQ(Got.Output, Ref.Output);
  EXPECT_EQ(Got.HeapDigest, Ref.HeapDigest);
  EXPECT_EQ(Got.Blocks, Ref.Blocks);
  EXPECT_EQ(Got.BlockHash, Ref.BlockHash);
}

/// main calls rec(Depth); rec(n) keeps Locals locals and pushes Extra
/// operands before recursing, so deep recursion outgrows both arenas'
/// initial capacity many times over. rec returns n + rec(n - 1) + the
/// extras' sum, which the oracle must reproduce exactly.
Module deepRecursion(int32_t Depth, uint32_t Locals, int32_t Extra) {
  Assembler Asm;
  uint32_t Rec = Asm.declareMethod("rec", 1, Locals, true);
  {
    MethodBuilder B = Asm.beginMethod(Rec);
    Label Base = B.newLabel();
    B.iload(0);
    B.branch(Opcode::IfLe, Base);
    for (int32_t I = 0; I < Extra; ++I)
      B.iconst(I);
    B.iload(0);
    B.iload(0);
    B.iconst(1);
    B.emit(Opcode::Isub);
    B.invokestatic(Rec);
    B.emit(Opcode::Iadd);
    for (int32_t I = 0; I < Extra; ++I)
      B.emit(Opcode::Iadd);
    B.istore(Locals - 1);
    B.iload(Locals - 1);
    B.iret();
    B.bind(Base);
    B.iconst(0);
    B.iret();
    B.finish();
  }
  uint32_t Main = Asm.declareMethod("main", 0, 0, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    B.iconst(Depth);
    B.invokestatic(Rec);
    B.emit(Opcode::Iprint);
    B.halt();
    B.finish();
  }
  Asm.setEntry(Main);
  return Asm.build();
}

/// Everything a trace run leaves behind that the fused and the stepped
/// run must agree on.
struct RunState {
  BlockStepper::StepStatus Status = BlockStepper::StepStatus::Continue;
  uint32_t BlocksRun = 0;
  uint64_t Instructions = 0;
  BlockId Next = InvalidBlockId;
  size_t StackDepth = 0;
  size_t Frames = 0;
  TrapKind Trap = TrapKind::None;
  size_t OutputSize = 0;

  bool operator==(const RunState &) const = default;
};

std::ostream &operator<<(std::ostream &OS, const RunState &S) {
  return OS << "status " << static_cast<int>(S.Status) << " blocks "
            << S.BlocksRun << " instrs " << S.Instructions << " next "
            << S.Next << " stack " << S.StackDepth << " frames " << S.Frames
            << " trap " << static_cast<int>(S.Trap) << " output "
            << S.OutputSize;
}

RunState stateOf(BlockStepper::TraceStep R, BlockStepper &St) {
  Machine &M = St.machine();
  const bool Live = R.Status == BlockStepper::StepStatus::Continue;
  return {.Status = R.Status,
          .BlocksRun = R.BlocksRun,
          .Instructions = St.instructions(),
          .Next = St.currentBlock(),
          .StackDepth = M.operandDepth(),
          .Frames = Live ? M.frameDepth() : 0,
          .Trap = M.trap(),
          .OutputSize = M.output().size()};
}

/// The trace run as a sequence of step() calls: the loop runTrace fuses.
BlockStepper::TraceStep stepBlocks(BlockStepper &St,
                                   std::span<const BlockId> Blocks,
                                   uint64_t Budget) {
  uint32_t I = 0;
  while (true) {
    BlockStepper::StepStatus S = St.step();
    ++I;
    if (S != BlockStepper::StepStatus::Continue ||
        St.instructions() >= Budget || I == Blocks.size() ||
        St.currentBlock() != Blocks[I])
      return {S, I};
  }
}

/// Two steppers over one module, kept in lock step: A runs traces fused,
/// B block by block.
struct Twin {
  explicit Twin(const PreparedModule &PM)
      : MA(PM.module()), MB(PM.module()), A(PM, MA), B(PM, MB) {
    A.start();
    B.start();
  }

  /// Runs \p Blocks from the current block both ways; returns false (after
  /// a failed expectation) when the two disagree.
  bool run(std::span<const BlockId> Blocks, uint64_t Budget,
           RunState *Out = nullptr) {
    RunState SA = stateOf(A.runTrace(Blocks, Budget), A);
    RunState SB = stateOf(stepBlocks(B, Blocks, Budget), B);
    EXPECT_EQ(SA, SB);
    if (Out)
      *Out = SA;
    return SA == SB;
  }

  /// Steps one block outside any trace on both.
  BlockStepper::StepStatus step() {
    BlockStepper::StepStatus S = A.step();
    EXPECT_EQ(S, B.step());
    return S;
  }

  void expectSameMachines() {
    EXPECT_EQ(A.instructions(), B.instructions());
    EXPECT_EQ(MA.output(), MB.output());
    EXPECT_EQ(heapDigest(MA.heap()), heapDigest(MB.heap()));
  }

  Machine MA, MB;
  BlockStepper A, B;
};

/// \p M's block sequence under step(), to the end of the run.
std::vector<BlockId> blockSequence(const PreparedModule &PM) {
  std::vector<BlockId> Seq;
  Machine Mach(PM.module());
  BlockStepper Stepper(PM, Mach);
  runBlocksWithHook(Stepper, [&Seq](BlockId B) { Seq.push_back(B); }, Budget);
  return Seq;
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential agreement
//===----------------------------------------------------------------------===//

TEST(BlockExecTest, CorpusProgramsAgree) {
  std::vector<std::string> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(JTC_CORPUS_DIR))
    if (Entry.path().extension() == ".jasm")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());
  for (const std::string &Path : Files) {
    std::string Error;
    std::optional<Module> M = parseModuleFile(Path, Error);
    ASSERT_TRUE(M) << Path << ": " << Error;
    expectAgreement(*M, Path);
  }
}

TEST(BlockExecTest, GeneratedProgramsAgree) {
  for (uint64_t Seed = 0; Seed < 500; ++Seed) {
    // Every other seed enables trap statements, so trap exits mid-block
    // are covered as well as clean completion.
    fuzz::GenConfig Config;
    Config.Features.Traps = Seed % 2 == 1;
    fuzz::RandomProgramBuilder Gen(Seed, Config);
    Module M = Gen.build();
    ASSERT_TRUE(isValid(M)) << "seed " << Seed;
    expectAgreement(M, "seed " + std::to_string(Seed));
  }
}

TEST(BlockExecTest, WorkloadsAgree) {
  for (const WorkloadInfo &W : allWorkloads())
    expectAgreement(W.Build(1), W.Name);
}

//===----------------------------------------------------------------------===//
// Fused trace runs
//===----------------------------------------------------------------------===//

TEST(BlockExecTest, TraceRunsMatchSteppingOnWorkloadTraces) {
  for (const WorkloadInfo &W : allWorkloads()) {
    SCOPED_TRACE(W.Name);
    // A tenth of the default scale: long enough for every workload to
    // build traces of all its hot paths.
    Module M = W.Build(std::max(W.DefaultScale / 10, 1u));
    PreparedModule PM(M);
    // The traces a profiled session builds, replaced ones included.
    std::vector<std::vector<BlockId>> Traces;
    {
      TraceVM VM(PM);
      ASSERT_EQ(VM.run().Status, RunStatus::Finished);
      for (const Trace &T : VM.traceCache().traces())
        Traces.push_back(T.Blocks);
    }
    ASSERT_FALSE(Traces.empty());
    std::vector<std::vector<uint32_t>> ByEntry(PM.numBlocks());
    for (uint32_t I = 0; I < Traces.size(); ++I)
      ByEntry[Traces[I][0]].push_back(I);

    // Wherever a trace starts, run the least-tried one there; every
    // seventh run gets a budget that cuts it short.
    Twin Tw(PM);
    std::vector<uint32_t> Tried(Traces.size(), 0);
    uint64_t Runs = 0;
    bool Live = true;
    while (Live) {
      const std::vector<uint32_t> &Here = ByEntry[Tw.A.currentBlock()];
      if (Here.empty()) {
        Live = Tw.step() == BlockStepper::StepStatus::Continue;
        continue;
      }
      uint32_t Pick = *std::min_element(
          Here.begin(), Here.end(),
          [&Tried](uint32_t X, uint32_t Y) { return Tried[X] < Tried[Y]; });
      ++Tried[Pick];
      uint64_t Cut = ~0ull;
      if (++Runs % 7 == 0)
        Cut = Tw.A.instructions() + 1 + Runs % (4 * Traces[Pick].size());
      RunState S;
      ASSERT_TRUE(Tw.run(Traces[Pick], Cut, &S)) << "trace " << Pick;
      Live = S.Status == BlockStepper::StepStatus::Continue;
      if (Runs % 1024 == 0)
        Tw.expectSameMachines();
    }
    Tw.expectSameMachines();
    EXPECT_EQ(std::count(Tried.begin(), Tried.end(), 0u), 0)
        << "traces never entered";
  }
}

TEST(BlockExecTest, TraceRunStopsAtTheBudget) {
  Module M = testprog::countingLoop(100000);
  PreparedModule PM(M);
  std::vector<BlockId> Seq = blockSequence(PM);
  ASSERT_GT(Seq.size(), 200u);
  const std::span<const BlockId> Window(Seq.data() + 10, 100);
  for (uint64_t Over : {1ull, 2ull, 7ull, 50ull, 150ull}) {
    Twin Tw(PM);
    for (int I = 0; I < 10; ++I)
      Tw.step();
    const uint64_t Cut = Tw.A.instructions() + Over;
    RunState S;
    ASSERT_TRUE(Tw.run(Window, Cut, &S)) << Over;
    // Every block ran whole, and the run stopped at the first boundary at
    // or past the budget, standing at the next block.
    EXPECT_EQ(S.Status, BlockStepper::StepStatus::Continue);
    EXPECT_GE(S.Instructions, Cut);
    EXPECT_LT(S.Instructions - PM.blockSize(Window[S.BlocksRun - 1]), Cut);
    EXPECT_LT(S.BlocksRun, Window.size());
    EXPECT_EQ(S.Next, Window[S.BlocksRun]);
  }
}

TEST(BlockExecTest, TraceRunEndsOnATrapOrAFinishInside) {
  // The trap fires in trapInHotLoop's loop, the finish is recursiveMain's
  // bottom return inside its return chain. Each run covers the last K
  // blocks of the program, and then one more recorded block, so the end
  // falls inside the run rather than at its last block.
  for (const Module &M :
       {testprog::trapInHotLoop(1000), testprog::recursiveMain(100)}) {
    PreparedModule PM(M);
    std::vector<BlockId> Seq = blockSequence(PM);
    for (size_t K : {size_t{1}, size_t{2}, size_t{5}, size_t{40}}) {
      ASSERT_GT(Seq.size(), K);
      std::vector<BlockId> Window(Seq.end() - K, Seq.end());
      Window.push_back(Window.front());
      Twin Tw(PM);
      for (size_t I = 0; I < Seq.size() - K; ++I)
        ASSERT_EQ(Tw.step(), BlockStepper::StepStatus::Continue);
      RunState S;
      ASSERT_TRUE(Tw.run(Window, ~0ull, &S)) << K;
      EXPECT_NE(S.Status, BlockStepper::StepStatus::Continue) << K;
      EXPECT_EQ(S.BlocksRun, K);
      EXPECT_EQ(S.Next, InvalidBlockId);
      Tw.expectSameMachines();
    }
  }
}

//===----------------------------------------------------------------------===//
// Edge contracts
//===----------------------------------------------------------------------===//

TEST(BlockExecTest, TrapMidBlockCountsTheTrappingInstruction) {
  // iconst 10; iconst 0; idiv; iprint; halt -- one block, trapping at its
  // third instruction: the two after it must not be counted.
  Module M = testprog::divideByZero();
  PreparedModule PM(M);
  ASSERT_EQ(PM.numBlocks(), 1u);
  Machine Mach(M);
  BlockStepper Stepper(PM, Mach);
  Stepper.start();
  EXPECT_EQ(Stepper.step(), BlockStepper::StepStatus::Trapped);
  EXPECT_EQ(Stepper.instructions(), 3u);
  EXPECT_EQ(Stepper.currentBlock(), InvalidBlockId);
  EXPECT_EQ(Mach.trap(), TrapKind::DivideByZero);
  EXPECT_TRUE(Mach.output().empty());
}

TEST(BlockExecTest, BudgetCutsExactlyAtABlockBoundary) {
  Module M = testprog::countingLoop(100000);
  PreparedModule PM(M);
  for (uint64_t Cut : {1ull, 7ull, 1000ull, 12345ull}) {
    Machine Mach(M);
    BlockStepper Stepper(PM, Mach);
    uint64_t Dispatched = 0;
    BlockId Last = InvalidBlockId;
    RunResult R = runBlocksWithHook(
        Stepper,
        [&](BlockId B) {
          Dispatched += PM.blockSize(B);
          Last = B;
        },
        Cut);
    EXPECT_EQ(R.Status, RunStatus::BudgetExhausted) << Cut;
    // Every dispatched block ran whole, and the run stopped at the first
    // boundary at or past the budget.
    EXPECT_EQ(R.Instructions, Dispatched) << Cut;
    EXPECT_GE(R.Instructions, Cut);
    EXPECT_LT(R.Instructions - PM.blockSize(Last), Cut);
    // The stepper stands at the next block, ready to resume.
    EXPECT_NE(Stepper.currentBlock(), InvalidBlockId);
  }
}

TEST(BlockExecTest, StackOverflowFiresAtMaxFrames) {
  // Runaway recursion: fact(2^28) needs far more frames than allowed.
  Module M = testprog::recursiveFactorial(5);
  M.Methods[1].Code[0] = Instruction(Opcode::Iconst, 1 << 28);
  PreparedModule PM(M);
  constexpr size_t MaxFrames = 64;
  Machine Ref(M, MaxFrames);
  RunResult R1 = runInstructions(Ref);
  Machine Mach(M, MaxFrames);
  BlockStepper Stepper(PM, Mach);
  RunResult R2 = runBlocks(Stepper);
  EXPECT_EQ(R2.Status, RunStatus::Trapped);
  EXPECT_EQ(R2.Trap, TrapKind::StackOverflow);
  EXPECT_EQ(Mach.frameDepth(), MaxFrames);
  EXPECT_EQ(R2.Instructions, R1.Instructions);
  EXPECT_EQ(Stepper.currentBlock(), InvalidBlockId);
}

TEST(BlockExecTest, DeepRecursionGrowsTheArenas) {
  // 1500 frames x 40 locals and 1500 x 17 pending operands: the locals
  // arena (1024 initially) and the operand arena (256) reallocate many
  // times mid-run. A stale cached stack or locals pointer would corrupt
  // the sum (and trips AddressSanitizer in sanitizer builds).
  Module M = deepRecursion(1500, 40, 16);
  expectAgreement(M, "deep recursion");
  PreparedModule PM(M);
  Machine Mach(M);
  BlockStepper Stepper(PM, Mach);
  RunResult R = runBlocks(Stepper);
  ASSERT_EQ(R.Status, RunStatus::Finished);
  int64_t Expect = 0;
  for (int64_t N = 1; N <= 1500; ++N)
    Expect += N + 16 * 15 / 2;
  EXPECT_EQ(Mach.output(), (std::vector<int64_t>{Expect}));
}

TEST(BlockExecTest, DecodedCodeResolvesSuccessors) {
  Module M = testprog::switchProgram();
  PreparedModule PM(M);
  for (BlockId B = 0; B < PM.numBlocks(); ++B) {
    const BasicBlock &BB = PM.block(B);
    const Method &Mth = M.Methods[BB.MethodId];
    if (BB.EndPc < Mth.Code.size()) {
      EXPECT_EQ(BB.Fall, PM.blockStartingAt(BB.MethodId, BB.EndPc));
    }
    const Instruction &Term = Mth.Code[BB.EndPc - 1];
    if (opKind(Term.Op) == OpKind::Branch || opKind(Term.Op) == OpKind::Jump) {
      EXPECT_EQ(BB.Taken,
                PM.blockStartingAt(BB.MethodId, static_cast<uint32_t>(Term.A)));
    }
    // A block that falls through ends in the synthetic dispatch slot.
    if (!endsBlock(Term.Op)) {
      EXPECT_EQ(PM.code()[BB.FirstSlot + BB.numInstructions()].Op,
                SlotOp::FallThrough);
    }
  }
}
