//===- tests/runtime_test.cpp - Heap, traps, Machine semantics ------------===//

#include "runtime/Machine.h"

#include "TestPrograms.h"
#include "bytecode/OpSemantics.h"
#include "interp/InstructionInterpreter.h"

#include <gtest/gtest.h>

#include <limits>

using namespace jtc;

//===----------------------------------------------------------------------===//
// Heap
//===----------------------------------------------------------------------===//

TEST(HeapTest, NullIsNotLive) {
  Heap H;
  EXPECT_FALSE(H.isLive(Heap::Null));
  EXPECT_FALSE(H.isLive(-1));
  EXPECT_FALSE(H.isLive(1)); // nothing allocated yet
}

TEST(HeapTest, ObjectAllocationAndFields) {
  Heap H;
  int64_t R = H.allocObject(7, 3);
  ASSERT_TRUE(H.isLive(R));
  EXPECT_EQ(H.classOf(R), 7u);
  EXPECT_EQ(H.slotCount(R), 3u);
  EXPECT_EQ(H.load(R, 0), 0);
  H.store(R, 2, 42);
  EXPECT_EQ(H.load(R, 2), 42);
}

TEST(HeapTest, ArrayAllocation) {
  Heap H;
  int64_t R = H.allocArray(5);
  ASSERT_TRUE(H.isLive(R));
  EXPECT_EQ(H.classOf(R), Heap::ArrayClass);
  EXPECT_EQ(H.slotCount(R), 5u);
}

TEST(HeapTest, ZeroLengthArrayIsLive) {
  Heap H;
  int64_t R = H.allocArray(0);
  ASSERT_TRUE(H.isLive(R));
  EXPECT_EQ(H.slotCount(R), 0u);
}

TEST(HeapTest, DistinctReferences) {
  Heap H;
  int64_t A = H.allocObject(0, 1);
  int64_t B = H.allocObject(0, 1);
  EXPECT_NE(A, B);
  H.store(A, 0, 1);
  H.store(B, 0, 2);
  EXPECT_EQ(H.load(A, 0), 1);
  EXPECT_EQ(H.load(B, 0), 2);
}

TEST(HeapTest, CellBudgetExhaustionReturnsNull) {
  Heap H(/*MaxCells=*/2);
  EXPECT_NE(H.allocArray(1), Heap::Null);
  EXPECT_NE(H.allocObject(0, 1), Heap::Null);
  EXPECT_EQ(H.allocArray(1), Heap::Null);
  EXPECT_EQ(H.allocObject(0, 1), Heap::Null);
}

TEST(HeapTest, ClearDropsEverything) {
  Heap H;
  int64_t R = H.allocArray(3);
  H.clear();
  EXPECT_FALSE(H.isLive(R));
  EXPECT_EQ(H.size(), 0u);
}

//===----------------------------------------------------------------------===//
// Trap names
//===----------------------------------------------------------------------===//

TEST(TrapTest, AllKindsHaveNames) {
  for (uint8_t K = 0; K <= static_cast<uint8_t>(TrapKind::BadVirtualDispatch);
       ++K) {
    std::string Name = trapName(static_cast<TrapKind>(K));
    EXPECT_FALSE(Name.empty());
    EXPECT_NE(Name, "unknown trap");
  }
}

//===----------------------------------------------------------------------===//
// Machine: opcode-level semantics via execOne
//===----------------------------------------------------------------------===//

namespace {

/// Fixture providing a machine with a single trivial frame so that
/// execOne can be driven directly.
class MachineSemantics : public ::testing::Test {
protected:
  MachineSemantics() : M(makeModule()), Mach(M) { Mach.start(0); }

  static Module makeModule() {
    Module M;
    Method Main;
    Main.Name = "main";
    Main.NumLocals = 4;
    Main.Code = {Instruction(Opcode::Halt)};
    M.Methods.push_back(std::move(Main));
    Class C;
    C.Name = "C";
    C.NumFields = 2;
    C.Vtable = {0};
    M.Classes.push_back(std::move(C));
    Class D; // implements no slot
    D.Name = "D";
    D.Vtable = {InvalidMethod};
    M.Classes.push_back(std::move(D));
    SlotInfo S;
    S.Name = "m";
    M.Slots.push_back(std::move(S));
    return M;
  }

  /// Runs one binary opcode over (A, B) and returns the result.
  int64_t binop(Opcode Op, int64_t A, int64_t B) {
    Mach.push(A);
    Mach.push(B);
    Effect E = Mach.execOne(Instruction(Op));
    EXPECT_EQ(E.Kind, EffectKind::Next);
    return Mach.pop();
  }

  Module M;
  Machine Mach;
};

} // namespace

TEST_F(MachineSemantics, IntegerArithmetic) {
  EXPECT_EQ(binop(Opcode::Iadd, 2, 3), 5);
  EXPECT_EQ(binop(Opcode::Isub, 2, 3), -1);
  EXPECT_EQ(binop(Opcode::Imul, -4, 6), -24);
  EXPECT_EQ(binop(Opcode::Idiv, 7, 2), 3);
  EXPECT_EQ(binop(Opcode::Idiv, -7, 2), -3);
  EXPECT_EQ(binop(Opcode::Irem, 7, 3), 1);
  EXPECT_EQ(binop(Opcode::Irem, -7, 3), -1);
  EXPECT_EQ(binop(Opcode::Iand, 0b1100, 0b1010), 0b1000);
  EXPECT_EQ(binop(Opcode::Ior, 0b1100, 0b1010), 0b1110);
  EXPECT_EQ(binop(Opcode::Ixor, 0b1100, 0b1010), 0b0110);
}

TEST_F(MachineSemantics, OverflowWrapsInstead0fUB) {
  int64_t Max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(binop(Opcode::Iadd, Max, 1), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(binop(Opcode::Imul, Max, 2), -2);
  int64_t Min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(binop(Opcode::Isub, Min, 1), Max);
}

TEST_F(MachineSemantics, DivMinByMinusOneIsDefined) {
  int64_t Min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(binop(Opcode::Idiv, Min, -1), Min);
  EXPECT_EQ(binop(Opcode::Irem, Min, -1), 0);
}

TEST_F(MachineSemantics, ShiftCountsAreMasked) {
  EXPECT_EQ(binop(Opcode::Ishl, 1, 64), 1);   // 64 & 63 == 0
  EXPECT_EQ(binop(Opcode::Ishl, 1, 65), 2);   // 65 & 63 == 1
  EXPECT_EQ(binop(Opcode::Ishr, -8, 1), -4);  // arithmetic
  EXPECT_EQ(binop(Opcode::Iushr, -1, 60), 15); // logical
}

TEST_F(MachineSemantics, Negation) {
  Mach.push(5);
  Mach.execOne(Instruction(Opcode::Ineg));
  EXPECT_EQ(Mach.pop(), -5);
  Mach.push(std::numeric_limits<int64_t>::min());
  Mach.execOne(Instruction(Opcode::Ineg));
  EXPECT_EQ(Mach.pop(), std::numeric_limits<int64_t>::min());
}

TEST_F(MachineSemantics, StackManipulation) {
  Mach.push(1);
  Mach.push(2);
  Mach.execOne(Instruction(Opcode::Swap));
  EXPECT_EQ(Mach.pop(), 1);
  EXPECT_EQ(Mach.pop(), 2);

  Mach.push(9);
  Mach.execOne(Instruction(Opcode::Dup));
  EXPECT_EQ(Mach.pop(), 9);
  EXPECT_EQ(Mach.pop(), 9);

  Mach.push(7);
  Mach.execOne(Instruction(Opcode::Pop));
  EXPECT_EQ(Mach.operandDepth(), 0u);
}

TEST_F(MachineSemantics, LocalsViaOpcodes) {
  Mach.execOne(Instruction(Opcode::Iconst, 13));
  Mach.execOne(Instruction(Opcode::Istore, 2));
  EXPECT_EQ(Mach.local(2), 13);
  Mach.execOne(Instruction(Opcode::Iinc, 2, 4));
  EXPECT_EQ(Mach.local(2), 17);
  Mach.execOne(Instruction(Opcode::Iload, 2));
  EXPECT_EQ(Mach.pop(), 17);
}

TEST_F(MachineSemantics, ConditionalBranchEffects) {
  Mach.push(0);
  EXPECT_EQ(Mach.execOne(Instruction(Opcode::IfEq, 5)).Kind, EffectKind::Jump);
  Mach.push(1);
  EXPECT_EQ(Mach.execOne(Instruction(Opcode::IfEq, 5)).Kind, EffectKind::Next);
  Mach.push(-2);
  Effect E = Mach.execOne(Instruction(Opcode::IfLt, 9));
  EXPECT_EQ(E.Kind, EffectKind::Jump);
  EXPECT_EQ(E.Target, 9u);
  Mach.push(3);
  Mach.push(3);
  EXPECT_EQ(Mach.execOne(Instruction(Opcode::IfIcmpEq, 4)).Kind,
            EffectKind::Jump);
  Mach.push(3);
  Mach.push(4);
  EXPECT_EQ(Mach.execOne(Instruction(Opcode::IfIcmpGt, 4)).Kind,
            EffectKind::Next);
}

TEST_F(MachineSemantics, TrapsOnDivisionByZero) {
  Mach.push(1);
  Mach.push(0);
  EXPECT_EQ(Mach.execOne(Instruction(Opcode::Idiv)).Kind, EffectKind::Trap);
  EXPECT_EQ(Mach.trap(), TrapKind::DivideByZero);
}

TEST_F(MachineSemantics, TrapsOnNullFieldAccess) {
  Mach.push(Heap::Null);
  EXPECT_EQ(Mach.execOne(Instruction(Opcode::GetField, 0)).Kind,
            EffectKind::Trap);
  EXPECT_EQ(Mach.trap(), TrapKind::NullReference);
}

TEST_F(MachineSemantics, TrapsOnForgedReference) {
  Mach.push(123456); // no such cell
  EXPECT_EQ(Mach.execOne(Instruction(Opcode::ArrayLength)).Kind,
            EffectKind::Trap);
  EXPECT_EQ(Mach.trap(), TrapKind::NullReference);
}

TEST_F(MachineSemantics, TrapsOnFieldIndexOutOfRange) {
  Mach.execOne(Instruction(Opcode::New, 0)); // class C: 2 fields
  EXPECT_EQ(Mach.execOne(Instruction(Opcode::GetField, 5)).Kind,
            EffectKind::Trap);
  EXPECT_EQ(Mach.trap(), TrapKind::FieldBounds);
}

TEST_F(MachineSemantics, TrapsOnArrayBounds) {
  Mach.push(3);
  Mach.execOne(Instruction(Opcode::NewArray));
  Mach.execOne(Instruction(Opcode::Dup));
  Mach.push(3);
  EXPECT_EQ(Mach.execOne(Instruction(Opcode::Iaload)).Kind, EffectKind::Trap);
  EXPECT_EQ(Mach.trap(), TrapKind::ArrayBounds);
}

TEST_F(MachineSemantics, TrapsOnNegativeArraySize) {
  Mach.push(-1);
  EXPECT_EQ(Mach.execOne(Instruction(Opcode::NewArray)).Kind,
            EffectKind::Trap);
  EXPECT_EQ(Mach.trap(), TrapKind::NegativeArraySize);
}

TEST_F(MachineSemantics, FieldRoundTrip) {
  Mach.execOne(Instruction(Opcode::New, 0));
  Mach.execOne(Instruction(Opcode::Dup));
  Mach.push(77);
  EXPECT_EQ(Mach.execOne(Instruction(Opcode::PutField, 1)).Kind,
            EffectKind::Next);
  EXPECT_EQ(Mach.execOne(Instruction(Opcode::GetField, 1)).Kind,
            EffectKind::Next);
  EXPECT_EQ(Mach.pop(), 77);
}

TEST_F(MachineSemantics, ArrayRoundTripAndLength) {
  Mach.push(4);
  Mach.execOne(Instruction(Opcode::NewArray));
  int64_t Ref = Mach.pop();
  Mach.push(Ref);
  Mach.push(2);
  Mach.push(55);
  EXPECT_EQ(Mach.execOne(Instruction(Opcode::Iastore)).Kind, EffectKind::Next);
  Mach.push(Ref);
  Mach.push(2);
  Mach.execOne(Instruction(Opcode::Iaload));
  EXPECT_EQ(Mach.pop(), 55);
  Mach.push(Ref);
  Mach.execOne(Instruction(Opcode::ArrayLength));
  EXPECT_EQ(Mach.pop(), 4);
}

TEST_F(MachineSemantics, IprintAppendsToOutput) {
  Mach.push(1);
  Mach.execOne(Instruction(Opcode::Iprint));
  Mach.push(2);
  Mach.execOne(Instruction(Opcode::Iprint));
  EXPECT_EQ(Mach.output(), (std::vector<int64_t>{1, 2}));
}

//===----------------------------------------------------------------------===//
// Machine: frames
//===----------------------------------------------------------------------===//

TEST(MachineFrames, ArgumentsMoveIntoCalleeLocals) {
  Module M;
  Method Main;
  Main.Name = "main";
  Main.NumLocals = 0;
  Main.Code = {Instruction(Opcode::Halt)};
  M.Methods.push_back(Main);
  Method F;
  F.Name = "f";
  F.NumArgs = 2;
  F.NumLocals = 3;
  F.ReturnsValue = true;
  F.Code = {Instruction(Opcode::Iconst, 0), Instruction(Opcode::Ireturn)};
  M.Methods.push_back(F);

  Machine Mach(M);
  Mach.start(0);
  Mach.push(10);
  Mach.push(20);
  ASSERT_TRUE(Mach.pushFrame(1, /*ReturnPc=*/5));
  EXPECT_EQ(Mach.currentMethodId(), 1u);
  EXPECT_EQ(Mach.local(0), 10); // deepest argument first
  EXPECT_EQ(Mach.local(1), 20);
  EXPECT_EQ(Mach.local(2), 0); // non-arg locals zeroed
  EXPECT_EQ(Mach.operandDepth(), 0u) << "callee starts with empty stack";

  Mach.push(99); // return value
  Machine::PopInfo Info = Mach.popFrame(/*HasValue=*/true);
  EXPECT_FALSE(Info.BottomFrame);
  EXPECT_EQ(Info.ReturnPc, 5u);
  EXPECT_EQ(Mach.currentMethodId(), 0u);
  EXPECT_EQ(Mach.pop(), 99) << "return value lands on the caller stack";
}

TEST(MachineFrames, BottomFramePop) {
  Module M;
  Method Main;
  Main.Name = "main";
  Main.Code = {Instruction(Opcode::Return)};
  M.Methods.push_back(Main);
  Machine Mach(M);
  Mach.start(0);
  Machine::PopInfo Info = Mach.popFrame(false);
  EXPECT_TRUE(Info.BottomFrame);
  EXPECT_FALSE(Mach.hasFrames());
}

TEST(MachineFrames, FrameBudgetTrapsAsStackOverflow) {
  Module M;
  Method Main;
  Main.Name = "main";
  Main.Code = {Instruction(Opcode::Halt)};
  M.Methods.push_back(Main);
  Machine Mach(M, /*MaxFrames=*/3);
  Mach.start(0);
  EXPECT_TRUE(Mach.pushFrame(0, 0));
  EXPECT_TRUE(Mach.pushFrame(0, 0));
  EXPECT_FALSE(Mach.pushFrame(0, 0));
  EXPECT_EQ(Mach.trap(), TrapKind::StackOverflow);
}

TEST(MachineFrames, BudgetOfExactlyNFramesAcrossArenaGrowth) {
  // f(x) has 40 locals, so a few dozen frames outgrow the locals arena;
  // budgets around the frame arena's first size (64) grow it too. The
  // push fast path must admit exactly N frames, entry frame included,
  // and every frame's locals must survive the arenas' moves.
  Module M;
  Method Main;
  Main.Name = "main";
  Main.Code = {Instruction(Opcode::Halt)};
  M.Methods.push_back(Main);
  Method F;
  F.Name = "f";
  F.NumArgs = 1;
  F.NumLocals = 40;
  F.ReturnsValue = true;
  F.Code = {Instruction(Opcode::Iload, 0), Instruction(Opcode::Ireturn)};
  M.Methods.push_back(F);

  for (size_t N : {1u, 2u, 63u, 64u, 65u, 128u, 200u}) {
    SCOPED_TRACE(N);
    Machine Mach(M, /*MaxFrames=*/N);
    Mach.start(0);
    for (size_t Depth = 1; Depth < N; ++Depth) {
      Mach.push(static_cast<int64_t>(Depth));
      ASSERT_TRUE(Mach.pushFrame(1, /*ReturnPc=*/7, /*ReturnBlock=*/3));
      ASSERT_EQ(Mach.frameDepth(), Depth + 1);
      ASSERT_EQ(Mach.local(0), static_cast<int64_t>(Depth));
      ASSERT_EQ(Mach.local(39), 0);
      Mach.setLocal(39, -static_cast<int64_t>(Depth));
    }
    Mach.push(-1);
    EXPECT_FALSE(Mach.pushFrame(1, 7, 3));
    EXPECT_EQ(Mach.trap(), TrapKind::StackOverflow);
    EXPECT_EQ(Mach.frameDepth(), N);
    EXPECT_EQ(Mach.pop(), -1) << "the argument stays on the caller's stack";
    for (size_t Depth = N - 1; Depth >= 1; --Depth) {
      ASSERT_EQ(Mach.currentMethodId(), 1u);
      EXPECT_EQ(Mach.local(0), static_cast<int64_t>(Depth));
      EXPECT_EQ(Mach.local(39), -static_cast<int64_t>(Depth));
      Mach.push(Mach.local(0));
      Machine::PopInfo Info = Mach.popFrame(/*HasValue=*/true);
      EXPECT_FALSE(Info.BottomFrame);
      EXPECT_EQ(Info.ReturnPc, 7u);
      EXPECT_EQ(Info.ReturnBlock, 3u);
      EXPECT_EQ(Mach.pop(), static_cast<int64_t>(Depth));
      EXPECT_EQ(Mach.frameDepth(), Depth);
    }
    EXPECT_EQ(Mach.currentMethodId(), 0u);
    EXPECT_EQ(Mach.operandDepth(), 0u);
    EXPECT_TRUE(Mach.popFrame(false).BottomFrame);
  }
}

TEST(MachineFrames, RunawayRecursionTrapsViaInterpreter) {
  // fact(-1) recurses forever; the frame budget must stop it.
  Module M = testprog::recursiveFactorial(5);
  // Patch main to pass a huge N instead.
  M.Methods[1].Code[0] = Instruction(Opcode::Iconst, 1 << 30);
  Machine Mach(M, /*MaxFrames=*/64);
  RunResult R = runInstructions(Mach);
  EXPECT_EQ(R.Status, RunStatus::Trapped);
  EXPECT_EQ(R.Trap, TrapKind::StackOverflow);
}

TEST(MachineFrames, ResetClearsState) {
  Module M = testprog::countingLoop(5);
  Machine Mach(M);
  runInstructions(Mach);
  EXPECT_FALSE(Mach.output().empty());
  Mach.reset();
  EXPECT_TRUE(Mach.output().empty());
  EXPECT_FALSE(Mach.hasFrames());
  EXPECT_EQ(Mach.trap(), TrapKind::None);
}

//===----------------------------------------------------------------------===//
// The opcode semantics table and the heap checks against the execOne oracle
//===----------------------------------------------------------------------===//

namespace {

constexpr int64_t MinI = std::numeric_limits<int64_t>::min();
constexpr int64_t MaxI = std::numeric_limits<int64_t>::max();
/// Overflow, sign and shift-count edges.
constexpr int64_t EdgeGrid[] = {MinI, MinI + 1, -65, -64, -1, 0,
                                1,    63,       64,  65,  MaxI};

} // namespace

TEST_F(MachineSemantics, TableMatchesOracleOnBinaryOps) {
  unsigned Covered = 0;
  for (unsigned O = 0; O < numOpcodes(); ++O) {
    Opcode Op = static_cast<Opcode>(O);
    if (!isBinary(Op))
      continue;
    ++Covered;
    for (int64_t A : EdgeGrid)
      for (int64_t B : EdgeGrid) {
        SCOPED_TRACE(std::string(mnemonic(Op)) + " " + std::to_string(A) +
                     " " + std::to_string(B));
        Mach.push(A);
        Mach.push(B);
        Effect E = Mach.execOne(Instruction(Op));
        int64_t Out = 0;
        bool Ok = evalBinary(Op, A, B, Out);
        if (E.Kind == EffectKind::Trap) {
          EXPECT_FALSE(Ok);
          EXPECT_EQ(Mach.trap(), TrapKind::DivideByZero);
          Mach.setTrap(TrapKind::None);
        } else {
          ASSERT_EQ(E.Kind, EffectKind::Next);
          EXPECT_TRUE(Ok);
          EXPECT_EQ(Out, Mach.pop());
        }
        ASSERT_EQ(Mach.operandDepth(), 0u);
      }
  }
  EXPECT_EQ(Covered, 11u);
}

TEST_F(MachineSemantics, TableMatchesOracleOnNegation) {
  for (int64_t A : EdgeGrid) {
    Mach.push(A);
    Mach.execOne(Instruction(Opcode::Ineg));
    EXPECT_EQ(evalNeg(A), Mach.pop()) << A;
  }
}

TEST_F(MachineSemantics, TableMatchesOracleOnBranches) {
  unsigned Covered = 0;
  for (unsigned O = 0; O < numOpcodes(); ++O) {
    Opcode Op = static_cast<Opcode>(O);
    if (!isCondBranch(Op))
      continue;
    ++Covered;
    for (int64_t A : EdgeGrid)
      for (int64_t B : EdgeGrid) {
        SCOPED_TRACE(std::string(mnemonic(Op)) + " " + std::to_string(A) +
                     " " + std::to_string(B));
        Mach.push(A);
        if (branchArity(Op) == 2)
          Mach.push(B);
        Effect E = Mach.execOne(Instruction(Op, 7));
        EXPECT_EQ(evalBranch(Op, A, B), E.Kind == EffectKind::Jump);
        ASSERT_EQ(Mach.operandDepth(), 0u);
      }
  }
  EXPECT_EQ(Covered, 12u);
}

namespace {

/// The trap a one-instruction execOne run of \p I over \p Operands
/// raises (None when it completes), leaving the stack empty.
TrapKind oracleTrap(Machine &Mach, const Instruction &I,
                    std::initializer_list<int64_t> Operands) {
  for (int64_t V : Operands)
    Mach.push(V);
  Effect E = Mach.execOne(I);
  while (Mach.operandDepth() > 0)
    Mach.pop();
  if (E.Kind != EffectKind::Trap)
    return TrapKind::None;
  TrapKind T = Mach.trap();
  Mach.setTrap(TrapKind::None);
  return T;
}

} // namespace

TEST_F(MachineSemantics, HeapChecksMatchOracle) {
  Mach.push(3);
  Mach.execOne(Instruction(Opcode::NewArray));
  const int64_t Arr = Mach.pop();
  Mach.execOne(Instruction(Opcode::New, 0)); // class C: 2 fields
  const int64_t Obj = Mach.pop();
  const Heap &H = Mach.heap();
  // Null, array, object, negative and out-of-range references.
  const int64_t Refs[] = {Heap::Null, Arr, Obj, -3, 1 << 20};
  const int64_t Indices[] = {MinI, -1, 0, 2, 3, 4, MaxI};
  const ElideLevel All = ElideLevel::None; // every check runs

  for (int64_t Ref : Refs) {
    SCOPED_TRACE("ref " + std::to_string(Ref));
    for (int64_t Idx : Indices) {
      SCOPED_TRACE("index " + std::to_string(Idx));
      TrapKind T = H.checkElement(Ref, Idx, All);
      EXPECT_EQ(T, oracleTrap(Mach, Instruction(Opcode::Iaload), {Ref, Idx}));
      EXPECT_EQ(T,
                oracleTrap(Mach, Instruction(Opcode::Iastore), {Ref, Idx, 9}));
    }
    for (int32_t Slot : {0, 1, 2, 5}) {
      SCOPED_TRACE("slot " + std::to_string(Slot));
      TrapKind T = H.checkField(Ref, static_cast<size_t>(Slot), All);
      EXPECT_EQ(T,
                oracleTrap(Mach, Instruction(Opcode::GetField, Slot), {Ref}));
      EXPECT_EQ(
          T, oracleTrap(Mach, Instruction(Opcode::PutField, Slot), {Ref, 9}));
    }
    EXPECT_EQ(H.checkArrayLength(Ref, All),
              oracleTrap(Mach, Instruction(Opcode::ArrayLength), {Ref}));
  }
}

TEST_F(MachineSemantics, VirtualResolutionMatchesOracle) {
  Mach.execOne(Instruction(Opcode::New, 0)); // C implements slot 0
  const int64_t ObjC = Mach.pop();
  Mach.execOne(Instruction(Opcode::New, 1)); // D implements nothing
  const int64_t ObjD = Mach.pop();
  Mach.push(1);
  Mach.execOne(Instruction(Opcode::NewArray));
  const int64_t Arr = Mach.pop();
  for (int64_t Recv : {Heap::Null, ObjC, ObjD, Arr, int64_t{-3}}) {
    SCOPED_TRACE("receiver " + std::to_string(Recv));
    uint32_t Callee = InvalidMethod;
    TrapKind T = Mach.resolveVirtual(Recv, 0, Callee);
    Mach.push(Recv);
    Effect E = Mach.execOne(Instruction(Opcode::InvokeVirtual, 0));
    Mach.pop();
    if (E.Kind == EffectKind::Trap) {
      EXPECT_EQ(T, Mach.trap());
      Mach.setTrap(TrapKind::None);
    } else {
      EXPECT_EQ(T, TrapKind::None);
      EXPECT_EQ(Callee, E.Target);
    }
  }
}
