//===- tests/TestPrograms.h - Shared program builders for tests -*- C++ -*-===//
///
/// \file
/// Small hand-built modules used across the test suite. The constrained
/// random-program generator that used to live here was promoted into the
/// fuzzing subsystem (src/fuzz/ProgramGen.h); it is re-exported below so
/// existing tests keep their spelling.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_TESTS_TESTPROGRAMS_H
#define JTC_TESTS_TESTPROGRAMS_H

#include "bytecode/Assembler.h"
#include "fuzz/ProgramGen.h"

#include <cstdint>
#include <vector>

namespace jtc {
namespace testprog {

/// main: prints the sum 0 + 1 + ... + (N-1), then halts.
inline Module countingLoop(int32_t N) {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Loop = B.newLabel(), Done = B.newLabel();
  B.iconst(0);
  B.istore(0); // i
  B.iconst(0);
  B.istore(1); // sum
  B.bind(Loop);
  B.iload(0);
  B.iconst(N);
  B.branch(Opcode::IfIcmpGe, Done);
  B.iload(1);
  B.iload(0);
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

/// main: prints factorial(N) computed recursively.
inline Module recursiveFactorial(int32_t N) {
  Assembler Asm;
  uint32_t Fact = Asm.declareMethod("fact", 1, 1, true);
  {
    MethodBuilder B = Asm.beginMethod(Fact);
    Label Base = B.newLabel();
    B.iload(0);
    B.iconst(1);
    B.branch(Opcode::IfIcmpLe, Base);
    B.iload(0);
    B.iload(0);
    B.iconst(1);
    B.emit(Opcode::Isub);
    B.invokestatic(Fact);
    B.emit(Opcode::Imul);
    B.iret();
    B.bind(Base);
    B.iconst(1);
    B.iret();
    B.finish();
  }
  uint32_t Main = Asm.declareMethod("main", 0, 0, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    B.iconst(N);
    B.invokestatic(Fact);
    B.emit(Opcode::Iprint);
    B.halt();
    B.finish();
  }
  Asm.setEntry(Main);
  return Asm.build();
}

/// main: two classes implementing slot "val"; prints both results.
inline Module virtualDispatch() {
  Assembler Asm;
  uint32_t Slot = Asm.declareSlot("val", 1, true);
  uint32_t CA = Asm.declareClass("A", 1);
  uint32_t CB = Asm.declareClass("B", 1);
  uint32_t MA = Asm.declareMethod("A.val", 1, 1, true);
  {
    MethodBuilder B = Asm.beginMethod(MA);
    B.iload(0);
    B.getfield(0);
    B.iconst(10);
    B.emit(Opcode::Iadd);
    B.iret();
    B.finish();
  }
  uint32_t MB = Asm.declareMethod("B.val", 1, 1, true);
  {
    MethodBuilder B = Asm.beginMethod(MB);
    B.iload(0);
    B.getfield(0);
    B.iconst(2);
    B.emit(Opcode::Imul);
    B.iret();
    B.finish();
  }
  Asm.setVtableEntry(CA, Slot, MA);
  Asm.setVtableEntry(CB, Slot, MB);

  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    // a = new A; a.field0 = 5; print a.val()
    B.newobj(CA);
    B.emit(Opcode::Dup);
    B.iconst(5);
    B.putfield(0);
    B.istore(0);
    B.iload(0);
    B.invokevirtual(Slot);
    B.emit(Opcode::Iprint);
    // b = new B; b.field0 = 7; print b.val()
    B.newobj(CB);
    B.emit(Opcode::Dup);
    B.iconst(7);
    B.putfield(0);
    B.istore(1);
    B.iload(1);
    B.invokevirtual(Slot);
    B.emit(Opcode::Iprint);
    B.halt();
    B.finish();
  }
  Asm.setEntry(Main);
  return Asm.build();
}

/// main: prints table-switch results for selectors 0..5.
inline Module switchProgram() {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 1, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Loop = B.newLabel(), Done = B.newLabel();
  Label C0 = B.newLabel(), C1 = B.newLabel(), C2 = B.newLabel();
  Label Def = B.newLabel(), Join = B.newLabel();
  B.iconst(0);
  B.istore(0);
  B.bind(Loop);
  B.iload(0);
  B.iconst(6);
  B.branch(Opcode::IfIcmpGe, Done);
  B.iload(0);
  B.tableswitch(0, {C0, C1, C2}, Def);
  B.bind(C0);
  B.iconst(100);
  B.emit(Opcode::Iprint);
  B.branch(Opcode::Goto, Join);
  B.bind(C1);
  B.iconst(101);
  B.emit(Opcode::Iprint);
  B.branch(Opcode::Goto, Join);
  B.bind(C2);
  B.iconst(102);
  B.emit(Opcode::Iprint);
  B.branch(Opcode::Goto, Join);
  B.bind(Def);
  B.iconst(999);
  B.emit(Opcode::Iprint);
  B.branch(Opcode::Goto, Join);
  B.bind(Join);
  B.iinc(0, 1);
  B.branch(Opcode::Goto, Loop);
  B.bind(Done);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  return Asm.build();
}

/// main: array of length N: a[i] = i * i; prints sum of elements.
inline Module arraySquares(int32_t N) {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 3, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label L1 = B.newLabel(), D1 = B.newLabel();
  Label L2 = B.newLabel(), D2 = B.newLabel();
  B.iconst(N);
  B.emit(Opcode::NewArray);
  B.istore(0);
  B.iconst(0);
  B.istore(1);
  B.bind(L1);
  B.iload(1);
  B.iconst(N);
  B.branch(Opcode::IfIcmpGe, D1);
  B.iload(0);
  B.iload(1);
  B.iload(1);
  B.iload(1);
  B.emit(Opcode::Imul);
  B.emit(Opcode::Iastore);
  B.iinc(1, 1);
  B.branch(Opcode::Goto, L1);
  B.bind(D1);
  B.iconst(0);
  B.istore(1);
  B.iconst(0);
  B.istore(2);
  B.bind(L2);
  B.iload(1);
  B.iload(0);
  B.emit(Opcode::ArrayLength);
  B.branch(Opcode::IfIcmpGe, D2);
  B.iload(2);
  B.iload(0);
  B.iload(1);
  B.emit(Opcode::Iaload);
  B.emit(Opcode::Iadd);
  B.istore(2);
  B.iinc(1, 1);
  B.branch(Opcode::Goto, L2);
  B.bind(D2);
  B.iload(2);
  B.emit(Opcode::Iprint);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  return Asm.build();
}

/// main: a hot loop of N iterations with a highly biased branch -- the
/// smallest program on which the trace cache finds a loop trace.
inline Module hotLoop(int32_t N) {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Loop = B.newLabel(), Done = B.newLabel(), Rare = B.newLabel(),
        Join = B.newLabel();
  B.iconst(0);
  B.istore(0);
  B.iconst(0);
  B.istore(1);
  B.bind(Loop);
  B.iload(0);
  B.iconst(N);
  B.branch(Opcode::IfIcmpGe, Done);
  B.iload(0);
  B.iconst(255);
  B.emit(Opcode::Iand);
  B.branch(Opcode::IfEq, Rare); // taken 1/256
  B.iload(1);
  B.iconst(3);
  B.emit(Opcode::Iadd);
  B.istore(1);
  B.branch(Opcode::Goto, Join);
  B.bind(Rare);
  B.iload(1);
  B.iconst(1);
  B.emit(Opcode::Ishr);
  B.istore(1);
  B.bind(Join);
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

/// main: divides 10 by 0 -- traps.
inline Module divideByZero() {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 0, false);
  MethodBuilder B = Asm.beginMethod(Main);
  B.iconst(10);
  B.iconst(0);
  B.emit(Opcode::Idiv);
  B.emit(Opcode::Iprint);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  return Asm.build();
}

/// main: hotLoop's loop with the common path dividing by (N - i), so the
/// run traps with a divide by zero at iteration N, inside the loop's trace
/// once it is hot (N must not be a multiple of 256: iteration N takes the
/// common path).
inline Module trapInHotLoop(int32_t N) {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Loop = B.newLabel(), Done = B.newLabel(), Rare = B.newLabel(),
        Join = B.newLabel();
  B.iconst(0);
  B.istore(0);
  B.iconst(0);
  B.istore(1);
  B.bind(Loop);
  B.iload(0);
  B.iconst(int64_t{N} * 2);
  B.branch(Opcode::IfIcmpGe, Done);
  B.iload(0);
  B.iconst(255);
  B.emit(Opcode::Iand);
  B.branch(Opcode::IfEq, Rare); // taken 1/256
  B.iload(1);
  B.iconst(1000);
  B.iconst(N);
  B.iload(0);
  B.emit(Opcode::Isub);
  B.emit(Opcode::Idiv);
  B.emit(Opcode::Iadd);
  B.istore(1);
  B.branch(Opcode::Goto, Join);
  B.bind(Rare);
  B.iinc(1, 1);
  B.bind(Join);
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

/// main: allocates an object and, while the reference (refs count up from
/// 1) is below \p Depth, calls itself; then returns. The run unwinds
/// through the same return block Depth times, so it finishes with the
/// bottom frame's return inside the return chain's trace once it is hot.
/// \p Depth must stay below the machine's frame limit.
inline Module recursiveMain(int32_t Depth) {
  Assembler Asm;
  uint32_t Cls = Asm.declareClass("Cell", 0);
  uint32_t Main = Asm.declareMethod("main", 0, 0, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Ret = B.newLabel();
  B.newobj(Cls);
  B.iconst(Depth);
  B.branch(Opcode::IfIcmpGe, Ret);
  B.invokestatic(Main);
  B.bind(Ret);
  B.ret();
  B.finish();
  Asm.setEntry(Main);
  return Asm.build();
}

/// The random program generator, now owned by the fuzzing subsystem.
using fuzz::RandomProgramBuilder;

} // namespace testprog
} // namespace jtc

#endif // JTC_TESTS_TESTPROGRAMS_H
