//===- bytecode/OpSemantics.h - The opcode semantics table ------*- C++ -*-===//
///
/// \file
/// One definition of what the integer and branch opcodes compute, and of
/// how many heap-access checks an elision skips, shared by every layer
/// that executes, folds or compiles them: the block executor's handlers
/// (src/interp), the optimizer's and validator's constant folders
/// (src/opt, src/validate), the value analysis' constant folds
/// (src/analysis) and the JIT's compare emitter (src/backend). It is
/// header-only and constexpr, so it sits in the lowest layer without a
/// link edge, and a call with a constant opcode folds to the one
/// operation.
///
/// Machine::execOne (src/runtime/Machine.cpp) stays hand-written: it is
/// the independent oracle this table is tested against
/// (tests/runtime_test.cpp). The heap checks themselves live beside the
/// heap (runtime/Heap.h).
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BYTECODE_OPSEMANTICS_H
#define JTC_BYTECODE_OPSEMANTICS_H

#include "bytecode/Opcode.h"

#include <cassert>
#include <cstdint>
#include <limits>

namespace jtc {

/// What an opcode computes, as far as this table defines it.
enum class OpClass : uint8_t {
  Other,  ///< Stack, locals, control transfer, calls, heap and output.
  Alu,    ///< Two operands: wrapping add/sub/mul, bitwise and/or/xor.
  Shift,  ///< Two operands: the count is taken modulo 64.
  DivRem, ///< Two operands: a zero divisor traps.
  Neg,    ///< One operand: wrapping negation.
  Cmp1,   ///< Conditional branch comparing its operand against zero.
  Cmp2,   ///< Conditional branch comparing two operands, deeper first.
};

/// The comparison a conditional branch jumps on.
enum class CmpKind : uint8_t { Eq, Ne, Lt, Ge, Gt, Le };

namespace detail {

/// One table entry.
struct OpSemantics {
  OpClass Class = OpClass::Other;
  CmpKind Cmp = CmpKind::Eq; ///< Cmp1 and Cmp2 only.
};

inline constexpr OpClass Unclassified = static_cast<OpClass>(0xff);

constexpr OpSemantics classify(Opcode Op) {
  switch (Op) {
  case Opcode::Nop:
  case Opcode::Iconst:
  case Opcode::Iload:
  case Opcode::Istore:
  case Opcode::Iinc:
  case Opcode::Pop:
  case Opcode::Dup:
  case Opcode::Swap:
  case Opcode::Goto:
  case Opcode::Tableswitch:
  case Opcode::InvokeStatic:
  case Opcode::InvokeVirtual:
  case Opcode::Return:
  case Opcode::Ireturn:
  case Opcode::New:
  case Opcode::GetField:
  case Opcode::PutField:
  case Opcode::NewArray:
  case Opcode::Iaload:
  case Opcode::Iastore:
  case Opcode::ArrayLength:
  case Opcode::Iprint:
  case Opcode::Halt:
    return {OpClass::Other};
  case Opcode::Iadd:
  case Opcode::Isub:
  case Opcode::Imul:
  case Opcode::Iand:
  case Opcode::Ior:
  case Opcode::Ixor:
    return {OpClass::Alu};
  case Opcode::Ishl:
  case Opcode::Ishr:
  case Opcode::Iushr:
    return {OpClass::Shift};
  case Opcode::Idiv:
  case Opcode::Irem:
    return {OpClass::DivRem};
  case Opcode::Ineg:
    return {OpClass::Neg};
  case Opcode::IfEq:
    return {OpClass::Cmp1, CmpKind::Eq};
  case Opcode::IfNe:
    return {OpClass::Cmp1, CmpKind::Ne};
  case Opcode::IfLt:
    return {OpClass::Cmp1, CmpKind::Lt};
  case Opcode::IfGe:
    return {OpClass::Cmp1, CmpKind::Ge};
  case Opcode::IfGt:
    return {OpClass::Cmp1, CmpKind::Gt};
  case Opcode::IfLe:
    return {OpClass::Cmp1, CmpKind::Le};
  case Opcode::IfIcmpEq:
    return {OpClass::Cmp2, CmpKind::Eq};
  case Opcode::IfIcmpNe:
    return {OpClass::Cmp2, CmpKind::Ne};
  case Opcode::IfIcmpLt:
    return {OpClass::Cmp2, CmpKind::Lt};
  case Opcode::IfIcmpGe:
    return {OpClass::Cmp2, CmpKind::Ge};
  case Opcode::IfIcmpGt:
    return {OpClass::Cmp2, CmpKind::Gt};
  case Opcode::IfIcmpLe:
    return {OpClass::Cmp2, CmpKind::Le};
  }
  return {Unclassified};
}

constexpr bool allClassified() {
  for (unsigned I = 0; I < numOpcodes(); ++I)
    if (classify(static_cast<Opcode>(I)).Class == Unclassified)
      return false;
  return true;
}

} // namespace detail

static_assert(detail::allClassified(),
              "every Opcodes.def entry needs a class in OpSemantics.h");

constexpr OpClass opClass(Opcode Op) { return detail::classify(Op).Class; }

/// True for the two-operand integer opcodes evalBinary defines.
constexpr bool isBinary(Opcode Op) {
  OpClass C = opClass(Op);
  return C == OpClass::Alu || C == OpClass::Shift || C == OpClass::DivRem;
}

/// True for the twelve conditional branches evalBranch defines.
constexpr bool isCondBranch(Opcode Op) {
  OpClass C = opClass(Op);
  return C == OpClass::Cmp1 || C == OpClass::Cmp2;
}

/// Operands a conditional branch pops: 1 (against zero) or 2.
constexpr unsigned branchArity(Opcode Op) {
  assert(isCondBranch(Op) && "not a conditional branch");
  return opClass(Op) == OpClass::Cmp2 ? 2 : 1;
}

/// The comparison conditional branch \p Op jumps on.
constexpr CmpKind cmpKind(Opcode Op) {
  assert(isCondBranch(Op) && "not a conditional branch");
  return detail::classify(Op).Cmp;
}

/// The one operand pair whose quotient overflows. Division defines it
/// as (DivOverflowDividend, 0) -- quotient, remainder -- instead of
/// leaving it undefined.
inline constexpr int64_t DivOverflowDividend =
    std::numeric_limits<int64_t>::min();
inline constexpr int64_t DivOverflowDivisor = -1;

/// A \p Op B for binary opcode \p Op, into \p Out. False (and \p Out
/// untouched) only for a zero divisor, where division traps.
constexpr bool evalBinary(Opcode Op, int64_t A, int64_t B, int64_t &Out) {
  auto U = [](int64_t V) { return static_cast<uint64_t>(V); };
  switch (Op) {
  case Opcode::Iadd:
    Out = static_cast<int64_t>(U(A) + U(B));
    return true;
  case Opcode::Isub:
    Out = static_cast<int64_t>(U(A) - U(B));
    return true;
  case Opcode::Imul:
    Out = static_cast<int64_t>(U(A) * U(B));
    return true;
  case Opcode::Iand:
    Out = A & B;
    return true;
  case Opcode::Ior:
    Out = A | B;
    return true;
  case Opcode::Ixor:
    Out = A ^ B;
    return true;
  case Opcode::Ishl:
    Out = static_cast<int64_t>(U(A) << (B & 63));
    return true;
  case Opcode::Ishr:
    Out = A >> (B & 63);
    return true;
  case Opcode::Iushr:
    Out = static_cast<int64_t>(U(A) >> (B & 63));
    return true;
  case Opcode::Idiv:
  case Opcode::Irem: {
    if (B == 0)
      return false;
    bool Div = Op == Opcode::Idiv;
    if (A == DivOverflowDividend && B == DivOverflowDivisor)
      Out = Div ? A : 0;
    else
      Out = Div ? A / B : A % B;
    return true;
  }
  default:
    assert(false && "not a binary opcode");
    return false;
  }
}

/// ineg: wrapping negation (the most negative value is its own negation).
constexpr int64_t evalNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}

/// Whether conditional branch \p Op jumps. \p A is its operand, or the
/// deeper of two; \p B is the top of two and ignored by a one-operand
/// branch, which compares \p A against zero.
constexpr bool evalBranch(Opcode Op, int64_t A, int64_t B) {
  if (branchArity(Op) == 1)
    B = 0;
  switch (cmpKind(Op)) {
  case CmpKind::Eq:
    return A == B;
  case CmpKind::Ne:
    return A != B;
  case CmpKind::Lt:
    return A < B;
  case CmpKind::Ge:
    return A >= B;
  case CmpKind::Gt:
    return A > B;
  case CmpKind::Le:
    return A <= B;
  }
  return false;
}

/// Which dynamic checks of a heap access a trace proved redundant. The
/// value is the most checks the level can skip.
enum class ElideLevel : uint8_t {
  None = 0,     ///< Run every check.
  NullOnly = 1, ///< Skip the liveness/class check; keep the bounds check.
  Full = 2,     ///< Skip every check: the access provably cannot trap.
};

/// Dynamic checks heap access \p Op runs with nothing elided: the
/// liveness/class check, plus a bounds check for all but arraylength.
/// Zero for every other opcode.
constexpr unsigned heapChecks(Opcode Op) {
  switch (Op) {
  case Opcode::GetField:
  case Opcode::PutField:
  case Opcode::Iaload:
  case Opcode::Iastore:
    return 2;
  case Opcode::ArrayLength:
    return 1;
  default:
    return 0;
  }
}

/// Checks heap access \p Op skips at level \p L: the weight each elided
/// access adds to the checks-elided statistic, on either tier.
constexpr unsigned elisionWeight(Opcode Op, ElideLevel L) {
  unsigned Skipped = static_cast<unsigned>(L);
  return Skipped < heapChecks(Op) ? Skipped : heapChecks(Op);
}

} // namespace jtc

#endif // JTC_BYTECODE_OPSEMANTICS_H
