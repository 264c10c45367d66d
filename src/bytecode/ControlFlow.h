//===- bytecode/ControlFlow.h - The block partition rule --------*- C++ -*-===//
///
/// \file
/// The one statement of the instruction set's control-flow rule: which
/// pcs an instruction can transfer control to, whether it falls through,
/// and hence where basic blocks begin. In the paper's dispatch model
/// (section 3.1) a block ends at every control transfer, and the profiler
/// hook and trace entries sit on block boundaries, so every layer must
/// cut methods the same way: preparation (PreparedModule's block ids,
/// which BCG nodes, traces and btrace streams name), the analysis CFG
/// (whose pc-keyed facts the JIT reads), the verifier's block-annotated
/// errors and the assembly writer's labels all walk these templates.
///
/// Header-only: jtc_analysis uses bytecode headers without a link edge.
/// The templates take the callback by forwarding reference, so a caller's
/// lambda inlines into its loop.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BYTECODE_CONTROLFLOW_H
#define JTC_BYTECODE_CONTROLFLOW_H

#include "bytecode/Program.h"

#include <cstdint>

namespace jtc {

/// True when control may continue at the next instruction after \p Op:
/// plain instructions, a conditional branch's not-taken arm and a call's
/// continuation.
constexpr bool fallsThrough(Opcode Op) {
  switch (opKind(Op)) {
  case OpKind::Normal:
  case OpKind::Branch:
  case OpKind::Call:
    return true;
  case OpKind::Jump:
  case OpKind::Switch:
  case OpKind::Ret:
  case OpKind::End:
    return false;
  }
  return false;
}

/// Calls \p Fn(Pc) for every explicit control-flow target of \p I, an
/// instruction of \p Mth: a branch or goto target; for a tableswitch its
/// default, then its cases in table order (repeats included). Targets are
/// reported unchecked. A tableswitch whose table index is out of range
/// reports nothing: only unverified code has one, and the verifier
/// reports it. Fallthrough is not a target; see fallsThrough().
template <typename F>
void forEachTarget(const Method &Mth, const Instruction &I, F &&Fn) {
  switch (opKind(I.Op)) {
  case OpKind::Branch:
  case OpKind::Jump:
    Fn(static_cast<uint32_t>(I.A));
    break;
  case OpKind::Switch: {
    if (I.A < 0 || static_cast<size_t>(I.A) >= Mth.SwitchTables.size())
      break;
    const SwitchTable &T = Mth.SwitchTables[static_cast<uint32_t>(I.A)];
    Fn(T.DefaultTarget);
    for (uint32_t Tgt : T.Targets)
      Fn(Tgt);
    break;
  }
  case OpKind::Normal:
  case OpKind::Call:
  case OpKind::Ret:
  case OpKind::End:
    break;
  }
}

/// Calls \p Fn(Pc) for every block leader of \p Mth, in pc order of the
/// instruction that makes it one: pc 0 first, then per instruction its
/// targets (forEachTarget) and, after a block-ending instruction that is
/// not the method's last, pc + 1. A leader may be reported more than
/// once; targets are unchecked, as in forEachTarget.
template <typename F> void forEachLeader(const Method &Mth, F &&Fn) {
  Fn(uint32_t{0});
  const auto N = static_cast<uint32_t>(Mth.Code.size());
  for (uint32_t Pc = 0; Pc < N; ++Pc) {
    const Instruction &I = Mth.Code[Pc];
    forEachTarget(Mth, I, Fn);
    if (endsBlock(I.Op) && Pc + 1 < N)
      Fn(Pc + 1);
  }
}

} // namespace jtc

#endif // JTC_BYTECODE_CONTROLFLOW_H
