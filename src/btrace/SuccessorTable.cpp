//===- btrace/SuccessorTable.cpp ------------------------------------------===//

#include "btrace/SuccessorTable.h"

using namespace jtc;
using namespace jtc::btrace;

SuccessorTable::SuccessorTable(const PreparedModule &PM) {
  size_t N = PM.numBlocks();
  Infos.resize(N);
  MethodEntry.resize(N, false);

  // Preparation has resolved every successor to a block; this table only
  // classifies the transfer and keeps the successors the stream needs.
  const Module &M = PM.module();
  for (BlockId B = 0; B < N; ++B) {
    const BasicBlock &BB = PM.block(B);
    MethodEntry[B] = BB.StartPc == 0;
    const Instruction &Last = M.Methods[BB.MethodId].Code[BB.EndPc - 1];
    SuccInfo &I = Infos[B];
    switch (opKind(Last.Op)) {
    case OpKind::Normal: // Block ends because EndPc is a leader.
      I.Kind = SuccKind::FallThrough;
      I.Fall = BB.Fall;
      break;
    case OpKind::Jump:
      I.Kind = SuccKind::Jump;
      I.Taken = BB.Taken;
      break;
    case OpKind::Branch:
      I.Taken = BB.Taken;
      I.Fall = BB.Fall;
      // A branch whose two arms are the same block decides nothing; as a
      // Jump it costs no TNT bit, and encoder and decoder must agree on
      // the degradation.
      I.Kind = I.Taken == I.Fall ? SuccKind::Jump : SuccKind::CondBranch;
      break;
    case OpKind::Switch:
      I.Kind = SuccKind::Indirect;
      break;
    case OpKind::Call:
      I.Kind = Last.Op == Opcode::InvokeStatic ? SuccKind::StaticCall
                                               : SuccKind::IndirectCall;
      I.Taken = BB.Taken; // The callee's entry; unset for invokevirtual.
      I.Fall = BB.Fall;
      break;
    case OpKind::Ret:
      I.Kind = SuccKind::Ret;
      break;
    case OpKind::End:
      I.Kind = SuccKind::Halt;
      break;
    }
  }
}
