//===- btrace/SuccessorTable.h - Static successor classification -*- C++ -*-===//
///
/// \file
/// The static control-flow knowledge both ends of the btrace pipeline
/// share: for every basic block, how its last instruction transfers
/// control and which successors are statically known. The encoder
/// consults it to decide what (if anything) a transition costs on the
/// wire; the decoder consults it to re-infer every transition the
/// encoder omitted. It is the moral equivalent of the binary image a
/// hardware-trace decoder walks.
///
/// The successors themselves are PreparedModule's: each BasicBlock's
/// Taken and Fall, resolved once by preparation under the block rule of
/// bytecode/ControlFlow.h. The table adds only the classification, and
/// keeps of those successors the ones its kind uses.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BTRACE_SUCCESSORTABLE_H
#define JTC_BTRACE_SUCCESSORTABLE_H

#include "interp/PreparedModule.h"
#include "support/Ids.h"

#include <vector>

namespace jtc {
namespace btrace {

/// How a block's last instruction transfers control, from the stream's
/// point of view.
enum class SuccKind : uint8_t {
  FallThrough,  ///< Next is the leader at EndPc. Free.
  Jump,         ///< Unconditional; Next is Taken. Free.
  CondBranch,   ///< Taken or Fall, decided at runtime. One TNT bit.
  Indirect,     ///< Tableswitch: dynamic target. One TIP packet.
  StaticCall,   ///< InvokeStatic: Next is the callee entry (Taken); the
                ///< continuation (Fall) goes on the shadow stack. Free.
  IndirectCall, ///< InvokeVirtual: dynamic callee. One TIP packet; the
                ///< continuation (Fall) goes on the shadow stack.
  Ret,          ///< Next is the shadow-stack top. Free.
  Halt,         ///< No successor, ever.
};

/// The static successors of one block. Slots the kind does not use are
/// InvalidBlockId: Fall is set only for FallThrough, CondBranch and the
/// two call kinds, Taken only for Jump, CondBranch and StaticCall.
struct SuccInfo {
  SuccKind Kind = SuccKind::Halt;
  BlockId Taken = InvalidBlockId; ///< Branch/jump target or static callee.
  BlockId Fall = InvalidBlockId;  ///< Fallthrough / call continuation.
};

/// Per-block successor classification over one PreparedModule.
class SuccessorTable {
public:
  /// \p PM must outlive the table.
  explicit SuccessorTable(const PreparedModule &PM);

  size_t numBlocks() const { return Infos.size(); }

  const SuccInfo &info(BlockId B) const { return Infos[B]; }

  /// True when \p B is a method entry (pc 0), the only legal target of
  /// an indirect call.
  bool isMethodEntry(BlockId B) const { return MethodEntry[B]; }

  /// True for kinds whose transition carries no wire bytes.
  static bool inferable(SuccKind K) {
    return K != SuccKind::CondBranch && K != SuccKind::Indirect &&
           K != SuccKind::IndirectCall;
  }

private:
  std::vector<SuccInfo> Infos;
  std::vector<bool> MethodEntry;
};

} // namespace btrace
} // namespace jtc

#endif // JTC_BTRACE_SUCCESSORTABLE_H
