//===- interp/PreparedModule.h - Basic-block discovery ----------*- C++ -*-===//
///
/// \file
/// Code preparation for the direct-threaded-inlining dispatch model
/// (paper section 3.1, following Piumarta & Riccardi and SableVM): every
/// method is partitioned into basic blocks, and the block interpreter
/// dispatches one block at a time. Blocks end at any control-transfer
/// instruction -- branches, jumps, switches, calls, returns, halt -- or
/// where the next instruction is a branch target (fallthrough into a
/// leader). Block ids are globally unique across the module. The leader
/// rule is bytecode/ControlFlow.h's, the one the analysis CFG and the
/// verifier's block-indexed errors also cut by; btrace's SuccessorTable
/// reads each block's resolved successors rather than recomputing them.
///
/// Preparation also pre-decodes the whole module into one flat slot array
/// -- the code the block executor (BlockStepper::step) runs. Each block
/// owns a contiguous run of slots, ended by a synthetic FallThrough slot
/// when its last instruction does not transfer control, and records the
/// block ids of its taken and fallthrough successors. Every branch,
/// switch, call target and call continuation is thereby resolved to a
/// block once per module; nothing is decoded or looked up per
/// instruction. The decoded code is immutable after construction and
/// shared by every session over the module.
///
/// The module's static analysis (facts()) is shared the same way: each
/// method's facts are computed the first time any session's JIT
/// promotion (lowering, validation, check elision) asks for them, and
/// never again. The native code the JIT compiles for a trace shape is
/// module state too (backendState()), together with the validation
/// verdict and check-elision facts it was compiled under: the first
/// session that promotes the shape proves and compiles it, and every
/// later session over the module reuses both. It is held type-erased so
/// this layer knows no backend type.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_INTERP_PREPAREDMODULE_H
#define JTC_INTERP_PREPAREDMODULE_H

#include "analysis/Analysis.h"
#include "bytecode/Program.h"
#include "support/Ids.h"

#include <cassert>
#include <memory>
#include <mutex>
#include <ostream>
#include <utility>
#include <vector>

namespace jtc {

/// One basic block: the half-open instruction range [StartPc, EndPc) of a
/// method. The block's last instruction either transfers control or falls
/// through into the leader at EndPc.
struct BasicBlock {
  uint32_t MethodId = 0;
  uint32_t StartPc = 0;
  uint32_t EndPc = 0;
  /// Index of the block's first slot in PreparedModule::code().
  uint32_t FirstSlot = 0;
  /// Branch / goto target; for invokestatic, the callee's entry block.
  BlockId Taken = InvalidBlockId;
  /// Block at EndPc: the fallthrough, not-taken or call-continuation
  /// successor (InvalidBlockId when EndPc is the end of the method).
  BlockId Fall = InvalidBlockId;

  uint32_t numInstructions() const { return EndPc - StartPc; }
};

/// Operation of one decoded slot: every Opcode, plus FallThrough, the
/// synthetic dispatch ending a block whose last instruction falls into
/// the next leader (the dispatch code a direct-threaded-inlining system
/// appends to such a block).
enum class SlotOp : uint8_t {
#define JTC_OPCODE(Name, Mnemonic, Pops, Pushes, Kind) Name,
#include "bytecode/Opcodes.def"
  FallThrough,
};

/// One pre-decoded instruction, 8 bytes.
struct CodeSlot {
  SlotOp Op = SlotOp::Nop;
  /// iinc: the local index (the delta is in A); invokevirtual: the
  /// slot's argument count, receiver included. Both are bounded by
  /// MaxMethodLocals.
  uint16_t X = 0;
  /// The instruction's A operand, except: iinc -- the delta; tableswitch
  /// -- index into PreparedModule::switchCode(); branches and goto --
  /// unused (the block's Taken successor is the target).
  int32_t A = 0;
};
static_assert(sizeof(CodeSlot) == 8, "decoded slots are two words");

/// A tableswitch with its targets resolved to blocks.
struct SwitchCode {
  int64_t Low = 0;
  uint32_t FirstTarget = 0; ///< Index into PreparedModule::switchTargets().
  uint32_t NumTargets = 0;
  BlockId Default = InvalidBlockId;
};

/// A verified Module plus its discovered basic blocks and their decoded
/// code.
class PreparedModule {
public:
  /// Prepares \p M. The module must outlive the PreparedModule and should
  /// already have passed the verifier (preparation asserts on structural
  /// errors instead of reporting them).
  explicit PreparedModule(const Module &M);

  const Module &module() const { return *M; }

  /// The module's per-method static analysis, computed on demand and
  /// shared by every session over this PreparedModule.
  const analysis::ModuleAnalysis &facts() const { return Facts; }

  /// The module-lifetime state of the native tier (the JIT's code
  /// cache), shared by every session over this PreparedModule. The first
  /// call constructs it from \p Args, thread-safely; later calls return
  /// it and ignore theirs. Held type-erased: every caller must name the
  /// same \p T.
  template <typename T, typename... ArgTs>
  T &backendState(ArgTs &&...Args) const {
    std::call_once(BackendOnce, [&] {
      Backend = std::make_shared<T>(std::forward<ArgTs>(Args)...);
    });
    return *static_cast<T *>(Backend.get());
  }

  size_t numBlocks() const { return Blocks.size(); }

  const BasicBlock &block(BlockId B) const {
    assert(B < Blocks.size() && "invalid block id");
    return Blocks[B];
  }

  /// The block whose first instruction is (\p MethodId, \p Pc). \p Pc must
  /// be a leader: every pc that can be reached by a control transfer
  /// (branch target, call continuation, method entry) is one. A binary
  /// search over the method's blocks -- the executor never needs it, since
  /// every block records its successors.
  BlockId blockStartingAt(uint32_t MethodId, uint32_t Pc) const;

  /// Entry block of \p MethodId (its pc 0 block). A method's blocks are
  /// numbered consecutively in pc order, starting with its entry block.
  BlockId methodEntryBlock(uint32_t MethodId) const {
    assert(MethodId + 1 < MethodBlocks.size() && "invalid method");
    return MethodBlocks[MethodId];
  }

  /// Entry block of the module's entry method.
  BlockId entryBlock() const { return methodEntryBlock(M->EntryMethod); }

  /// Instruction count of block \p B, used when attributing executed
  /// instructions to traces.
  uint32_t blockSize(BlockId B) const { return block(B).numInstructions(); }

  /// The decoded code: every block's slots, in block-id order.
  const CodeSlot *code() const { return Code.data(); }

  /// Decoded slots, including the synthetic FallThrough slots.
  size_t codeSize() const { return Code.size(); }

  const SwitchCode &switchCode(uint32_t Idx) const {
    assert(Idx < Switches.size() && "invalid switch index");
    return Switches[Idx];
  }
  const BlockId *switchTargets() const { return SwitchTargets.data(); }

  /// Dumps the block structure, one line per block.
  void dump(std::ostream &OS) const;

private:
  void decode(const std::vector<BlockId> &LeaderToBlock,
              const std::vector<uint32_t> &PcBase, size_t NumSlots);

  const Module *M;
  std::vector<BasicBlock> Blocks;
  /// Per method: its first block id; one extra entry holds numBlocks().
  std::vector<BlockId> MethodBlocks;
  std::vector<CodeSlot> Code;
  std::vector<SwitchCode> Switches;
  std::vector<BlockId> SwitchTargets;
  analysis::ModuleAnalysis Facts;
  mutable std::once_flag BackendOnce;
  mutable std::shared_ptr<void> Backend;
};

} // namespace jtc

#endif // JTC_INTERP_PREPAREDMODULE_H
