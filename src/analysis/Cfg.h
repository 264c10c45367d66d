//===- analysis/Cfg.h - Per-method control-flow graph -----------*- C++ -*-===//
///
/// \file
/// Basic-block control-flow graph for a single method, plus the
/// reverse-post-order schedule the dataflow solver iterates in. Blocks
/// are cut by the leader rule of bytecode/ControlFlow.h, the rule
/// PreparedModule cuts by, so a method's CFG blocks are its prepared
/// blocks in order. Edges follow the same header's forEachTarget and
/// fallsThrough: targets first (a switch's default before its cases),
/// fallthrough last. Calls are fallthrough edges here because the
/// callee's effects are interprocedural.
///
/// Construction requires a structurally valid method (all branch targets
/// in range) -- run the structural verifier pass first.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_ANALYSIS_CFG_H
#define JTC_ANALYSIS_CFG_H

#include "bytecode/Program.h"

#include <cstdint>
#include <memory_resource>
#include <span>
#include <vector>

namespace jtc {
namespace analysis {

struct CfgBlock {
  uint32_t Start = 0; ///< First instruction index.
  uint32_t End = 0;   ///< One past the last instruction index.
  std::span<const uint32_t> Succs; ///< Into the owning MethodCfg.
  std::span<const uint32_t> Preds; ///< Into the owning MethodCfg.
};

class MethodCfg {
public:
  /// The graph's tables are allocated from \p Mem.
  MethodCfg(const Module &M, uint32_t MethodId,
            std::pmr::memory_resource *Mem = std::pmr::get_default_resource());
  // Pinned: the blocks' edge lists point into Edges.
  MethodCfg(const MethodCfg &) = delete;
  MethodCfg &operator=(const MethodCfg &) = delete;

  uint32_t methodId() const { return MethodIdx; }
  const Method &method() const { return Mod->Methods[MethodIdx]; }
  const Module &module() const { return *Mod; }

  uint32_t numBlocks() const { return static_cast<uint32_t>(Blocks.size()); }
  const CfgBlock &block(uint32_t Id) const { return Blocks[Id]; }

  /// Id of the block containing instruction \p Pc.
  uint32_t blockAt(uint32_t Pc) const { return BlockOfPc[Pc]; }

  /// True when \p Pc is the first instruction of its block.
  bool isLeader(uint32_t Pc) const { return Blocks[BlockOfPc[Pc]].Start == Pc; }

  /// Reverse post-order over blocks reachable from the entry by raw edges
  /// (before any constant-based pruning). Blocks not listed here are
  /// structurally unreachable.
  std::span<const uint32_t> rpo() const { return Rpo; }

  /// Position of each block in rpo(), or UINT32_MAX for structurally
  /// unreachable blocks. Used as the solver's worklist priority.
  uint32_t rpoIndex(uint32_t Block) const { return RpoIndex[Block]; }

private:
  const Module *Mod;
  uint32_t MethodIdx;
  std::pmr::vector<CfgBlock> Blocks;
  /// Every block's successor list, then every block's predecessor list.
  std::pmr::vector<uint32_t> Edges;
  std::pmr::vector<uint32_t> BlockOfPc;
  std::pmr::vector<uint32_t> Rpo;
  std::pmr::vector<uint32_t> RpoIndex;
};

} // namespace analysis
} // namespace jtc

#endif // JTC_ANALYSIS_CFG_H
