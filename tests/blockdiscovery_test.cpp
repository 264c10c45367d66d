//===- tests/blockdiscovery_test.cpp - Basic-block preparation ------------===//
///
/// \file
/// PreparedModule's block discovery on hand-built shapes, and the layers
/// that cut methods into blocks agreeing on random programs, the six
/// workloads and the checked-in corpus: prepared blocks tile every
/// method, and the analysis CFG has the same blocks and the same
/// intra-method successors.
///
/// JTC_CORPUS_DIR is injected by the build (tests/CMakeLists.txt).
///
//===----------------------------------------------------------------------===//

#include "interp/PreparedModule.h"

#include "TestPrograms.h"
#include "analysis/Cfg.h"
#include "bytecode/Assembler.h"
#include "text/AsmParser.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace jtc;

namespace {

Module singleMethod(std::vector<Instruction> Code, uint32_t Locals = 2) {
  Module M;
  Method Main;
  Main.Name = "main";
  Main.NumLocals = Locals;
  Main.Code = std::move(Code);
  M.Methods.push_back(std::move(Main));
  return M;
}

/// PreparedModule's successors of \p B inside its own method: Taken for
/// a branch or goto, every target of a tableswitch, and Fall when the
/// block's last instruction falls through (a plain instruction before a
/// leader, a branch's not-taken arm, a call's continuation). Read from
/// the decoded code, not from the leader rule.
std::set<BlockId> preparedSuccessors(const PreparedModule &PM, BlockId B) {
  const BasicBlock &BB = PM.block(B);
  const CodeSlot &Last = PM.code()[BB.FirstSlot + BB.numInstructions() - 1];
  std::set<BlockId> Succs;
  switch (opKind(PM.module().Methods[BB.MethodId].Code[BB.EndPc - 1].Op)) {
  case OpKind::Branch:
    Succs.insert(BB.Taken);
    Succs.insert(BB.Fall);
    break;
  case OpKind::Jump:
    Succs.insert(BB.Taken);
    break;
  case OpKind::Switch: {
    const SwitchCode &SC = PM.switchCode(static_cast<uint32_t>(Last.A));
    Succs.insert(SC.Default);
    Succs.insert(PM.switchTargets() + SC.FirstTarget,
                 PM.switchTargets() + SC.FirstTarget + SC.NumTargets);
    break;
  }
  case OpKind::Normal:
  case OpKind::Call:
    if (BB.Fall != InvalidBlockId)
      Succs.insert(BB.Fall);
    break;
  case OpKind::Ret:
  case OpKind::End:
    break;
  }
  return Succs;
}

/// Prepared blocks tile each method's code exactly, in order, with no gaps
/// or overlaps, and only the last instruction may transfer control; each
/// method's analysis CFG has the same blocks in the same order, and each
/// CFG block's successors, as global block ids, are PreparedModule's.
void expectLayersAgree(const Module &M, const std::string &Name) {
  SCOPED_TRACE(Name);
  PreparedModule PM(M);
  std::vector<uint32_t> NextStart(M.Methods.size(), 0);
  for (BlockId B = 0; B < PM.numBlocks(); ++B) {
    const BasicBlock &BB = PM.block(B);
    EXPECT_EQ(BB.StartPc, NextStart[BB.MethodId]) << "block " << B;
    EXPECT_GT(BB.EndPc, BB.StartPc);
    NextStart[BB.MethodId] = BB.EndPc;
    const Method &Mth = M.Methods[BB.MethodId];
    for (uint32_t Pc = BB.StartPc; Pc + 1 < BB.EndPc; ++Pc)
      EXPECT_FALSE(endsBlock(Mth.Code[Pc].Op))
          << "control transfer mid-block at pc " << Pc;
  }
  for (uint32_t Mi = 0; Mi < M.Methods.size(); ++Mi) {
    EXPECT_EQ(NextStart[Mi], M.Methods[Mi].Code.size())
        << "method " << Mi << " not fully tiled";

    analysis::MethodCfg Cfg(M, Mi);
    const BlockId First = PM.methodEntryBlock(Mi);
    const BlockId End = Mi + 1 < M.Methods.size() ? PM.methodEntryBlock(Mi + 1)
                                                  : PM.numBlocks();
    ASSERT_EQ(Cfg.numBlocks(), End - First) << "method " << Mi;
    for (uint32_t C = 0; C < Cfg.numBlocks(); ++C) {
      const analysis::CfgBlock &CB = Cfg.block(C);
      const BasicBlock &BB = PM.block(First + C);
      EXPECT_EQ(CB.Start, BB.StartPc) << "method " << Mi << " block " << C;
      EXPECT_EQ(CB.End, BB.EndPc) << "method " << Mi << " block " << C;
      std::set<BlockId> CfgSuccs;
      for (uint32_t S : CB.Succs)
        CfgSuccs.insert(First + S);
      EXPECT_EQ(CfgSuccs, preparedSuccessors(PM, First + C))
          << "method " << Mi << " block " << C;
    }
  }
}

} // namespace

TEST(BlockDiscoveryTest, StraightLineIsOneBlock) {
  Module M = singleMethod({Instruction(Opcode::Iconst, 1),
                           Instruction(Opcode::Iconst, 2),
                           Instruction(Opcode::Iadd),
                           Instruction(Opcode::Pop),
                           Instruction(Opcode::Halt)});
  PreparedModule PM(M);
  EXPECT_EQ(PM.numBlocks(), 1u);
  EXPECT_EQ(PM.block(0).StartPc, 0u);
  EXPECT_EQ(PM.block(0).EndPc, 5u);
  EXPECT_EQ(PM.blockSize(0), 5u);
}

TEST(BlockDiscoveryTest, ConditionalBranchMakesThreeBlocks) {
  // 0: iconst, 1: ifeq ->4, 2: nop, 3: halt, 4: halt
  Module M = singleMethod({Instruction(Opcode::Iconst, 0),
                           Instruction(Opcode::IfEq, 4),
                           Instruction(Opcode::Nop),
                           Instruction(Opcode::Halt),
                           Instruction(Opcode::Halt)});
  PreparedModule PM(M);
  EXPECT_EQ(PM.numBlocks(), 3u);
  EXPECT_EQ(PM.block(0).EndPc, 2u);       // [0, 2): ends at the branch
  EXPECT_EQ(PM.blockStartingAt(0, 2), 1u); // fallthrough leader
  EXPECT_EQ(PM.blockStartingAt(0, 4), 2u); // branch target leader
}

TEST(BlockDiscoveryTest, CallEndsBlockAndContinuationLeads) {
  Module M = singleMethod({Instruction(Opcode::InvokeStatic, 1),
                           Instruction(Opcode::Halt)});
  Method F;
  F.Name = "f";
  F.Code = {Instruction(Opcode::Return)};
  M.Methods.push_back(std::move(F));
  PreparedModule PM(M);
  // main: [invoke], [halt]; f: [return]
  EXPECT_EQ(PM.numBlocks(), 3u);
  EXPECT_EQ(PM.block(0).EndPc, 1u);
  EXPECT_EQ(PM.blockStartingAt(0, 1), 1u);
  EXPECT_EQ(PM.methodEntryBlock(1), 2u);
}

TEST(BlockDiscoveryTest, FallthroughIntoBranchTargetSplitsBlock) {
  // A backward-branch target in the middle of straight-line code forces a
  // block boundary even though no control transfer precedes it.
  // 0: nop, 1: nop (target), 2: iconst, 3: ifeq -> 1, 4: halt
  Module M = singleMethod({Instruction(Opcode::Nop), Instruction(Opcode::Nop),
                           Instruction(Opcode::Iconst, 0),
                           Instruction(Opcode::IfEq, 1),
                           Instruction(Opcode::Halt)});
  PreparedModule PM(M);
  EXPECT_EQ(PM.numBlocks(), 3u);
  EXPECT_EQ(PM.block(0).EndPc, 1u) << "block falls through into the leader";
  EXPECT_EQ(PM.block(1).StartPc, 1u);
  EXPECT_EQ(PM.block(1).EndPc, 4u);
}

TEST(BlockDiscoveryTest, SwitchTargetsAllLead) {
  Module M = singleMethod({Instruction(Opcode::Iconst, 0),
                           Instruction(Opcode::Tableswitch, 0),
                           Instruction(Opcode::Halt),
                           Instruction(Opcode::Halt),
                           Instruction(Opcode::Halt)});
  SwitchTable T;
  T.Low = 0;
  T.Targets = {2, 3};
  T.DefaultTarget = 4;
  M.Methods[0].SwitchTables.push_back(T);
  PreparedModule PM(M);
  EXPECT_EQ(PM.numBlocks(), 4u);
  EXPECT_EQ(PM.blockStartingAt(0, 2), 1u);
  EXPECT_EQ(PM.blockStartingAt(0, 3), 2u);
  EXPECT_EQ(PM.blockStartingAt(0, 4), 3u);
}

TEST(BlockDiscoveryTest, BlocksPartitionEveryMethod) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    testprog::RandomProgramBuilder Gen(Seed);
    expectLayersAgree(Gen.build(), "seed " + std::to_string(Seed));
  }
  for (const WorkloadInfo &W : allWorkloads())
    expectLayersAgree(W.Build(std::max(W.DefaultScale / 20, 1u)), W.Name);
  std::vector<std::string> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(JTC_CORPUS_DIR))
    if (Entry.path().extension() == ".jasm")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty()) << "no corpus under " << JTC_CORPUS_DIR;
  for (const std::string &Path : Files) {
    std::string Error;
    std::optional<Module> M = parseModuleFile(Path, Error);
    ASSERT_TRUE(M) << Path << ": " << Error;
    expectLayersAgree(*M, Path);
  }
}

TEST(BlockDiscoveryTest, EntryBlockMatchesEntryMethod) {
  Module M = testprog::countingLoop(3);
  PreparedModule PM(M);
  EXPECT_EQ(PM.entryBlock(), PM.methodEntryBlock(M.EntryMethod));
  EXPECT_EQ(PM.block(PM.entryBlock()).StartPc, 0u);
}

TEST(BlockDiscoveryTest, DumpListsAllBlocks) {
  Module M = testprog::countingLoop(3);
  PreparedModule PM(M);
  std::ostringstream OS;
  PM.dump(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("prepared module"), std::string::npos);
  for (BlockId B = 0; B < PM.numBlocks(); ++B)
    EXPECT_NE(Out.find("block " + std::to_string(B)), std::string::npos);
}
