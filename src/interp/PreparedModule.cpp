//===- interp/PreparedModule.cpp ------------------------------------------===//

#include "interp/PreparedModule.h"

#include "bytecode/ControlFlow.h"

#include <algorithm>

using namespace jtc;

PreparedModule::PreparedModule(const Module &Mod) : M(&Mod), Facts(Mod) {
  // Flat (method, pc) -> block map, indexed from each method's PcBase:
  // the id of the block a leader pc starts, else InvalidBlockId. Only
  // needed while decoding.
  std::vector<uint32_t> PcBase(Mod.Methods.size());
  size_t NumPcs = 0;
  for (uint32_t MethodId = 0; MethodId < Mod.Methods.size(); ++MethodId) {
    PcBase[MethodId] = static_cast<uint32_t>(NumPcs);
    NumPcs += Mod.Methods[MethodId].Code.size();
  }
  std::vector<BlockId> LeaderToBlock(NumPcs, InvalidBlockId);

  // Pass 1: mark leaders (with block id 0 until pass 2 numbers them) by
  // the rule of bytecode/ControlFlow.h. Every leader starts one block.
  size_t NumLeaders = 0;
  for (uint32_t MethodId = 0; MethodId < Mod.Methods.size(); ++MethodId) {
    const Method &Mth = Mod.Methods[MethodId];
    auto CodeSize = static_cast<uint32_t>(Mth.Code.size());
    assert(CodeSize > 0 && "prepared methods must have code");
    BlockId *Leader = LeaderToBlock.data() + PcBase[MethodId];
    forEachLeader(Mth, [&](uint32_t Pc) {
      assert(Pc <= CodeSize && "unverified target");
      if (Pc < CodeSize && Leader[Pc] == InvalidBlockId) {
        Leader[Pc] = 0;
        ++NumLeaders;
      }
    });
  }

  // Pass 2: cut a block before every leader (the pc after a block-ending
  // instruction is one) and at the end of the method.
  Blocks.reserve(NumLeaders);
  MethodBlocks.reserve(Mod.Methods.size() + 1);
  size_t NumSlots = 0;
  for (uint32_t MethodId = 0; MethodId < Mod.Methods.size(); ++MethodId) {
    const Method &Mth = Mod.Methods[MethodId];
    auto CodeSize = static_cast<uint32_t>(Mth.Code.size());
    BlockId *Leader = LeaderToBlock.data() + PcBase[MethodId];
    MethodBlocks.push_back(static_cast<BlockId>(Blocks.size()));
    uint32_t Start = 0;
    for (uint32_t Pc = 0; Pc < CodeSize; ++Pc) {
      if (Pc + 1 < CodeSize && Leader[Pc + 1] == InvalidBlockId)
        continue;
      bool Ends = endsBlock(Mth.Code[Pc].Op);
      Leader[Start] = static_cast<BlockId>(Blocks.size());
      BasicBlock BB;
      BB.MethodId = MethodId;
      BB.StartPc = Start;
      BB.EndPc = Pc + 1;
      Blocks.push_back(BB);
      // A block that falls through gets a synthetic dispatch slot.
      NumSlots += BB.numInstructions() + !Ends;
      Start = Pc + 1;
    }
  }
  MethodBlocks.push_back(static_cast<BlockId>(Blocks.size()));
  assert(Blocks.size() == NumLeaders && "every leader starts one block");

  decode(LeaderToBlock, PcBase, NumSlots);
}

BlockId PreparedModule::blockStartingAt(uint32_t MethodId, uint32_t Pc) const {
  assert(MethodId + 1 < MethodBlocks.size() && "invalid method");
  auto First = Blocks.begin() + MethodBlocks[MethodId];
  auto Last = Blocks.begin() + MethodBlocks[MethodId + 1];
  auto It = std::partition_point(
      First, Last, [Pc](const BasicBlock &BB) { return BB.StartPc < Pc; });
  assert(It != Last && It->StartPc == Pc && "pc is not a block leader");
  return static_cast<BlockId>(It - Blocks.begin());
}

void PreparedModule::decode(const std::vector<BlockId> &LeaderToBlock,
                            const std::vector<uint32_t> &PcBase,
                            size_t NumSlots) {
  auto LeaderBlock = [&](uint32_t MethodId, uint32_t Pc) {
    BlockId B = LeaderToBlock[PcBase[MethodId] + Pc];
    assert(B != InvalidBlockId && "target is not a block leader");
    return B;
  };
  // Exact sizes up front: the code lives as long as the module.
  size_t NumTargets = 0, NumSwitches = 0;
  for (const Method &Mth : M->Methods) {
    NumSwitches += Mth.SwitchTables.size();
    for (const SwitchTable &T : Mth.SwitchTables)
      NumTargets += T.Targets.size();
  }
  Code.resize(NumSlots);
  Switches.reserve(NumSwitches);
  SwitchTargets.reserve(NumTargets);

  CodeSlot *Out = Code.data();
  for (BasicBlock &BB : Blocks) {
    const Method &Mth = M->Methods[BB.MethodId];
    const uint32_t CodeSize = static_cast<uint32_t>(Mth.Code.size());
    BB.FirstSlot = static_cast<uint32_t>(Out - Code.data());
    if (BB.EndPc < CodeSize)
      BB.Fall = LeaderBlock(BB.MethodId, BB.EndPc);
    for (uint32_t Pc = BB.StartPc; Pc < BB.EndPc; ++Pc) {
      const Instruction &I = Mth.Code[Pc];
      CodeSlot &S = *Out++;
      S.Op = static_cast<SlotOp>(I.Op);
      S.A = I.A;
      if (I.Op == Opcode::Iinc) {
        assert(static_cast<uint32_t>(I.A) <= MaxMethodLocals &&
               "unverified local index");
        S.X = static_cast<uint16_t>(I.A);
        S.A = I.B;
      }
      switch (opKind(I.Op)) {
      case OpKind::Branch:
      case OpKind::Jump:
        BB.Taken = LeaderBlock(BB.MethodId, static_cast<uint32_t>(I.A));
        break;
      case OpKind::Switch: {
        const SwitchTable &T = Mth.SwitchTables[I.A];
        SwitchCode SC;
        SC.Low = T.Low;
        SC.FirstTarget = static_cast<uint32_t>(SwitchTargets.size());
        SC.NumTargets = static_cast<uint32_t>(T.Targets.size());
        SC.Default = LeaderBlock(BB.MethodId, T.DefaultTarget);
        for (uint32_t Tgt : T.Targets)
          SwitchTargets.push_back(LeaderBlock(BB.MethodId, Tgt));
        S.A = static_cast<int32_t>(Switches.size());
        Switches.push_back(SC);
        break;
      }
      case OpKind::Call:
        if (I.Op == Opcode::InvokeStatic)
          BB.Taken = methodEntryBlock(static_cast<uint32_t>(I.A));
        else {
          assert(M->Slots[I.A].ArgCount <= MaxMethodLocals &&
                 "unverified slot argument count");
          S.X = static_cast<uint16_t>(M->Slots[I.A].ArgCount);
        }
        break;
      default:
        break;
      }
    }
    if (!endsBlock(Mth.Code[BB.EndPc - 1].Op)) {
      assert(BB.Fall != InvalidBlockId && "block falls off its method");
      (Out++)->Op = SlotOp::FallThrough;
    }
  }
  assert(Out == Code.data() + Code.size() && "slot count mismatch");
}

void PreparedModule::dump(std::ostream &OS) const {
  OS << "prepared module: " << Blocks.size() << " blocks\n";
  for (BlockId B = 0; B < Blocks.size(); ++B) {
    const BasicBlock &BB = Blocks[B];
    OS << "  block " << B << ": method #" << BB.MethodId << " ("
       << M->Methods[BB.MethodId].Name << ") pc [" << BB.StartPc << ", "
       << BB.EndPc << ")\n";
  }
}
