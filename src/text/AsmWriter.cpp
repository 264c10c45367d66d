//===- text/AsmWriter.cpp -------------------------------------------------===//

#include "text/AsmWriter.h"

#include "bytecode/ControlFlow.h"
#include "bytecode/Opcode.h"

#include <set>
#include <sstream>

using namespace jtc;

namespace {

/// Collects every pc in \p Mth that needs a label: branch/switch targets.
std::set<uint32_t> labelTargets(const Method &Mth) {
  std::set<uint32_t> Targets;
  for (const Instruction &I : Mth.Code)
    forEachTarget(Mth, I, [&Targets](uint32_t Pc) { Targets.insert(Pc); });
  return Targets;
}

std::string labelName(uint32_t Pc) { return "L" + std::to_string(Pc); }

const char *returnsSpelling(bool ReturnsValue, jtc::TypeTag RetType) {
  if (!ReturnsValue)
    return "void";
  return RetType == jtc::TypeTag::Ref ? "ref" : "int";
}

void writeMethod(std::ostream &OS, const Module &M, const Method &Mth) {
  OS << ".method " << Mth.Name << " args=" << Mth.NumArgs
     << " locals=" << Mth.NumLocals
     << " returns=" << returnsSpelling(Mth.ReturnsValue, Mth.RetType) << "\n";

  std::set<uint32_t> Labels = labelTargets(Mth);
  for (uint32_t Pc = 0; Pc < Mth.Code.size(); ++Pc) {
    if (Labels.count(Pc))
      OS << labelName(Pc) << ":\n";
    const Instruction &I = Mth.Code[Pc];
    OS << "  " << mnemonic(I.Op);
    switch (I.Op) {
    case Opcode::Iconst:
    case Opcode::Iload:
    case Opcode::Istore:
    case Opcode::GetField:
    case Opcode::PutField:
      OS << " " << I.A;
      break;
    case Opcode::Iinc:
      OS << " " << I.A << " " << I.B;
      break;
    case Opcode::Goto:
    case Opcode::IfEq:
    case Opcode::IfNe:
    case Opcode::IfLt:
    case Opcode::IfGe:
    case Opcode::IfGt:
    case Opcode::IfLe:
    case Opcode::IfIcmpEq:
    case Opcode::IfIcmpNe:
    case Opcode::IfIcmpLt:
    case Opcode::IfIcmpGe:
    case Opcode::IfIcmpGt:
    case Opcode::IfIcmpLe:
      OS << " " << labelName(static_cast<uint32_t>(I.A));
      break;
    case Opcode::Tableswitch: {
      const SwitchTable &T = Mth.SwitchTables[I.A];
      OS << " low=" << T.Low << " targets=[";
      for (size_t J = 0; J < T.Targets.size(); ++J)
        OS << (J ? "," : "") << labelName(T.Targets[J]);
      OS << "] default=" << labelName(T.DefaultTarget);
      break;
    }
    case Opcode::InvokeStatic:
      OS << " " << M.Methods[I.A].Name;
      break;
    case Opcode::InvokeVirtual:
      OS << " " << M.Slots[I.A].Name;
      break;
    case Opcode::New:
      OS << " " << M.Classes[I.A].Name;
      break;
    default:
      break;
    }
    OS << "\n";
  }
  OS << ".end\n";
}

} // namespace

void jtc::writeModule(std::ostream &OS, const Module &M) {
  OS << "; jtc textual assembly\n";
  for (const SlotInfo &S : M.Slots)
    OS << ".slot " << S.Name << " args=" << S.ArgCount
       << " returns=" << returnsSpelling(S.ReturnsValue, S.RetType) << "\n";
  for (const Class &C : M.Classes)
    OS << ".class " << C.Name << " fields=" << C.NumFields << "\n";
  for (const Class &C : M.Classes)
    for (size_t S = 0; S < C.Vtable.size(); ++S)
      if (C.Vtable[S] != InvalidMethod)
        OS << ".vtable " << C.Name << " " << M.Slots[S].Name << " "
           << M.Methods[C.Vtable[S]].Name << "\n";
  for (const Method &Mth : M.Methods) {
    OS << "\n";
    writeMethod(OS, M, Mth);
  }
  if (!M.Methods.empty())
    OS << "\n.entry " << M.Methods[M.EntryMethod].Name << "\n";
}

std::string jtc::moduleToString(const Module &M) {
  std::ostringstream OS;
  writeModule(OS, M);
  return OS.str();
}
