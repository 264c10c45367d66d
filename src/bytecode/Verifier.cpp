//===- bytecode/Verifier.cpp ----------------------------------------------===//

#include "bytecode/Verifier.h"

#include "analysis/Analysis.h"
#include "bytecode/ControlFlow.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <sstream>

using namespace jtc;

namespace {

/// Per-method verification context running the abstract stack-height
/// interpretation.
class MethodVerifier {
public:
  MethodVerifier(const Module &M, uint32_t MethodId,
                 std::vector<VerifyError> &Errors)
      : M(M), Mth(M.Methods[MethodId]), MethodId(MethodId), Errors(Errors) {}

  void run();

private:
  void error(uint32_t Pc, const std::string &Msg) {
    Errors.push_back({MethodId, Pc, Msg});
  }

  /// Validates operands of the instruction at \p Pc; returns false if the
  /// instruction is malformed badly enough that flow analysis must stop.
  bool checkStatic(uint32_t Pc);

  /// Records that \p Target is reachable with stack height \p Height,
  /// enqueueing it if new and reporting merges with mismatched heights.
  void flowTo(uint32_t FromPc, uint32_t Target, int Height);

  /// Stack effect of the instruction at \p Pc given module signatures.
  void stackEffect(const Instruction &I, int &Pops, int &Pushes) const;

  const Module &M;
  const Method &Mth;
  uint32_t MethodId;
  std::vector<VerifyError> &Errors;

  static constexpr int Unreached = -1;
  std::vector<int> HeightAt; // stack height on entry, or Unreached
  std::vector<bool> StaticOk; // per-pc result of the structural sweep
  std::deque<uint32_t> Worklist;
};

bool MethodVerifier::checkStatic(uint32_t Pc) {
  const Instruction &I = Mth.Code[Pc];
  auto CodeSize = static_cast<uint32_t>(Mth.Code.size());
  switch (I.Op) {
  case Opcode::Iload:
  case Opcode::Istore:
  case Opcode::Iinc:
    if (I.A < 0 || static_cast<uint32_t>(I.A) >= Mth.NumLocals) {
      error(Pc, "local index out of range");
      return false;
    }
    return true;
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
    if (I.A < 0 || static_cast<uint32_t>(I.A) >= CodeSize) {
      error(Pc, "branch target out of range");
      return false;
    }
    return true;
  case Opcode::Tableswitch: {
    if (I.A < 0 || static_cast<size_t>(I.A) >= Mth.SwitchTables.size()) {
      error(Pc, "switch table index out of range");
      return false;
    }
    const SwitchTable &T = Mth.SwitchTables[I.A];
    if (T.DefaultTarget >= CodeSize) {
      error(Pc, "switch default target out of range");
      return false;
    }
    for (uint32_t Tgt : T.Targets)
      if (Tgt >= CodeSize) {
        error(Pc, "switch case target out of range");
        return false;
      }
    return true;
  }
  case Opcode::InvokeStatic:
    if (I.A < 0 || static_cast<size_t>(I.A) >= M.Methods.size()) {
      error(Pc, "invokestatic: unknown method");
      return false;
    }
    return true;
  case Opcode::InvokeVirtual:
    if (I.A < 0 || static_cast<size_t>(I.A) >= M.Slots.size()) {
      error(Pc, "invokevirtual: unknown slot");
      return false;
    }
    return true;
  case Opcode::New:
    if (I.A < 0 || static_cast<size_t>(I.A) >= M.Classes.size()) {
      error(Pc, "new: unknown class");
      return false;
    }
    return true;
  case Opcode::GetField:
  case Opcode::PutField:
    // The receiver's dynamic class determines the field count, so field
    // indices are range-checked at run time; only reject negatives here.
    if (I.A < 0) {
      error(Pc, "negative field index");
      return false;
    }
    return true;
  case Opcode::Ireturn:
    if (!Mth.ReturnsValue) {
      error(Pc, "ireturn in a void method");
      return false;
    }
    return true;
  case Opcode::Return:
    if (Mth.ReturnsValue) {
      error(Pc, "return in a value-returning method");
      return false;
    }
    return true;
  default:
    return true;
  }
}

void MethodVerifier::stackEffect(const Instruction &I, int &Pops,
                                 int &Pushes) const {
  Pops = opPops(I.Op);
  Pushes = opPushes(I.Op);
  if (I.Op == Opcode::InvokeStatic) {
    const Method &Callee = M.Methods[I.A];
    Pops = static_cast<int>(Callee.NumArgs);
    Pushes = Callee.ReturnsValue ? 1 : 0;
  } else if (I.Op == Opcode::InvokeVirtual) {
    const SlotInfo &Slot = M.Slots[I.A];
    Pops = static_cast<int>(Slot.ArgCount);
    Pushes = Slot.ReturnsValue ? 1 : 0;
  }
  assert(Pops >= 0 && Pushes >= 0 && "unresolved stack effect");
}

void MethodVerifier::flowTo(uint32_t FromPc, uint32_t Target, int Height) {
  if (Target >= Mth.Code.size()) {
    error(FromPc, "control falls off the end of the method");
    return;
  }
  if (HeightAt[Target] == Unreached) {
    HeightAt[Target] = Height;
    Worklist.push_back(Target);
    return;
  }
  if (HeightAt[Target] != Height)
    error(FromPc, "inconsistent stack height at merge point");
}

void MethodVerifier::run() {
  if (Mth.NumLocals < Mth.NumArgs) {
    error(0, "method declares fewer locals than arguments");
    return;
  }
  if (Mth.NumLocals > MaxMethodLocals) {
    error(0, "method declares more than 65535 locals");
    return;
  }
  if (Mth.Code.empty()) {
    error(0, "method has no code");
    return;
  }

  // Layer 1: structural sweep over every instruction, reachable or not.
  // Unreachable code with wild operands used to be silently accepted; the
  // dataflow passes (and any tool that builds a CFG) need all targets and
  // indices to be in range, so it is rejected outright now.
  StaticOk.assign(Mth.Code.size(), true);
  for (uint32_t Pc = 0; Pc < Mth.Code.size(); ++Pc)
    StaticOk[Pc] = checkStatic(Pc);

  // A method must end in a terminator (goto/switch/return/halt). Height
  // flow reports reachable fall-offs; this rule also covers fall-offs
  // only reachable through paths the height pass cannot see.
  if (fallsThrough(Mth.Code.back().Op))
    error(static_cast<uint32_t>(Mth.Code.size()) - 1,
          "method may fall off the end (last instruction is not a "
          "terminator)");

  // Layer 2: abstract stack-height interpretation over reachable code.
  HeightAt.assign(Mth.Code.size(), Unreached);
  HeightAt[0] = 0;
  Worklist.push_back(0);

  while (!Worklist.empty()) {
    uint32_t Pc = Worklist.front();
    Worklist.pop_front();
    const Instruction &I = Mth.Code[Pc];
    if (!StaticOk[Pc])
      continue;

    int Pops = 0, Pushes = 0;
    stackEffect(I, Pops, Pushes);
    int Height = HeightAt[Pc];
    if (Height < Pops) {
      error(Pc, "operand stack underflow");
      continue;
    }
    int After = Height - Pops + Pushes;

    // A return or halt flows nowhere; leftover operand stack entries are
    // permitted there (the frame pop discards them), matching JVM
    // semantics.
    forEachTarget(Mth, I, [&](uint32_t T) { flowTo(Pc, T, After); });
    if (fallsThrough(I.Op))
      flowTo(Pc, Pc + 1, After);
  }
}

/// Block index of \p Pc within its method: the number of leaders after
/// pc 0 at or before it. Tolerant of malformed methods (out-of-range
/// targets are ignored), since errors are exactly where malformed code
/// shows up.
uint32_t blockIndexOf(const Method &Mth, uint32_t Pc) {
  auto N = static_cast<uint32_t>(Mth.Code.size());
  if (Pc >= N)
    return 0;
  std::vector<bool> Leader(N, false);
  forEachLeader(Mth, [&](uint32_t T) {
    if (T < N)
      Leader[T] = true;
  });
  return static_cast<uint32_t>(
      std::count(Leader.begin() + 1, Leader.begin() + Pc + 1, true));
}

} // namespace

std::vector<VerifyError> jtc::verifyModule(const Module &M) {
  std::vector<VerifyError> Errors;

  if (M.EntryMethod >= M.Methods.size()) {
    Errors.push_back({0, 0, "entry method does not exist"});
    return Errors;
  }
  if (M.Methods[M.EntryMethod].NumArgs != 0)
    Errors.push_back({M.EntryMethod, 0, "entry method must take no arguments"});

  for (uint32_t Id = 0; Id < M.Methods.size(); ++Id) {
    size_t Before = Errors.size();
    MethodVerifier(M, Id, Errors).run();

    // Layer 3: typed abstract interpretation, only over methods that are
    // structurally and height-clean (the analyses assume both).
    if (Errors.size() == Before) {
      analysis::MethodCfg Cfg(M, Id);
      analysis::MethodValueFacts Facts = analysis::MethodValueFacts::compute(Cfg);
      for (const analysis::TypeError &E : analysis::checkMethodTypes(Facts))
        Errors.push_back({Id, E.Pc, E.Message});
    }
  }

  // A slot's argument count is bounded like the locals its implementors
  // declare, whether or not any class implements it.
  for (const SlotInfo &Slot : M.Slots)
    if (Slot.ArgCount > MaxMethodLocals)
      Errors.push_back(
          {0, 0, "slot '" + Slot.Name + "' takes more than 65535 arguments"});

  for (uint32_t C = 0; C < M.Classes.size(); ++C) {
    const Class &Cls = M.Classes[C];
    if (Cls.Vtable.size() != M.Slots.size()) {
      Errors.push_back({0, 0, "class '" + Cls.Name + "' has a mis-sized vtable"});
      continue;
    }
    for (uint32_t S = 0; S < Cls.Vtable.size(); ++S) {
      uint32_t Target = Cls.Vtable[S];
      if (Target == InvalidMethod)
        continue;
      if (Target >= M.Methods.size()) {
        Errors.push_back(
            {0, 0, "class '" + Cls.Name + "' vtable points at unknown method"});
        continue;
      }
      const Method &Impl = M.Methods[Target];
      const SlotInfo &Slot = M.Slots[S];
      if (Impl.NumArgs != Slot.ArgCount ||
          Impl.ReturnsValue != Slot.ReturnsValue ||
          (Impl.ReturnsValue && Impl.RetType != Slot.RetType))
        Errors.push_back({Target, 0,
                          "method '" + Impl.Name + "' does not match slot '" +
                              Slot.Name + "' signature"});
    }
  }

  // Annotate each error with the basic block containing its pc, so the
  // diagnostics line up with CFG-level tooling (jtc-analyze, traces).
  for (VerifyError &E : Errors)
    if (E.MethodId < M.Methods.size())
      E.Block = blockIndexOf(M.Methods[E.MethodId], E.Pc);
  return Errors;
}

bool jtc::isValid(const Module &M) { return verifyModule(M).empty(); }

std::string jtc::formatErrors(const std::vector<VerifyError> &Errors) {
  std::ostringstream OS;
  for (const VerifyError &E : Errors)
    OS << "method " << E.MethodId << " block " << E.Block << " @" << E.Pc
       << ": " << E.Message << "\n";
  return OS.str();
}
