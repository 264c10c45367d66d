//===- fuzz/Minimizer.cpp -------------------------------------------------===//

#include "fuzz/Minimizer.h"

#include "bytecode/Verifier.h"

#include <utility>

using namespace jtc;
using namespace jtc::fuzz;

uint64_t fuzz::moduleSize(const Module &M) {
  uint64_t N = 0;
  for (const Method &Mt : M.Methods)
    N += Mt.Code.size();
  return N;
}

namespace {

/// Shared reduction state: the current (smallest known failing) module
/// and the gate every candidate must pass.
class Reducer {
public:
  Module Cur;
  const std::function<bool(const Module &)> &StillFails;
  MinimizerStats Stats;

  Reducer(Module M, const std::function<bool(const Module &)> &StillFails)
      : Cur(std::move(M)), StillFails(StillFails) {}

  /// Adopts \p Cand when it is valid and still fails.
  bool tryAdopt(Module &&Cand) {
    if (!isValid(Cand))
      return false;
    ++Stats.CandidatesTried;
    if (!StillFails(Cand))
      return false;
    ++Stats.CandidatesAccepted;
    Cur = std::move(Cand);
    return true;
  }
};

/// Replaces \p M's body with the shortest verifier-valid stub.
void stubBody(Method &M, bool IsEntry) {
  M.Code.clear();
  M.SwitchTables.clear();
  if (IsEntry) {
    M.Code.emplace_back(Opcode::Halt);
  } else if (M.ReturnsValue) {
    M.Code.emplace_back(Opcode::Iconst, 0);
    M.Code.emplace_back(Opcode::Ireturn);
  } else {
    M.Code.emplace_back(Opcode::Return);
  }
}

bool stubMethods(Reducer &R) {
  bool Any = false;
  for (unsigned Id = 0; Id < R.Cur.Methods.size(); ++Id) {
    if (R.Cur.Methods[Id].Code.size() <= 2)
      continue;
    Module Cand = R.Cur;
    stubBody(Cand.Methods[Id], Id == Cand.EntryMethod);
    Any |= R.tryAdopt(std::move(Cand));
  }
  return Any;
}

/// Deletes instructions [\p Lo, \p Hi) of \p M and remaps every branch,
/// jump and switch target across the cut: targets past the cut shift
/// down, targets inside it collapse onto the cut point.
void deleteRange(Method &M, uint32_t Lo, uint32_t Hi) {
  M.Code.erase(M.Code.begin() + Lo, M.Code.begin() + Hi);
  uint32_t Cut = Hi - Lo;
  auto Remap = [Lo, Hi, Cut](uint32_t T) {
    return T < Lo ? T : (T >= Hi ? T - Cut : Lo);
  };
  for (Instruction &I : M.Code) {
    OpKind K = opKind(I.Op);
    if (K == OpKind::Branch || K == OpKind::Jump)
      I.A = static_cast<int32_t>(Remap(static_cast<uint32_t>(I.A)));
  }
  for (SwitchTable &T : M.SwitchTables) {
    for (uint32_t &Tgt : T.Targets)
      Tgt = Remap(Tgt);
    T.DefaultTarget = Remap(T.DefaultTarget);
  }
}

/// ddmin over one method's code: contiguous chunks, halving granularity.
bool shrinkMethod(Reducer &R, unsigned Id) {
  bool Any = false;
  for (size_t Chunk = R.Cur.Methods[Id].Code.size() / 2; Chunk >= 1;) {
    bool Progress = false;
    size_t Lo = 0;
    while (Lo + Chunk <= R.Cur.Methods[Id].Code.size()) {
      Module Cand = R.Cur;
      deleteRange(Cand.Methods[Id], static_cast<uint32_t>(Lo),
                  static_cast<uint32_t>(Lo + Chunk));
      if (R.tryAdopt(std::move(Cand)))
        Progress = Any = true; // Same Lo now addresses the next chunk.
      else
        Lo += Chunk;
    }
    if (!Progress)
      Chunk /= 2;
  }
  return Any;
}

/// Removes method \p Id, which nothing outside itself calls or
/// dispatches to, renumbering the methods after it.
void removeMethod(Module &M, uint32_t Id) {
  M.Methods.erase(M.Methods.begin() + Id);
  auto Renumber = [Id](uint32_t &Callee) {
    if (Callee != InvalidMethod && Callee > Id)
      --Callee;
  };
  for (Method &Mt : M.Methods)
    for (Instruction &I : Mt.Code)
      if (I.Op == Opcode::InvokeStatic) {
        auto Callee = static_cast<uint32_t>(I.A);
        Renumber(Callee);
        I.A = static_cast<int32_t>(Callee);
      }
  for (Class &C : M.Classes)
    for (uint32_t &Impl : C.Vtable)
      Renumber(Impl);
  Renumber(M.EntryMethod);
}

/// Drops the methods no other method calls and no vtable names -- what
/// stubbing and shrinking leave of a call site -- including a recursive
/// method that only calls itself.
bool dropUnusedMethods(Reducer &R) {
  bool Any = false;
  for (uint32_t Id = static_cast<uint32_t>(R.Cur.Methods.size()); Id-- > 0;) {
    const Module &M = R.Cur;
    bool Used = Id == M.EntryMethod;
    for (uint32_t Caller = 0; Caller < M.Methods.size() && !Used; ++Caller)
      for (const Instruction &I : M.Methods[Caller].Code)
        if (Caller != Id && I.Op == Opcode::InvokeStatic &&
            static_cast<uint32_t>(I.A) == Id) {
          Used = true;
          break;
        }
    for (const Class &C : M.Classes)
      for (uint32_t Impl : C.Vtable)
        Used |= Impl == Id;
    if (Used)
      continue;
    Module Cand = R.Cur;
    removeMethod(Cand, Id);
    Any |= R.tryAdopt(std::move(Cand));
  }
  return Any;
}

/// Zeroes immediate payloads (Iconst values, Iinc deltas), one method at
/// a time: failures that do not depend on data values lose their noise.
bool zeroConstants(Reducer &R) {
  bool Any = false;
  for (unsigned Id = 0; Id < R.Cur.Methods.size(); ++Id) {
    Module Cand = R.Cur;
    bool Changed = false;
    for (Instruction &I : Cand.Methods[Id].Code) {
      if (I.Op == Opcode::Iconst && I.A != 0) {
        I.A = 0;
        Changed = true;
      } else if (I.Op == Opcode::Iinc && I.B != 0) {
        I.B = 0;
        Changed = true;
      }
    }
    if (Changed)
      Any |= R.tryAdopt(std::move(Cand));
  }
  return Any;
}

} // namespace

Module fuzz::minimizeModule(
    const Module &M, const std::function<bool(const Module &)> &StillFails,
    unsigned MaxRounds, MinimizerStats *Stats) {
  Reducer R(M, StillFails);
  for (unsigned Round = 0; Round < MaxRounds; ++Round) {
    ++R.Stats.Rounds;
    bool Any = stubMethods(R);
    for (unsigned Id = 0; Id < R.Cur.Methods.size(); ++Id)
      Any |= shrinkMethod(R, Id);
    Any |= dropUnusedMethods(R);
    Any |= zeroConstants(R);
    if (!Any)
      break;
  }
  if (Stats)
    *Stats = R.Stats;
  return std::move(R.Cur);
}
