//===- fuzz/Refinement.cpp ------------------------------------------------===//

#include "fuzz/Refinement.h"

#include "analysis/Analysis.h"
#include "runtime/Machine.h"

#include <sstream>

using namespace jtc;
using namespace jtc::fuzz;

namespace {

/// Most violations after the first are the same bug cascading through
/// the rest of the run; a small cap keeps reports readable.
constexpr size_t MaxViolations = 8;

class RefinementAuditor {
public:
  RefinementAuditor(const Module &M, const analysis::ModuleAnalysis &Facts,
                    std::vector<Violation> &Out)
      : M(M), Facts(Facts), Out(Out) {}

  bool full() const { return Out.size() >= MaxViolations; }

  /// Checks one dynamic frame against the static facts at \p Pc, which
  /// must be a block leader of \p MethodId.
  void atLeader(Machine &Mach, uint32_t MethodId, uint32_t Pc) {
    const analysis::MethodAnalysis *MA = Facts.method(MethodId);
    if (!MA)
      return; // Empty method: nothing was analyzed (and nothing runs).
    uint32_t B = MA->Cfg.blockAt(Pc);
    analysis::FrameState S = MA->Values.blockEntry(B);
    if (!S.Reachable) {
      violation("refinement-reachability", MethodId, Pc,
                "executed a block the analysis proved unreachable");
      return;
    }
    const Method &Fn = M.Methods[MethodId];
    for (uint32_t L = 0; L < Fn.NumLocals && !full(); ++L)
      checkLocal(Mach, MethodId, Pc, L, S.Locals[L]);
  }

private:
  void checkLocal(Machine &Mach, uint32_t MethodId, uint32_t Pc,
                  uint32_t L, const analysis::AbstractValue &A) {
    int64_t V = Mach.local(L);
    switch (A.K) {
    case analysis::AbstractValue::Kind::Top:
    case analysis::AbstractValue::Kind::Conflict:
      return; // Nothing claimed.
    case analysis::AbstractValue::Kind::Bot:
      violation("refinement-bot", MethodId, Pc,
                describe(L, V, A, "reachable point carries static bot"));
      return;
    case analysis::AbstractValue::Kind::Int:
      if (V < A.Lo || V > A.Hi)
        violation("refinement-range", MethodId, Pc,
                  describe(L, V, A, "dynamic value outside static range"));
      return;
    case analysis::AbstractValue::Kind::Ref:
      checkRef(Mach, MethodId, Pc, L, V, A);
      return;
    }
  }

  void checkRef(Machine &Mach, uint32_t MethodId, uint32_t Pc,
                uint32_t L, int64_t V, const analysis::AbstractValue &A) {
    if (V == Heap::Null) {
      if (!A.MayBeNull)
        violation("refinement-null", MethodId, Pc,
                  describe(L, V, A, "null where the ref is non-null"));
      return;
    }
    const Heap &H = Mach.heap();
    if (!H.isLive(V)) {
      violation("refinement-ref", MethodId, Pc,
                describe(L, V, A, "static ref holds a dead handle"));
      return;
    }
    uint32_t C = H.classOf(V);
    bool InMaySet = C == Heap::ArrayClass ? A.MayBeArray
                                          : A.Classes.mayContain(C);
    if (!InMaySet)
      violation("refinement-class", MethodId, Pc,
                describe(L, V, A, "dynamic class outside static may-set"));
  }

  std::string describe(uint32_t L, int64_t V,
                       const analysis::AbstractValue &A, const char *What) {
    std::ostringstream OS;
    OS << What << ": local " << L << " = " << V << ", static " << A.str();
    return OS.str();
  }

  void violation(const char *Rule, uint32_t MethodId, uint32_t Pc,
                 std::string Detail) {
    if (full())
      return;
    std::ostringstream OS;
    OS << "method " << M.Methods[MethodId].Name << " @" << Pc << ": "
       << Detail;
    Out.push_back({Rule, OS.str()});
  }

  const Module &M;
  const analysis::ModuleAnalysis &Facts;
  std::vector<Violation> &Out;
};

} // namespace

std::vector<Violation> fuzz::checkRefinement(const Module &M,
                                             uint64_t MaxInstructions) {
  analysis::ModuleAnalysis Facts = analysis::ModuleAnalysis::compute(M);
  return checkRefinement(M, Facts, MaxInstructions);
}

std::vector<Violation>
fuzz::checkRefinement(const Module &M, const analysis::ModuleAnalysis &Facts,
                      uint64_t MaxInstructions) {
  std::vector<Violation> Out;
  RefinementAuditor Audit(M, Facts, Out);

  // Mirror of runInstructions(), with a leader check before each
  // dispatch. Pc is checked on *entry* to the instruction, so the
  // audited frame state is exactly the analysis' block-entry state.
  Machine Mach(M);
  Mach.start(M.EntryMethod);
  uint32_t Pc = 0;
  uint64_t Executed = 0;

  while (Executed < MaxInstructions && !Audit.full()) {
    uint32_t MethodId = Mach.currentMethodId();
    const Method &Fn = Mach.currentMethod();
    const analysis::MethodAnalysis *MA = Facts.method(MethodId);
    if (MA && MA->Cfg.isLeader(Pc))
      Audit.atLeader(Mach, MethodId, Pc);

    Effect E = Mach.execOne(Fn.Code[Pc]);
    ++Executed;
    switch (E.Kind) {
    case EffectKind::Next:
      ++Pc;
      break;
    case EffectKind::Jump:
      Pc = E.Target;
      break;
    case EffectKind::Call:
      if (!Mach.pushFrame(E.Target, Pc + 1))
        return Out; // Stack overflow trap: dynamic facts end here.
      Pc = 0;
      break;
    case EffectKind::Ret: {
      Machine::PopInfo Info = Mach.popFrame(E.HasValue);
      if (Info.BottomFrame)
        return Out;
      Pc = Info.ReturnPc;
      break;
    }
    case EffectKind::Halt:
    case EffectKind::Trap:
      return Out;
    }
  }
  return Out;
}
