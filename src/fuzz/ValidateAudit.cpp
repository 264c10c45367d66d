//===- fuzz/ValidateAudit.cpp ---------------------------------------------===//

#include "fuzz/ValidateAudit.h"

#include "backend/JitBackend.h"
#include "backend/TraceIR.h"
#include "validate/Validator.h"
#include "vm/TraceVM.h"

#include <optional>
#include <sstream>

using namespace jtc;
using namespace jtc::fuzz;

std::vector<Violation> fuzz::checkValidateAudit(const PreparedModule &PM,
                                                const TraceVM &VM) {
  std::vector<Violation> Violations;
  const OptConfig &Cfg = VM.options().optConfig();
  // Under a deliberate miscompile, rejections are the expected outcome;
  // the audit only polices false rejects of sound optimizer output.
  const bool AuditVerdicts = Cfg.Mutate == UnsoundPass::None;
  const backend::ModuleCode &Code = backend::moduleCode(PM);

  for (const Trace &T : VM.traceCache().traces()) {
    // Every entry the module holds for this shape under this optimizer
    // configuration, whichever session compiled it.
    std::optional<std::vector<analysis::TraceMemFact>> Recomputed;
    bool HookRejected = false;
    for (const auto &[Key, C] : Code.entries(T.Blocks, Cfg.fingerprint())) {
      const backend::TraceProof &P = C->Proof;
      HookRejected |= !P.Verdict.Ok;
      // Code compiled with elision elides its entry's facts; they must
      // be what the analysis derives.
      if (!Key->MemElide || !P.Verdict.Ok)
        continue;
      if (!Recomputed)
        Recomputed = backend::traceMemFacts(PM, T.Blocks);
      if (P.MemFacts == *Recomputed)
        continue;
      std::ostringstream OS;
      OS << "trace " << T.Id << " (" << T.Blocks.size()
         << " blocks): the module holds code compiled with "
         << P.MemFacts.size()
         << " check elisions that differ from its recomputed ones";
      Violations.push_back({"validate-elision-incoherent", OS.str()});
    }
    if (!AuditVerdicts)
      continue;
    if (HookRejected) {
      std::ostringstream OS;
      OS << "trace " << T.Id << " (" << T.Blocks.size()
         << " blocks) was rejected by validation at promotion on a run "
            "the execution oracle accepted";
      Violations.push_back({"validate-hook-reject", OS.str()});
    }
    validate::Result R = validate::validateTrace(PM, T, Cfg, &PM.facts());
    if (!R.Ok) {
      std::ostringstream OS;
      OS << "trace " << T.Id << " (" << T.Blocks.size()
         << " blocks): " << validate::reasonName(R.Why) << " in segment "
         << R.SegmentIndex;
      if (!R.Detail.empty())
        OS << ": " << R.Detail;
      Violations.push_back({"validate-false-reject", OS.str()});
    }
  }
  return Violations;
}
