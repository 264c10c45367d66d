//===- fuzz/ValidateAudit.cpp ---------------------------------------------===//

#include "fuzz/ValidateAudit.h"

#include "validate/Validator.h"
#include "vm/TraceVM.h"

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
  const bool Annotated = VM.options().memElide();

  for (const Trace &T : VM.traceCache().traces()) {
    // The session's elisions may have come from the module's proof memo;
    // they must be what the analysis derives for this block sequence.
    if (Annotated && T.Validation != TraceValidation::Rejected &&
        toMemElisions(traceMemFacts(PM, T.Blocks)) != T.MemElisions) {
      std::ostringstream OS;
      OS << "trace " << T.Id << " (" << T.Blocks.size() << " blocks) carries "
         << T.MemElisions.size()
         << " check elisions that differ from its recomputed ones";
      Violations.push_back({"validate-memo-incoherent", OS.str()});
    }
    if (!AuditVerdicts)
      continue;
    if (T.Validation == TraceValidation::Rejected) {
      std::ostringstream OS;
      OS << "trace " << T.Id << " (" << T.Blocks.size()
         << " blocks) was rejected by the in-session validation hook on a "
            "run the execution oracle accepted";
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
