//===- fuzz/ValidateAudit.cpp ---------------------------------------------===//

#include "fuzz/ValidateAudit.h"

#include "backend/TraceIR.h"
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
  const uint64_t Fingerprint = Cfg.fingerprint();

  for (const Trace &T : VM.traceCache().traces()) {
    const analysis::TraceShape Shape{T.Blocks, Fingerprint};
    // Native code compiles the memo's elisions for this shape, whichever
    // session proved them; they must be what the analysis derives.
    if (std::optional<std::vector<analysis::TraceMemFact>> Held =
            PM.proofs().findMemFacts(Shape);
        Held && *Held != backend::traceMemFacts(PM, T.Blocks)) {
      std::ostringstream OS;
      OS << "trace " << T.Id << " (" << T.Blocks.size() << " blocks): the "
         << "module holds " << Held->size()
         << " check elisions that differ from its recomputed ones";
      Violations.push_back({"validate-memo-incoherent", OS.str()});
    }
    if (!AuditVerdicts)
      continue;
    if (std::optional<analysis::TraceVerdict> V =
            PM.proofs().findVerdict(Shape);
        V && !V->Ok) {
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
