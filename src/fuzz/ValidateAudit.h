//===- fuzz/ValidateAudit.h - Validator-vs-oracle audit ---------*- C++ -*-===//
///
/// \file
/// The cross-check between the two independent soundness oracles this
/// repository has for the trace optimizer: the differential execution
/// oracle (Oracle.h, "did the optimized VM produce the reference
/// output?") and the promotion-time translation validator
/// (validate/Validator.h, "is each optimized trace a provable refinement
/// of its source?"). On a run the execution oracle accepted, the
/// validator must accept every trace the session built: a rejection
/// there is a false positive -- a completeness bug in the validator (or
/// an optimizer bug the execution happened not to witness, which the
/// oracle wants to know about even more).
///
/// The audit re-validates every constructed trace offline, with the
/// session's own optimizer configuration and the module's shared
/// analysis (PreparedModule::facts()), and also flags any trace whose
/// shape the native tier's promotion-time validation already rejected
/// (the module's memo, PreparedModule::proofs(), holds that verdict).
/// It is meaningful only for stock optimizer configurations; under an
/// UnsoundPass mutation rejections are the desired outcome.
///
/// Sessions over one module reuse each other's proofs, so the audit also
/// recomputes the check elisions of every session shape the memo holds
/// and compares them with the memo's, under any configuration. It reads
/// the memo without filling it.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_FUZZ_VALIDATEAUDIT_H
#define JTC_FUZZ_VALIDATEAUDIT_H

#include "fuzz/Invariants.h"

namespace jtc {

class PreparedModule;
class TraceVM;

namespace fuzz {

/// Re-validates every trace in \p VM's cache (live and dead; a trace
/// that was later retired still had to be sound while it ran) and
/// reports each rejection as a "validate-false-reject" violation, plus a
/// "validate-hook-reject" for any trace whose shape the memo holds as
/// rejected, and a "validate-memo-incoherent" for any trace whose check
/// elisions in the memo differ from recomputed ones. Returns empty when
/// the session built no traces.
std::vector<Violation> checkValidateAudit(const PreparedModule &PM,
                                          const TraceVM &VM);

} // namespace fuzz
} // namespace jtc

#endif // JTC_FUZZ_VALIDATEAUDIT_H
