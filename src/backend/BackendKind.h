//===- backend/BackendKind.h - Trace-execution tier selection ---*- C++ -*-===//
///
/// \file
/// The backend knobs: which tier executes dispatched traces, and how the
/// native tier promotes them -- including the translation validation and
/// check elision that run at promotion. Kept in their own header so
/// VmOptions can carry them without depending on the JIT in JitBackend.h.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BACKEND_BACKENDKIND_H
#define JTC_BACKEND_BACKENDKIND_H

#include "opt/OptConfig.h"

#include <cstdint>
#include <string>

namespace jtc {

/// Translation validation (src/validate) of a trace's optimized form,
/// run when the native tier promotes the trace.
enum class ValidateMode : uint8_t {
  Off,    ///< Promoted traces compile unchecked.
  On,     ///< Validate every promoted trace; a rejected trace still
          ///< compiles (no tier runs the optimized form) but without
          ///< check elision (the default).
  Strict, ///< Like On, and sharing its compiled code, but a rejection
          ///< aborts the process -- whether the session proved it or
          ///< found it with a shape's held code. For CI and fuzzing,
          ///< where any rejection of stock optimizer output is a bug in
          ///< either the optimizer or the validator.
};

inline const char *validateModeName(ValidateMode M) {
  switch (M) {
  case ValidateMode::Off:
    return "off";
  case ValidateMode::On:
    return "on";
  case ValidateMode::Strict:
    return "strict";
  }
  return "on";
}

namespace backend {

/// Which tier executes dispatched traces (the CLI spelling of
/// --backend=).
enum class BackendKind : uint8_t {
  Interp, ///< TraceVM's dispatch loop block-steps every trace (the
          ///< differential-fuzzing oracle).
  Jit,    ///< Compile hot completed traces to x86-64 template code; a
          ///< trace without native code (not yet hot, not compilable, or
          ///< a non-x86-64 host) is block-stepped as on Interp.
  Auto,   ///< Jit when the host supports it, Interp otherwise.
};

/// Native-tier construction knobs (a slice of VmOptions).
struct BackendConfig {
  /// Completed executions before a trace is promoted to native code.
  uint32_t JitPromoteAfter = 2;
  /// Test hook: pretend the host cannot run template code, forcing the
  /// HostUnsupported fallback path on any host.
  bool SimulateUnsupportedHost = false;
  /// Validation of each promoted trace.
  ValidateMode Validate = ValidateMode::On;
  /// Compile each promoted trace's provably redundant heap checks away.
  bool MemElide = true;
  /// The optimizer configuration validation re-optimizes under; its
  /// fingerprint is part of the key of the module's native code
  /// (backend::ModuleCode), which carries each shape's verdict.
  OptConfig Opt;
};

inline const char *backendKindName(BackendKind K) {
  switch (K) {
  case BackendKind::Interp:
    return "interp";
  case BackendKind::Jit:
    return "jit";
  case BackendKind::Auto:
    return "auto";
  }
  return "interp";
}

/// Parses "interp" / "jit" / "auto".
inline bool parseBackendKind(const std::string &V, BackendKind &Out) {
  if (V == "interp")
    Out = BackendKind::Interp;
  else if (V == "jit")
    Out = BackendKind::Jit;
  else if (V == "auto")
    Out = BackendKind::Auto;
  else
    return false;
  return true;
}

} // namespace backend
} // namespace jtc

#endif // JTC_BACKEND_BACKENDKIND_H
