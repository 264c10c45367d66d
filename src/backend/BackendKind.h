//===- backend/BackendKind.h - Trace-execution tier selection ---*- C++ -*-===//
///
/// \file
/// The backend knobs: which tier executes dispatched traces, and how the
/// native tier promotes them. Kept in their own header so VmOptions can
/// carry them without depending on the JIT in JitBackend.h.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BACKEND_BACKENDKIND_H
#define JTC_BACKEND_BACKENDKIND_H

#include <cstdint>
#include <string>

namespace jtc {
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
