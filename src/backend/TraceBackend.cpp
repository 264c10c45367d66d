//===- backend/TraceBackend.cpp - Seam support + backend factory ----------===//

#include "backend/TraceBackend.h"

#include "backend/InterpreterBackend.h"
#include "backend/JitBackend.h"

namespace jtc {
namespace backend {

TraceBackend::~TraceBackend() = default;

const char *compileFallbackName(CompileFallback F) {
  switch (F) {
  case CompileFallback::None:
    return "none";
  case CompileFallback::HostUnsupported:
    return "host-unsupported";
  case CompileFallback::HaltInTrace:
    return "halt-in-trace";
  case CompileFallback::SwitchGuard:
    return "switch-guard";
  case CompileFallback::TraceShape:
    return "trace-shape";
  case CompileFallback::NoTemplate:
    return "no-template";
  case CompileFallback::CodeSpace:
    return "code-space";
  }
  return "unknown";
}

const ErrorDomain &compileFallbackDomain() {
  static const ErrorDomain Dom = {"backend", [](uint32_t Code) {
                                    return compileFallbackName(
                                        static_cast<CompileFallback>(Code));
                                  }};
  return Dom;
}

bool jitSupportedHost() {
#if defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__))
  return true;
#else
  return false;
#endif
}

std::unique_ptr<TraceBackend> makeBackend(BackendKind Kind,
                                          const PreparedModule &PM,
                                          const BackendConfig &Config,
                                          ModuleFactsFn Facts) {
  if (Kind == BackendKind::Auto)
    Kind = jitSupportedHost() && !Config.SimulateUnsupportedHost
               ? BackendKind::Jit
               : BackendKind::Interp;
  if (Kind == BackendKind::Jit)
    return std::make_unique<JitBackend>(PM, Config, std::move(Facts));
  (void)PM;
  return std::make_unique<InterpreterBackend>();
}

} // namespace backend
} // namespace jtc
