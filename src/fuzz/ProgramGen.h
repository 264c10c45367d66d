//===- fuzz/ProgramGen.h - Coverage-directed program generation -*- C++ -*-===//
///
/// \file
/// The random bytecode program generator behind the differential fuzzing
/// subsystem. Programs are *verified by construction*: every generated
/// module passes the static verifier, and (unless traps are enabled)
/// every run terminates -- loop bounds are constants, a reserved counter
/// local is never overwritten, the call graph is acyclic (methods only
/// call higher-id methods) and virtual methods are leaves.
///
/// Generation is coverage-directed: every emitted statement kind is
/// tallied in a FeatureCoverage histogram and the next kind is drawn with
/// weight inversely proportional to how often it has been emitted, so a
/// long fuzzing campaign spreads its programs across loops, switches,
/// virtual calls, field traffic, arrays and (optionally) trapping
/// operations instead of collapsing onto the cheapest kinds.
///
/// Besides the drawn statements, about half of the entry methods end in
/// a *phase loop* when loops and switches are enabled: a loop long enough
/// for its traces to be built and promoted before its guards first fire
/// -- a switch on the loop's phase and, with traps on, an array index
/// that leaves the bounds in the loop's second half. Its draws come from
/// a stream of their own, so the rest of a program is what it would be
/// without it.
///
/// About a quarter of the programs, when loops and calls are enabled,
/// also get a *recursion*: a method with up to 64 locals that counts its
/// argument down to zero through itself, keeping an operand on its stack
/// across each call, called from a loop in the entry method with a depth
/// that grows per iteration. Its frames are the one place the call graph
/// is cyclic: they grow the locals and operand arenas inside trace runs,
/// and with traps on a third of them pass the 2048-frame budget in the
/// loop's third iteration, so StackOverflow fires inside promoted native
/// code. The recursion, too, draws from a stream of its own, and its
/// method is declared last, so the other methods keep their ids.
///
/// This class grew out of the test-only RandomProgramBuilder in
/// tests/TestPrograms.h and replaces it; the test header re-exports it.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_FUZZ_PROGRAMGEN_H
#define JTC_FUZZ_PROGRAMGEN_H

#include "bytecode/Assembler.h"
#include "support/Prng.h"

#include <array>
#include <cstdint>
#include <vector>

namespace jtc {
namespace fuzz {

/// The statement vocabulary of the generator. TrapOp is the only kind
/// that can end a run abnormally; all others are total.
enum class StmtKind : uint8_t {
  Arith,       ///< Binary arithmetic into a local.
  Print,       ///< Iprint of an expression (observable output).
  Shuffle,     ///< Dup/Swap/Pop stack traffic.
  If,          ///< Two-armed conditional.
  Call,        ///< Static call to a higher-id method (acyclic).
  Loop,        ///< Constant-bound loop over the reserved counter local.
  Switch,      ///< Tableswitch over a masked selector.
  VirtualCall, ///< Invokevirtual through the shared slot.
  FieldOp,     ///< GetField/PutField on the reserved object local.
  ArrayOp,     ///< In-bounds Iaload/Iastore on the reserved array local.
  TrapOp,      ///< Possibly-trapping operation (div/rem, wild index, null).
};

inline constexpr unsigned NumStmtKinds =
    static_cast<unsigned>(StmtKind::TrapOp) + 1;

/// Stable machine-readable name ("arith", "virtual-call", ...).
const char *stmtKindName(StmtKind K);

/// Which statement kinds the generator may emit. Traps default off so
/// that transparency sweeps exercise Finished runs; the fuzzer turns them
/// on to cover trap paths.
struct GenFeatures {
  bool Loops = true;
  bool Calls = true;
  bool Switches = true;
  bool VirtualCalls = true;
  bool Fields = true;
  bool Arrays = true;
  bool Traps = false;
};

/// Size and shape knobs.
struct GenConfig {
  GenFeatures Features;
  unsigned MinMethods = 2;
  unsigned MaxMethods = 5;
  unsigned MinStatements = 2;
  unsigned MaxStatements = 6;
  /// Upper bound (inclusive) for constant loop trip counts; at least 2.
  /// Large enough that hot loops form traces in aggressive VM configs.
  int32_t MaxLoopBound = 64;
};

/// Histogram of emitted statement kinds. Shared across iterations by the
/// fuzzer so coverage direction acts campaign-wide, not per program.
struct FeatureCoverage {
  std::array<uint64_t, NumStmtKinds> Counts{};

  uint64_t total() const {
    uint64_t T = 0;
    for (uint64_t C : Counts)
      T += C;
    return T;
  }
  uint64_t count(StmtKind K) const {
    return Counts[static_cast<unsigned>(K)];
  }
  void merge(const FeatureCoverage &O) {
    for (unsigned I = 0; I < NumStmtKinds; ++I)
      Counts[I] += O.Counts[I];
  }
};

/// Constrained random program generator (see the file comment for the
/// construction guarantees). Deterministic: the same seed, config and
/// starting coverage always produce the same module.
class RandomProgramBuilder {
public:
  explicit RandomProgramBuilder(uint64_t Seed)
      : Rng(Seed), ShapeRng(~Seed), RecRng(Seed ^ RecSalt) {}

  /// \p Coverage, when non-null, both biases kind selection and
  /// accumulates this program's emissions (campaign-wide direction).
  RandomProgramBuilder(uint64_t Seed, const GenConfig &Config,
                       FeatureCoverage *Coverage = nullptr)
      : Rng(Seed), ShapeRng(~Seed), RecRng(Seed ^ RecSalt), Config(Config),
        Shared(Coverage) {}

  /// Builds one module. Single-shot per builder.
  Module build();

  /// Statement kinds emitted by the last build().
  const FeatureCoverage &coverage() const { return Local; }

private:
  static constexpr uint32_t NoLocal = 0xffffffffu;
  /// Separates the recursion's stream from the other two.
  static constexpr uint64_t RecSalt = 0x5265637572736521ull;

  void emitExpr(MethodBuilder &B, unsigned Self);
  uint32_t storeTarget(unsigned Self);
  StmtKind chooseKind(const std::vector<StmtKind> &Eligible);
  void emitStatement(MethodBuilder &B, const std::vector<uint32_t> &Methods,
                     unsigned Self, unsigned Depth, bool InLoop);
  void emitPhaseLoop(MethodBuilder &B, unsigned Self);
  /// Emits the body of the recursive method \p Rec into \p B.
  void emitRecursiveMethod(MethodBuilder &B, uint32_t Rec, uint32_t NumLocals);
  /// Emits the entry method's loop of calls to \p Rec, which runs out
  /// of frames when \p Deep.
  void emitRecursionLoop(MethodBuilder &B, uint32_t Rec, bool Deep);

  Prng Rng;
  Prng ShapeRng; ///< The phase loop's draws.
  Prng RecRng;   ///< The recursion's draws.
  GenConfig Config;
  FeatureCoverage *Shared = nullptr;
  FeatureCoverage Local;

  // Per-method layout, filled during declaration.
  std::vector<uint32_t> Args;
  std::vector<uint32_t> Locals;
  std::vector<uint32_t> ObjLocal;    ///< Reserved object local or NoLocal.
  std::vector<uint32_t> ArrLocal;    ///< Reserved array local or NoLocal.
  std::vector<int32_t> ArrLen;       ///< Constant array length per method.

  // Shared virtual-dispatch scaffolding (when VirtualCalls or Fields on).
  bool HaveClasses = false;
  uint32_t Slot = 0;
  uint32_t ClassA = 0;
  uint32_t ClassB = 0;
};

} // namespace fuzz
} // namespace jtc

#endif // JTC_FUZZ_PROGRAMGEN_H
