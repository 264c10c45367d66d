//===- baseline/NetTraceVm.h - Dynamo-style NET baseline --------*- C++ -*-===//
///
/// \file
/// The baseline the paper positions itself against (section 2): Dynamo's
/// next-executing-tail (NET) trace selection [Bala et al., PLDI 2000],
/// re-implemented over the same block-dispatch substrate so the two
/// strategies are directly comparable on the paper's dependent values.
///
/// NET in brief: lightweight counters sit on potential trace heads --
/// targets of backward-taken transitions (loop headers) and the blocks
/// that follow a trace exit. When a counter crosses the hot threshold,
/// the interpreter switches to *recording* mode and captures the blocks
/// executed immediately afterwards ("the next executing tail") until a
/// backward-taken transition, an existing trace head, or the length cap
/// ends the trace. Recorded traces dispatch exactly like the BCG cache's
/// traces (entered at their head block, matched block by block, partial
/// exits allowed). Dynamo's cache-pressure heuristic is included: a burst
/// of trace creations flushes the whole cache (the paper contrasts this
/// with the BCG's targeted reconstruction, section 3.6).
///
/// The paper's qualitative claims this baseline lets the benches test:
/// NET achieves comparable coverage with much cheaper profiling, but its
/// traces complete less often (the tail is assumed, not verified) and
/// the cache is less stable.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BASELINE_NETTRACEVM_H
#define JTC_BASELINE_NETTRACEVM_H

#include "interp/BlockStepper.h"
#include "vm/VmStats.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace jtc {

struct NetConfig {
  /// Executions of a candidate head before a trace is recorded (Dynamo
  /// uses ~50).
  uint32_t HotThreshold = 50;

  /// Maximum blocks per recorded trace.
  uint32_t MaxTraceBlocks = 64;

  /// Cache-pressure flush: if more than FlushLimit traces are created
  /// within any FlushWindow block dispatches, the whole cache is flushed.
  /// Set FlushLimit to 0 to disable.
  uint64_t FlushWindow = 1 << 16;
  uint32_t FlushLimit = 64;

  /// Stop after this many executed instructions.
  uint64_t MaxInstructions = ~0ull;
};

/// One NET trace: a head block and the tail recorded after it went hot.
struct NetTrace {
  BlockId Head = InvalidBlockId;
  std::vector<BlockId> Blocks; ///< Head first; always >= 2 blocks.
  uint32_t InstrCount = 0;
  uint64_t Entered = 0;
  uint64_t Completed = 0;
};

/// Extra counters specific to the NET strategy.
struct NetStats {
  uint64_t HeadCandidates = 0; ///< Distinct counters allocated.
  uint64_t Recordings = 0;     ///< Recording sessions started.
  uint64_t Flushes = 0;        ///< Whole-cache flushes (pressure).
};

/// Runs \p PM's entry method under NET trace selection and dispatch.
/// VmStats reuses the same field meanings as TraceVM (Signals and the
/// BCG-specific fields stay zero; TracesConstructed counts recordings
/// that were installed).
class NetTraceVm {
public:
  NetTraceVm(const PreparedModule &PM, NetConfig Config);

  RunResult run();

  const VmStats &stats() const { return Stats; }
  const NetStats &netStats() const { return Net; }
  Machine &machine() { return Mach; }
  const std::vector<NetTrace> &traces() const { return Traces; }
  size_t numLiveTraces() const { return HeadToTrace.size(); }

private:
  /// True when the transition (\p From -> \p To) is backward: same
  /// method, target at or before the source block's start.
  bool isBackward(BlockId From, BlockId To) const;

  void transition(BlockId Cur, BlockId Next);
  void finishRecording(bool Install);
  void flushCache();

  const PreparedModule *PM;
  NetConfig Config;
  Machine Mach;
  BlockStepper Stepper;
  VmStats Stats;
  NetStats Net;

  std::unordered_map<BlockId, uint32_t> HeadCounter;
  std::unordered_map<BlockId, uint32_t> HeadToTrace; ///< Head -> index.
  std::vector<NetTrace> Traces;

  // Execution modes.
  bool Recording = false;
  std::vector<BlockId> Record;
  int32_t ActiveTrace = -1; ///< Index into Traces, or -1.
  uint32_t TracePos = 0;

  // Flush bookkeeping.
  uint64_t WindowStart = 0;
  uint32_t WindowCreations = 0;
  /// Set after a trace exit: the next transition's target is a hot-head
  /// candidate even without a backward transition.
  bool PendingBump = false;
  bool Ran = false;
};

} // namespace jtc

#endif // JTC_BASELINE_NETTRACEVM_H
