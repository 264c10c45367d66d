//===- tests/telemetry_test.cpp - Telemetry subsystem tests ---------------===//
///
/// Covers the event ring (overwrite-at-capacity, ordering), the
/// exporters (JSONL and Chrome trace golden output), the phase sampler's
/// delta arithmetic, the VmStats field table shared by print()/toJson(),
/// and -- when telemetry is compiled in -- the end-to-end lifecycle
/// events a real TraceVM run produces.
///
//===----------------------------------------------------------------------===//

#include "btrace/BtraceEncoder.h"
#include "telemetry/Export.h"
#include "telemetry/EventRing.h"
#include "telemetry/PhaseSampler.h"
#include "vm/ModuleFingerprint.h"
#include "vm/TraceVM.h"
#include "workloads/Workloads.h"

#include "SessionStats.h"
#include "TestPrograms.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <sstream>
#include <string_view>

using namespace jtc;

namespace {

//===--- Minimal strict JSON validator ------------------------------------===//
//
// The exporters promise machine-readable output, so the tests validate it
// with a real recursive-descent parse, not just brace counting. Accepts
// exactly the JSON value grammar (RFC 8259); returns false on any excess
// or malformed input.

class JsonValidator {
public:
  explicit JsonValidator(std::string_view Text) : S(Text) {}

  bool validate() {
    skipWs();
    return value() && (skipWs(), Pos == S.size());
  }

private:
  std::string_view S;
  size_t Pos = 0;

  bool eof() const { return Pos >= S.size(); }
  char peek() const { return S[Pos]; }
  bool eat(char C) { return !eof() && S[Pos] == C && (++Pos, true); }
  void skipWs() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++Pos;
  }

  bool literal(std::string_view L) {
    if (S.substr(Pos, L.size()) != L)
      return false;
    Pos += L.size();
    return true;
  }

  bool string() {
    if (!eat('"'))
      return false;
    while (!eof() && peek() != '"') {
      if (peek() == '\\') {
        ++Pos;
        if (eof())
          return false;
        char E = peek();
        if (E == 'u') {
          for (int I = 0; I < 4; ++I)
            if (++Pos, eof() || !isxdigit(static_cast<unsigned char>(peek())))
              return false;
        } else if (!strchr("\"\\/bfnrt", E)) {
          return false;
        }
      } else if (static_cast<unsigned char>(peek()) < 0x20) {
        return false;
      }
      ++Pos;
    }
    return eat('"');
  }

  bool number() {
    size_t Start = Pos;
    eat('-');
    if (eof() || !isdigit(static_cast<unsigned char>(peek())))
      return false;
    if (peek() == '0') // no leading zeros on multi-digit integers
      ++Pos;
    else
      while (!eof() && isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    if (!eof() && isdigit(static_cast<unsigned char>(peek())))
      return false;
    if (eat('.')) {
      if (eof() || !isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (!eof() && isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++Pos;
      if (!eof() && (peek() == '+' || peek() == '-'))
        ++Pos;
      if (eof() || !isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (!eof() && isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    return Pos > Start;
  }

  bool value() {
    skipWs();
    if (eof())
      return false;
    switch (peek()) {
    case '{': {
      ++Pos;
      skipWs();
      if (eat('}'))
        return true;
      do {
        skipWs();
        if (!string())
          return false;
        skipWs();
        if (!eat(':') || !value())
          return false;
        skipWs();
      } while (eat(','));
      return eat('}');
    }
    case '[': {
      ++Pos;
      skipWs();
      if (eat(']'))
        return true;
      do {
        if (!value())
          return false;
        skipWs();
      } while (eat(','));
      return eat(']');
    }
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
};

bool isValidJson(std::string_view Text) {
  return JsonValidator(Text).validate();
}

/// Every non-empty line must parse as a standalone JSON value.
::testing::AssertionResult jsonlLinesParse(const std::string &Text) {
  std::istringstream IS(Text);
  std::string Line;
  size_t N = 0;
  while (std::getline(IS, Line)) {
    ++N;
    if (Line.empty())
      continue;
    if (!isValidJson(Line))
      return ::testing::AssertionFailure()
             << "line " << N << " is not valid JSON: " << Line;
  }
  if (N == 0)
    return ::testing::AssertionFailure() << "no JSONL lines at all";
  return ::testing::AssertionSuccess();
}

//===--- EventRing --------------------------------------------------------===//

TEST(EventRingTest, DefaultConstructedIsDisabled) {
  EventRing R;
  EXPECT_FALSE(R.enabled());
  EXPECT_EQ(R.capacity(), 0u);
  R.record(EventKind::TraceConstructed, 1); // must not crash
  EXPECT_EQ(R.size(), 0u);
  EXPECT_EQ(R.totalRecorded(), 0u);
}

TEST(EventRingTest, RecordsUpToCapacityWithoutDropping) {
  EventRing R(4);
  for (uint32_t I = 0; I < 4; ++I)
    R.recordAt(I, EventKind::TraceDispatched, I);
  EXPECT_EQ(R.size(), 4u);
  EXPECT_EQ(R.totalRecorded(), 4u);
  EXPECT_EQ(R.dropped(), 0u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(R.event(I).Id, I);
}

TEST(EventRingTest, OverwritesOldestAtCapacity) {
  EventRing R(4);
  for (uint32_t I = 0; I < 10; ++I)
    R.recordAt(I, EventKind::TraceDispatched, I);
  EXPECT_EQ(R.size(), 4u);
  EXPECT_EQ(R.totalRecorded(), 10u);
  EXPECT_EQ(R.dropped(), 6u);
  // The four retained events are the newest four, oldest first.
  for (size_t I = 0; I < 4; ++I) {
    EXPECT_EQ(R.event(I).Id, 6u + I);
    EXPECT_EQ(R.event(I).Clock, 6u + I);
  }
}

TEST(EventRingTest, WrapsAtACapacityThatDoesNotDivideTheCount) {
  // 10 events into 3 slots: the write index wraps three times and stops
  // mid-ring, so the oldest survivor sits in the middle of the buffer.
  EventRing R(3);
  for (uint32_t I = 0; I < 10; ++I)
    R.recordAt(100 + I, EventKind::TraceDispatched, I);
  EXPECT_EQ(R.size(), 3u);
  EXPECT_EQ(R.totalRecorded(), 10u);
  EXPECT_EQ(R.dropped(), 7u);
  std::vector<Event> Snap = R.snapshot();
  ASSERT_EQ(Snap.size(), 3u);
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_EQ(Snap[I].Id, 7u + I);
    EXPECT_EQ(Snap[I].Clock, 107u + I);
  }
  // After clear() the ring fills from its first slot again.
  R.clear();
  R.recordAt(1, EventKind::TraceRetired, 42);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R.event(0).Id, 42u);
}

TEST(EventRingTest, ClockIsReadThroughPointer) {
  uint64_t Clock = 0;
  EventRing R(8, &Clock);
  Clock = 41;
  R.record(EventKind::ProfilerSignal, 7, 2);
  Clock = 99;
  R.record(EventKind::DecayPass, 3);
  ASSERT_EQ(R.size(), 2u);
  EXPECT_EQ(R.event(0).Clock, 41u);
  EXPECT_EQ(R.event(1).Clock, 99u);
}

TEST(EventRingTest, EventsStayClockOrderedAfterWraparound) {
  uint64_t Clock = 0;
  EventRing R(16, &Clock);
  for (uint32_t I = 0; I < 100; ++I) {
    Clock += 3;
    R.record(EventKind::TraceDispatched, I % 5);
  }
  uint64_t Prev = 0;
  R.forEach([&Prev](const Event &E) {
    EXPECT_GE(E.Clock, Prev);
    Prev = E.Clock;
  });
  std::vector<Event> Snap = R.snapshot();
  EXPECT_EQ(Snap.size(), R.size());
  for (size_t I = 0; I < Snap.size(); ++I)
    EXPECT_EQ(Snap[I].Clock, R.event(I).Clock);
}

TEST(EventRingTest, ClearForgetsEventsButKeepsCapacity) {
  EventRing R(4);
  R.recordAt(1, EventKind::TraceRetired, 1);
  R.clear();
  EXPECT_TRUE(R.enabled());
  EXPECT_EQ(R.size(), 0u);
  R.recordAt(2, EventKind::TraceRetired, 2);
  EXPECT_EQ(R.size(), 1u);
}

TEST(EventKindTest, NamesAreDistinctAndLifecycleSplitIsRight) {
  for (unsigned I = 0; I < NumEventKinds; ++I)
    for (unsigned J = I + 1; J < NumEventKinds; ++J)
      EXPECT_STRNE(eventKindName(static_cast<EventKind>(I)),
                   eventKindName(static_cast<EventKind>(J)));
  Event E{};
  E.Kind = EventKind::TraceRetired;
  EXPECT_TRUE(E.isTraceLifecycle());
  E.Kind = EventKind::ProfilerSignal;
  EXPECT_FALSE(E.isTraceLifecycle());
  E.Kind = EventKind::DecayPass;
  EXPECT_FALSE(E.isTraceLifecycle());
}

//===--- Exporters --------------------------------------------------------===//

TEST(ExportTest, JsonlGoldenOutput) {
  EventRing R(8);
  R.recordAt(10, EventKind::TraceConstructed, 3, 9);
  R.recordAt(12, EventKind::TraceDispatched, 3);
  R.recordAt(21, EventKind::TraceCompleted, 3, 9);
  std::ostringstream OS;
  writeEventsJsonl(OS, R);
  EXPECT_EQ(OS.str(),
            "{\"clock\":10,\"kind\":\"trace-constructed\",\"id\":3,\"arg\":9}\n"
            "{\"clock\":12,\"kind\":\"trace-dispatched\",\"id\":3,\"arg\":0}\n"
            "{\"clock\":21,\"kind\":\"trace-completed\",\"id\":3,\"arg\":9}\n");
}

TEST(ExportTest, ChromeTraceShapesEventsByKind) {
  EventRing R(8);
  R.recordAt(10, EventKind::TraceConstructed, 3, 9);
  R.recordAt(12, EventKind::TraceDispatched, 3);
  R.recordAt(15, EventKind::ProfilerSignal, 44, 2);
  R.recordAt(30, EventKind::TraceReplaced, 3, 5);
  std::ostringstream OS;
  writeChromeTrace(OS, R);
  std::string S = OS.str();
  // Header bookkeeping.
  EXPECT_NE(S.find("\"clock\":\"blocks_executed\""), std::string::npos);
  EXPECT_NE(S.find("\"events_recorded\":4"), std::string::npos);
  EXPECT_NE(S.find("\"events_dropped\":0"), std::string::npos);
  // Construction opens an async span; dispatch is an instant on it;
  // replacement closes it; the profiler signal is a thread instant.
  EXPECT_NE(S.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(S.find("\"ph\":\"n\""), std::string::npos);
  EXPECT_NE(S.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(S.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(S.find("\"cat\":\"profiler\""), std::string::npos);
  EXPECT_NE(S.find("\"ts\":10"), std::string::npos);
  // Balanced document (cheap well-formedness check).
  EXPECT_EQ(std::count(S.begin(), S.end(), '{'),
            std::count(S.begin(), S.end(), '}'));
  EXPECT_EQ(std::count(S.begin(), S.end(), '['),
            std::count(S.begin(), S.end(), ']'));
}

TEST(ExportTest, ChromeTraceEmitsCounterTracksFromSampler) {
  EventRing R(4);
  PhaseSampler<VmStats> Sampler(100);
  VmStats A;
  A.BlocksExecuted = 100;
  A.TraceDispatches = 7;
  Sampler.sample(100, A);
  std::ostringstream OS;
  writeChromeTrace(OS, R, Sampler);
  std::string S = OS.str();
  EXPECT_NE(S.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(S.find("\"name\":\"trace_dispatches\""), std::string::npos);
  EXPECT_NE(S.find("\"value\":7"), std::string::npos);
}

TEST(ExportTest, BtraceEventsExportUnderBtraceCategory) {
  EventRing R(8);
  R.recordAt(5, EventKind::BtraceStarted, 0, 4096);
  R.recordAt(900, EventKind::BtraceFlushed, 0, 512);
  R.recordAt(1400, EventKind::BtraceDropped, 0, 64);

  std::ostringstream Jsonl;
  writeEventsJsonl(Jsonl, R);
  std::string L = Jsonl.str();
  EXPECT_NE(L.find("\"kind\":\"btrace-started\""), std::string::npos);
  EXPECT_NE(L.find("\"kind\":\"btrace-flushed\""), std::string::npos);
  EXPECT_NE(L.find("\"kind\":\"btrace-dropped\""), std::string::npos);
  EXPECT_NE(L.find("\"arg\":4096"), std::string::npos);
  EXPECT_TRUE(jsonlLinesParse(L));

  std::ostringstream Chrome;
  writeChromeTrace(Chrome, R);
  std::string C = Chrome.str();
  EXPECT_NE(C.find("\"cat\":\"btrace\""), std::string::npos);
  EXPECT_NE(C.find("\"name\":\"btrace-started\""), std::string::npos);
  EXPECT_TRUE(isValidJson(C)) << C;
}

TEST(ExportTest, ChromeTraceIsStrictlyValidJsonAcrossAllEventKinds) {
  // One event of every kind: the exporter must produce a single valid
  // JSON document no matter which switch arms fire.
  EventRing R(NumEventKinds + 1);
  for (unsigned I = 0; I < NumEventKinds; ++I)
    R.recordAt(10 * (I + 1), static_cast<EventKind>(I), I, I + 100);
  PhaseSampler<VmStats> Sampler(100);
  VmStats A;
  A.BlocksExecuted = 100;
  Sampler.sample(100, A);

  std::ostringstream Plain, WithSampler, Jsonl;
  writeChromeTrace(Plain, R);
  writeChromeTrace(WithSampler, R, Sampler);
  writeEventsJsonl(Jsonl, R);
  EXPECT_TRUE(isValidJson(Plain.str())) << Plain.str();
  EXPECT_TRUE(isValidJson(WithSampler.str())) << WithSampler.str();
  EXPECT_TRUE(jsonlLinesParse(Jsonl.str()));
}

TEST(ExportTest, ValidatorItselfRejectsMalformedJson) {
  // Guard the guard: the validator must not pass garbage, or every
  // well-formedness assertion above is vacuous.
  EXPECT_TRUE(isValidJson("{\"a\":[1,2.5e-3,\"x\\n\",true,null]}"));
  EXPECT_FALSE(isValidJson("{\"a\":1,}"));
  EXPECT_FALSE(isValidJson("{\"a\":01}"));
  EXPECT_FALSE(isValidJson("{'a':1}"));
  EXPECT_FALSE(isValidJson("{\"a\":1} trailing"));
  EXPECT_FALSE(isValidJson("{\"a\":[1,2}"));
  EXPECT_FALSE(isValidJson(""));
}

//===--- PhaseSampler -----------------------------------------------------===//

TEST(PhaseSamplerTest, DisabledByDefault) {
  PhaseSampler<VmStats> S;
  EXPECT_FALSE(S.enabled());
  PhaseSampler<VmStats> Zero(0);
  EXPECT_FALSE(Zero.enabled());
}

TEST(PhaseSamplerTest, DeltasAreDifferencesOfConsecutiveSamples) {
  PhaseSampler<VmStats> S(1000);
  EXPECT_EQ(S.nextSampleAt(), 1000u);

  VmStats First;
  First.BlocksExecuted = 1000;
  First.TraceDispatches = 40;
  First.Signals = 5;
  S.sample(1000, First);

  VmStats Second = First;
  Second.BlocksExecuted = 2000;
  Second.TraceDispatches = 90;
  Second.Signals = 5; // no new signals this window
  S.sample(2000, Second);

  ASSERT_EQ(S.samples().size(), 2u);
  // First delta is measured against the zero state.
  EXPECT_EQ(S.delta(0).TraceDispatches, 40u);
  EXPECT_EQ(S.samples()[0].Cumulative.TraceDispatches, 40u);
  // Second delta only covers the second window.
  EXPECT_EQ(S.delta(1).BlocksExecuted, 1000u);
  EXPECT_EQ(S.delta(1).TraceDispatches, 50u);
  EXPECT_EQ(S.delta(1).Signals, 0u);
  EXPECT_EQ(S.samples()[1].Cumulative.TraceDispatches, 90u);
  EXPECT_EQ(S.nextSampleAt(), 3000u);
}

//===--- VmStats field table ----------------------------------------------===//

TEST(VmStatsJsonTest, ToJsonContainsEveryField) {
  VmStats S;
  S.Instructions = 123;
  S.BlocksExecuted = 45;
  std::ostringstream OS;
  S.toJson(OS);
  std::string J = OS.str();
  for (const VmStats::FieldInfo &F : VmStats::fields())
    EXPECT_NE(J.find("\"" + std::string(F.Key) + "\":"), std::string::npos)
        << "missing JSON key " << F.Key;
  EXPECT_NE(J.find("\"instructions\":123"), std::string::npos);
  EXPECT_NE(J.find("\"blocks_executed\":45"), std::string::npos);
}

TEST(VmStatsJsonTest, PrintAndJsonShareTheFieldTable) {
  VmStats S;
  std::ostringstream Print;
  S.print(Print);
  std::string P = Print.str();
  // Every printed field's label comes from the same table as its JSON
  // key, so a renamed or removed stat cannot drift between the two.
  for (const VmStats::FieldInfo &F : VmStats::fields()) {
    if (F.InPrint)
      EXPECT_NE(P.find(F.Label), std::string::npos)
          << "missing print label " << F.Label;
    else
      EXPECT_EQ(P.find(F.Label), std::string::npos)
          << "JSON-only field leaked into print(): " << F.Label;
  }
}

//===--- TraceVM integration ----------------------------------------------===//

#ifdef JTC_TELEMETRY

VmOptions telemetryOptions() {
  // Capacity large enough that hotLoop(50000)'s full event stream is
  // retained -- the integration tests compare event counts against stats
  // counters.
  return VmOptions()
      .startStateDelay(64)
      .completionThreshold(0.97)
      .telemetry(true)
      .telemetryCapacity(1u << 17);
}

TEST(TelemetryVmTest, HotLoopEmitsLifecycleInOrder) {
  Module M = testprog::hotLoop(50000);
  PreparedModule PM(M);
  TraceVM VM(PM, telemetryOptions());
  RunResult R = VM.run();
  EXPECT_EQ(R.Status, RunStatus::Finished);

  const EventRing &Ring = VM.events();
  ASSERT_TRUE(Ring.enabled());
  ASSERT_GT(Ring.size(), 0u);

  // Clocks never decrease across the retained stream.
  uint64_t Prev = 0;
  Ring.forEach([&Prev](const Event &E) {
    EXPECT_GE(E.Clock, Prev);
    Prev = E.Clock;
  });

  // Some trace must run the canonical lifecycle: constructed, then
  // dispatched, then completed -- in that clock order. (Not necessarily
  // the first constructed trace; early traces can be replaced before
  // they ever complete.)
  struct Lifecycle {
    uint64_t ConstructedAt = 0, DispatchedAt = 0, CompletedAt = 0;
  };
  std::map<uint32_t, Lifecycle> ById;
  Ring.forEach([&](const Event &E) {
    Lifecycle &L = ById[E.Id];
    if (E.Kind == EventKind::TraceConstructed && !L.ConstructedAt) {
      L.ConstructedAt = E.Clock;
      EXPECT_GT(E.Arg, 1u) << "constructed trace must span >1 block";
    } else if (E.Kind == EventKind::TraceDispatched && !L.DispatchedAt) {
      L.DispatchedAt = E.Clock;
    } else if (E.Kind == EventKind::TraceCompleted && !L.CompletedAt) {
      L.CompletedAt = E.Clock;
    }
  });
  bool FoundFullLifecycle = false;
  for (const auto &[Id, L] : ById) {
    if (!L.ConstructedAt || !L.DispatchedAt || !L.CompletedAt)
      continue;
    FoundFullLifecycle = true;
    EXPECT_LE(L.ConstructedAt, L.DispatchedAt) << "trace " << Id;
    EXPECT_LE(L.DispatchedAt, L.CompletedAt) << "trace " << Id;
  }
  EXPECT_TRUE(FoundFullLifecycle)
      << "no trace was constructed, dispatched and completed";

  // Event counts agree with the statistics counters (ring is large
  // enough for this workload that nothing was dropped).
  ASSERT_EQ(Ring.dropped(), 0u);
  uint64_t Dispatches = 0, Signals = 0;
  Ring.forEach([&](const Event &E) {
    if (E.Kind == EventKind::TraceDispatched)
      ++Dispatches;
    else if (E.Kind == EventKind::ProfilerSignal)
      ++Signals;
  });
  EXPECT_EQ(Dispatches, VM.stats().TraceDispatches);
  EXPECT_EQ(Signals, VM.stats().Signals);
}

TEST(TelemetryVmTest, DisabledByDefaultAndStatsUnchanged) {
  Module M = testprog::hotLoop(50000);
  PreparedModule PM(M);

  TraceVM Off(PM, VmOptions().startStateDelay(64).completionThreshold(0.97));
  Off.run();
  EXPECT_FALSE(Off.events().enabled());
  EXPECT_EQ(Off.events().size(), 0u);

  TraceVM On(PM, telemetryOptions());
  On.run();
  // Telemetry must observe, not perturb: every statistic matches.
  EXPECT_EQ(testprog::statsDiff(Off.stats(), On.stats()), "")
      << "telemetry changed these counters";
}

TEST(TelemetryVmTest, SamplerProducesTimeline) {
  // A small prime interval puts sample points inside most trace runs, on
  // every block position; the VM commits a run in bulk, so it must split
  // the commit exactly there on both tiers.
  constexpr uint64_t Interval = 13;
  Module M = testprog::hotLoop(50000);
  PreparedModule PM(M);
  std::vector<PhaseSample<VmStats>> Timelines[2];
  const backend::BackendKind Tiers[] = {backend::BackendKind::Interp,
                                        backend::BackendKind::Jit};
  for (int T = 0; T < 2; ++T) {
    const char *Name = backend::backendKindName(Tiers[T]);
    TraceVM VM(PM, telemetryOptions().backend(Tiers[T]).sampleInterval(
                       Interval));
    VM.run();
    if (Tiers[T] == backend::BackendKind::Jit && backend::jitSupportedHost()) {
      EXPECT_GT(VM.stats().TraceDispatchesJit, 0u);
    }

    const PhaseSampler<VmStats> &S = VM.sampler();
    ASSERT_FALSE(S.empty()) << Name;
    uint64_t TotalBlocks = 0;
    uint64_t PrevClock = 0;
    for (size_t I = 0; I < S.samples().size(); ++I) {
      const PhaseSample<VmStats> &P = S.samples()[I];
      // Each sample sees exactly the blocks before it, at its own clock.
      EXPECT_EQ(P.Clock, P.Cumulative.BlocksExecuted) << Name;
      EXPECT_EQ(P.Clock, PrevClock + Interval) << Name;
      EXPECT_EQ(P.Clock % Interval, 0u) << Name;
      EXPECT_EQ(S.delta(I).BlocksExecuted, Interval) << Name;
      // Every block run so far is counted once: dispatched on its own
      // (the entry, or after a transition outside traces) or in a trace.
      EXPECT_EQ(P.Cumulative.BlocksExecuted,
                P.Cumulative.BlockDispatches + P.Cumulative.BlocksInTraces)
          << Name << " at clock " << P.Clock;
      PrevClock = P.Clock;
      TotalBlocks += S.delta(I).BlocksExecuted;
    }
    // The per-window deltas tile the run exactly, up to a tail shorter
    // than one interval after the last sample point.
    EXPECT_EQ(TotalBlocks, PrevClock) << Name;
    EXPECT_LT(VM.stats().BlocksExecuted - PrevClock, Interval) << Name;
    Timelines[T] = S.samples();
  }

  // The tiers reach every sample point in the same adaptive state.
  ASSERT_EQ(Timelines[0].size(), Timelines[1].size());
  for (size_t I = 0; I < Timelines[0].size(); ++I) {
    const VmStats &A = Timelines[0][I].Cumulative;
    const VmStats &B = Timelines[1][I].Cumulative;
    EXPECT_EQ(A.BlocksInTraces, B.BlocksInTraces) << "sample " << I;
    EXPECT_EQ(A.InstructionsInTraces, B.InstructionsInTraces) << "sample " << I;
    EXPECT_EQ(A.TraceDispatches, B.TraceDispatches) << "sample " << I;
    EXPECT_EQ(A.TracesCompleted, B.TracesCompleted) << "sample " << I;
    EXPECT_EQ(A.BlockDispatches, B.BlockDispatches) << "sample " << I;
    EXPECT_EQ(A.Hooks, B.Hooks) << "sample " << I;
  }
}

/// The `{"value":...}` object writeChromeTrace gives a counter event
/// carrying \p V.
std::string counterArgs(double V) {
  std::ostringstream OS;
  JsonWriter W(OS);
  W.beginObject().fieldReal("value", V).endObject();
  return OS.str();
}

TEST(TelemetryVmTest, PhaseOutputsReproduceEverySample) {
  // jtcvm --json writes each sample's deltas only, and the Chrome trace
  // writes a counter event only where a field's value changes. Neither
  // loses a sample: the deltas sum to every cumulative snapshot, and each
  // counter track, holding its value until its next event, reads every
  // sample's value at that sample's clock.
  const WorkloadInfo *W = findWorkload("javac");
  ASSERT_NE(W, nullptr);
  Module M = W->Build(std::max(1u, W->DefaultScale / 20));
  PreparedModule PM(M);
  TraceVM VM(PM, telemetryOptions().backend(backend::BackendKind::Jit)
                     .sampleInterval(97));
  VM.run();
  const PhaseSampler<VmStats> &S = VM.sampler();
  ASSERT_GT(S.samples().size(), 100u);
  const std::vector<VmStats::FieldInfo> &Fields = VmStats::fields();

  VmStats Sum;
  for (size_t I = 0; I < S.samples().size(); ++I) {
    const VmStats D = S.delta(I);
    for (const VmStats::FieldInfo &F : Fields) {
      if (!F.Counter)
        continue;
      Sum.*F.Counter += D.*F.Counter;
      ASSERT_EQ(Sum.*F.Counter, S.samples()[I].Cumulative.*F.Counter)
          << F.Key << " at sample " << I;
    }
  }

  // Every counter event, per track: (clock, args object).
  std::ostringstream OS;
  writeChromeTrace(OS, VM.events(), S);
  const std::string Doc = OS.str();
  ASSERT_TRUE(isValidJson(Doc));
  std::map<std::string, std::vector<std::pair<uint64_t, std::string>>> Tracks;
  size_t Events = 0;
  const std::string Mark = "\",\"cat\":\"phase\",\"ph\":\"C\",\"ts\":";
  for (size_t At = Doc.find(Mark); At != std::string::npos;
       At = Doc.find(Mark, At + 1), ++Events) {
    const size_t NameAt = Doc.rfind("{\"name\":\"", At) + 9;
    const size_t ArgsAt = Doc.find("\"args\":", At) + 7;
    Tracks[Doc.substr(NameAt, At - NameAt)].emplace_back(
        std::stoull(Doc.substr(At + Mark.size(), 20)),
        Doc.substr(ArgsAt, Doc.find('}', ArgsAt) + 1 - ArgsAt));
  }
  size_t Values = 0;
  for (const VmStats::FieldInfo &F : Fields) {
    const auto &Track = Tracks[F.Key];
    ASSERT_FALSE(Track.empty()) << F.Key;
    size_t Next = 0;
    for (size_t I = 0; I < S.samples().size(); ++I, ++Values) {
      const uint64_t Clock = S.samples()[I].Clock;
      while (Next < Track.size() && Track[Next].first <= Clock)
        ++Next;
      ASSERT_GT(Next, 0u) << F.Key << " has no value at sample " << I;
      ASSERT_EQ(Track[Next - 1].second,
                counterArgs(S.delta(I).fieldValue(F)))
          << F.Key << " at sample " << I;
    }
  }
  // Most fields hold still most of the time.
  EXPECT_LT(Events, Values / 2);
}

TEST(TelemetryVmTest, BtraceCaptureEventsLandInRingAndExports) {
  Module M = testprog::hotLoop(50000);
  PreparedModule PM(M);
  TraceVM VM(PM, telemetryOptions());

  btrace::BtraceHeader H = btrace::BtraceHeader::fromOptions(VM.options());
  H.Fingerprint = moduleFingerprint(PM);
  H.Spec = "telemetry-test";
  btrace::SuccessorTable ST(PM);
  std::vector<uint8_t> Stream;
  btrace::BtraceEncoder Enc(PM, ST, std::move(H),
                            [&Stream](const uint8_t *Data, size_t Size) {
                              Stream.insert(Stream.end(), Data, Data + Size);
                              return true;
                            });
  Enc.setTelemetry(VM.telemetry());
  VM.setTransitionSink(&Enc);
  RunResult R = VM.run();
  EXPECT_EQ(R.Status, RunStatus::Finished);
  ASSERT_TRUE(Enc.ok());

  // The capture lifecycle shows up in the same ring as the VM's own
  // events: one start (arg = sync interval), at least one flush whose
  // byte args sum to the stream size, and no drop.
  uint64_t Started = 0, Flushed = 0, Dropped = 0, FlushedBytes = 0;
  VM.events().forEach([&](const Event &E) {
    if (E.Kind == EventKind::BtraceStarted) {
      ++Started;
      EXPECT_EQ(E.Arg, VM.options().btraceSyncInterval());
    } else if (E.Kind == EventKind::BtraceFlushed) {
      ++Flushed;
      FlushedBytes += E.Arg;
    } else if (E.Kind == EventKind::BtraceDropped) {
      ++Dropped;
    }
  });
  EXPECT_EQ(Started, 1u);
  EXPECT_GE(Flushed, 1u);
  EXPECT_EQ(Dropped, 0u);
  EXPECT_EQ(FlushedBytes, Stream.size());
  EXPECT_EQ(FlushedBytes, Enc.encoderStats().BytesWritten);

  // And the exporters carry them through as machine-readable output.
  std::ostringstream Chrome, Jsonl;
  writeChromeTrace(Chrome, VM.events(), VM.sampler());
  writeEventsJsonl(Jsonl, VM.events());
  EXPECT_TRUE(isValidJson(Chrome.str()));
  EXPECT_TRUE(jsonlLinesParse(Jsonl.str()));
  EXPECT_NE(Chrome.str().find("\"name\":\"btrace-started\""),
            std::string::npos);
  EXPECT_NE(Jsonl.str().find("\"kind\":\"btrace-flushed\""),
            std::string::npos);
}

#endif // JTC_TELEMETRY

} // namespace
