//===- perfbench/perfbench.cpp - The repository benchmark -----------------===//
///
/// One process per run: set up a workload, check every session's output
/// against an independent oracle, measure for a fixed time, and print the
/// metrics as the last line of stdout (one JSON object). NOTES.md gives
/// why each workload exists and which layer each metric attributes.
///
///   batch-branchy  javac + soot, cold TraceVM sessions on the interp tier
///   batch-regular  compress + raytrace + mpegaudio + scimark, cold
///                  sessions on the jit tier
///   serve-short    all six programs at ~2% scale behind a 2-worker
///                  VmService (jit tier, warm handoff), closed loop with
///                  two requests outstanding
///
/// --trace=0 reports the end-to-end metrics. --trace=1 is a separate run
/// that records spans around the calls into each layer, re-runs the
/// workload's programs under the paper's Table VI/VII switches, and
/// reports the per-layer metrics; --trace-out writes its spans as a
/// Chrome trace.
///
/// Usage: jtc_perfbench --workload=<name> --seed=<n> --seconds=<s>
///                      --trace=<0|1> [--trace-out=<file>]
///
//===----------------------------------------------------------------------===//

#include "Schedule.h"

#include "analysis/Analysis.h"
#include "bytecode/Verifier.h"
#include "interp/InstructionInterpreter.h"
#include "interp/PreparedModule.h"
#include "runtime/Heap.h"
#include "server/ProfileSnapshot.h"
#include "server/VmService.h"
#include "support/ArgParse.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "vm/TraceVM.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

using namespace jtc;
using perfbench::KindStream;
using perfbench::PermutationStream;
using backend::BackendKind;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

[[noreturn]] void fatal(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(1);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolation quantile (numpy's default); 0 for no samples.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// The statistic of every reported time: its 10th percentile. The shared
/// reference host switches every few seconds between a fast state and one
/// in which the VM's sessions run 1.5-2x slower. A median sits on the
/// boundary of the two modes and moves with the share of slow time (by up
/// to 50% between runs of the same code); the 10th percentile stays in
/// the fast mode as long as a run sees some fast time.
constexpr double CalmQuantile = 0.1;

double calm(const std::vector<double> &V) { return quantile(V, CalmQuantile); }

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/// The benchmark's view of the host, from fixed work in this file only, so
/// no change to the repository moves it.
///
/// Besides its two modes, the host's fast state itself drifts by up to
/// 25% over minutes, and the p10 of a run follows it. A table-driven
/// dispatch loop, an interpreter in miniature, drifts with it: sampled
/// between units of measured work, while no VM work is in flight, its p10
/// divides the drift out. On 15 s windows of cold jit sessions, the
/// session p10 spread by 5-7% between windows and its ratio to the probe's
/// p10 by 2%. scale() converts the run's times to the reference host.
class HostProbe {
public:
  HostProbe() : Cycle(CycleLen), Table(TableLen), Ops(OpsLen) {
    // Sattolo's algorithm: one cycle through every slot.
    for (uint32_t I = 0; I < CycleLen; ++I)
      Cycle[I] = I;
    uint64_t R = 0x9e3779b97f4a7c15ull;
    for (uint32_t I = CycleLen - 1; I > 0; --I) {
      R = xorshift(R);
      std::swap(Cycle[I], Cycle[R % I]);
    }
    for (uint32_t &T : Table)
      T = static_cast<uint32_t>(R = xorshift(R));
    for (uint8_t &Op : Ops)
      Op = static_cast<uint8_t>(R = xorshift(R));
  }

  /// Times one run of the dispatch loop (about 3 ms on the reference host)
  /// and keeps the sample.
  void sample() {
    auto T0 = Clock::now();
    uint64_t Acc = 1;
    uint32_t Pc = 0;
    for (uint32_t I = 0; I < DispatchSteps; ++I) {
      uint8_t Op = Ops[Pc];
      switch (Op & 7) {
      case 0:
        Acc += Table[(Acc >> 3) % TableLen];
        break;
      case 1:
        Acc ^= Acc << 5;
        break;
      case 2:
        Acc *= 0x9e37;
        break;
      case 3:
        Acc ^= Table[(Acc >> 7) % TableLen];
        break;
      case 4:
        if (Acc & 1)
          Pc += 3;
        break;
      case 5:
        Acc -= Table[Pc % TableLen];
        break;
      case 6:
        Acc = (Acc >> 1) | (Acc << 63);
        break;
      default:
        Acc += Op;
      }
      Pc = (Pc + 1) % OpsLen;
    }
    Sink = Sink + Acc;
    Dispatch.push_back(msBetween(T0, Clock::now()));
  }

  /// The factor that converts this run's times to the reference host: the
  /// reference host's fast-state dispatch time over this run's p10.
  double scale() const {
    return Dispatch.empty() ? 1.0 : DispatchRefMs / calm(Dispatch);
  }
  size_t samples() const { return Dispatch.size(); }

  /// host.calibration_ms: the integer loop plus a half-cycle walk, 10th
  /// percentile of 5 samples.
  double calibrationMs() {
    std::vector<double> Samples;
    for (int Rep = 0; Rep < 5; ++Rep) {
      auto T0 = Clock::now();
      uint64_t X = 0x2545f4914f6cdd1dull + static_cast<uint64_t>(Rep);
      for (int I = 0; I < (1 << 22); ++I)
        X = xorshift(X);
      Sink = Sink + X;
      walk(CycleLen / 2);
      Samples.push_back(msBetween(T0, Clock::now()));
    }
    return calm(Samples);
  }

private:
  static constexpr uint32_t CycleLen = 1u << 20;
  static constexpr uint32_t TableLen = 1u << 16; // 256 KiB
  static constexpr uint32_t OpsLen = 1u << 14;
  static constexpr uint32_t DispatchSteps = 1u << 18;
  /// The p10 of sample() on the reference host.
  static constexpr double DispatchRefMs = 3.0;

  static uint64_t xorshift(uint64_t X) {
    X ^= X << 13;
    X ^= X >> 7;
    return X ^ (X << 17);
  }

  void walk(uint32_t Steps) {
    uint32_t At = 0;
    for (uint32_t I = 0; I < Steps; ++I)
      At = Cycle[At];
    Sink = Sink + At;
  }

  std::vector<uint32_t> Cycle;
  std::vector<uint32_t> Table;
  std::vector<uint8_t> Ops;
  std::vector<double> Dispatch; ///< sample() times, ms.
  /// Consumes every probe result, so no loop is optimized away.
  volatile uint64_t Sink = 0;
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span recorder for the traced run. Disabled, span() costs one
/// branch, so the untraced run executes the same loops. Scopes nest on
/// the main thread (parent links); add() records intervals measured on
/// other threads (request latency from completion callbacks) and may be
/// called concurrently.
class Tracer {
public:
  explicit Tracer(bool On) : On(On), Origin(Clock::now()) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool on() const { return On; }

  class Scope {
  public:
    Scope(Tracer *T, size_t Index) : T(T), Index(Index) {}
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() {
      if (T)
        T->close(Index);
    }

  private:
    Tracer *T;
    size_t Index;
  };

  Scope span(std::string Name) {
    if (!On)
      return Scope(nullptr, 0);
    std::lock_guard<std::mutex> Lock(Mu);
    int64_t Parent = Open.empty() ? -1 : static_cast<int64_t>(Open.back());
    Spans.push_back({std::move(Name), Clock::now(), {}, Parent, 0});
    Open.push_back(Spans.size() - 1);
    return Scope(this, Spans.size() - 1);
  }

  void add(std::string Name, Clock::time_point Start, Clock::time_point End,
           uint64_t Req) {
    if (!On)
      return;
    std::lock_guard<std::mutex> Lock(Mu);
    Spans.push_back({std::move(Name), Start, End, -1, Req});
  }

  /// Durations (ms) of every closed span named \p Name.
  std::vector<double> ms(const std::string &Name) const {
    std::lock_guard<std::mutex> Lock(Mu);
    std::vector<double> Out;
    for (const SpanRec &S : Spans)
      if (S.Name == Name)
        Out.push_back(msBetween(S.Start, S.End));
    return Out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool writeChrome(const std::string &Path) const {
    std::ofstream OS(Path);
    if (!OS)
      return false;
    std::lock_guard<std::mutex> Lock(Mu);
    JsonWriter W(OS);
    W.beginObject().key("traceEvents").beginArray();
    for (size_t I = 0; I < Spans.size(); ++I) {
      const SpanRec &S = Spans[I];
      W.beginObject()
          .field("name", S.Name)
          .field("ph", "X")
          .fieldReal("ts", msBetween(Origin, S.Start) * 1e3)
          .fieldReal("dur", msBetween(S.Start, S.End) * 1e3)
          .fieldUInt("pid", 1)
          .fieldUInt("tid", S.Req ? 2 : 1);
      W.key("args")
          .beginObject()
          .fieldUInt("id", I)
          .fieldInt("parent", S.Parent)
          .fieldUInt("request", S.Req)
          .endObject();
      W.endObject();
    }
    W.endArray().endObject();
    OS << "\n";
    return static_cast<bool>(OS);
  }

private:
  struct SpanRec {
    std::string Name;
    Clock::time_point Start, End;
    int64_t Parent;
    uint64_t Req;
  };

  void close(size_t Index) {
    std::lock_guard<std::mutex> Lock(Mu);
    Spans[Index].End = Clock::now();
    if (!Open.empty() && Open.back() == Index)
      Open.pop_back();
  }

  const bool On;
  const Clock::time_point Origin;
  mutable std::mutex Mu; ///< Guards Spans and Open.
  std::vector<SpanRec> Spans;
  std::vector<size_t> Open;
};

//===----------------------------------------------------------------------===//
// Programs and the output-correctness gate
//===----------------------------------------------------------------------===//

uint64_t outputDigest(const std::vector<int64_t> &Out) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (int64_t V : Out) {
    H ^= static_cast<uint64_t>(V);
    H *= 0x100000001b3ull;
  }
  return H ^ Out.size();
}

/// One workload program: the module, its prepared form and the reference
/// result of the independent Fig. 1 interpreter.
struct Program {
  const WorkloadInfo *Info = nullptr;
  std::unique_ptr<Module> M;
  std::unique_ptr<PreparedModule> PM;
  uint64_t RefOutput = 0;
  uint64_t RefHeap = 0;

  const char *name() const { return Info->Name; }
};

const WorkloadInfo &workload(const char *Name) {
  const WorkloadInfo *W = findWorkload(Name);
  if (!W)
    fatal(std::string("unknown program ") + Name);
  return *W;
}

/// Builds and verifies one program, with bytecode.* spans.
Program buildProgram(const WorkloadInfo &W, uint32_t Scale, Tracer &T) {
  Program P;
  P.Info = &W;
  {
    Tracer::Scope S = T.span("bytecode.build");
    P.M = std::make_unique<Module>(W.Build(Scale));
  }
  {
    Tracer::Scope S = T.span("bytecode.verify");
    if (!verifyModule(*P.M).empty())
      fatal(std::string(W.Name) + " failed verification");
  }
  return P;
}

void prepareProgram(Program &P, Tracer &T) {
  Tracer::Scope S = T.span("interp.prepare");
  P.PM = std::make_unique<PreparedModule>(*P.M);
}

/// Runs the Fig. 1 instruction interpreter -- an engine that shares no
/// dispatch code with TraceVM -- and records the digests every session
/// must reproduce.
void computeReference(Program &P) {
  Machine Mach(*P.M);
  RunResult R = runInstructions(Mach);
  if (R.Status != RunStatus::Finished)
    fatal(std::string("reference run of ") + P.name() + " did not finish");
  P.RefOutput = outputDigest(Mach.output());
  P.RefHeap = heapDigest(Mach.heap());
}

/// Counts operations and failures: a trap, a budget stop, a rejected
/// request, an output or heap mismatch against the reference, or a VmStats
/// digest that differs between sessions of one program and configuration.
class Gate {
public:
  void check(const Program &P, const std::string &Config, const RunResult &R,
             const std::vector<int64_t> &Output, uint64_t Heap,
             const VmStats *Stats) {
    ++Attempted;
    bool Ok = R.Status == RunStatus::Finished &&
              outputDigest(Output) == P.RefOutput && Heap == P.RefHeap;
    if (Ok && Stats) {
      auto [It, New] =
          Digests.emplace(std::string(P.name()) + "/" + Config, Stats->digest());
      Ok = New || It->second == Stats->digest();
    }
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "perfbench: %s (%s) failed the output check\n",
                   P.name(), Config.c_str());
    }
  }

  void reject(const std::string &What) {
    ++Attempted;
    ++Failed;
    std::fprintf(stderr, "perfbench: request rejected: %s\n", What.c_str());
  }

  uint64_t Attempted = 0;
  uint64_t Failed = 0;

private:
  std::map<std::string, uint64_t> Digests;
};

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Report {
  std::vector<Metric> Metrics;
  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

/// A closed loop's throughput (1/s) at each kind's 10th-percentile
/// latency, with \p Outstanding requests in flight and an equal share of
/// requests per kind (Little's law). A measured rate mixes the host's two
/// states in whatever share a run happens to see; this one stays in the
/// fast state with the latencies it is made of.
double closedLoopRate(const std::vector<std::vector<double>> &Latency,
                      unsigned Outstanding) {
  double RoundMs = 0;
  for (const std::vector<double> &L : Latency)
    RoundMs += calm(L);
  return Outstanding * static_cast<double>(Latency.size()) * 1e3 / RoundMs;
}

/// Per-kind 10th percentiles combined as a geomean: one number per run
/// that moves with every program's speed, unlike a pooled quantile of a
/// multimodal mix.
double geomeanOfCalm(const std::vector<std::vector<double>> &PerKind) {
  std::vector<double> PerKindCalm;
  for (const std::vector<double> &V : PerKind)
    if (!V.empty())
      PerKindCalm.push_back(calm(V));
  return geomean(PerKindCalm);
}

//===----------------------------------------------------------------------===//
// Cold sessions and layer attribution
//===----------------------------------------------------------------------===//

/// The configurations of the traced attribution, after the paper's Table
/// VI (profiler on/off) and Table VII (trace dispatch on/off) switches.
enum class Config { Default, Plain, Profiled, NoValidate, OtherTier };
constexpr unsigned NumConfigs = 5;
const char *configName(Config C) {
  switch (C) {
  case Config::Default:
    return "default";
  case Config::Plain:
    return "plain";
  case Config::Profiled:
    return "profiled";
  case Config::NoValidate:
    return "novalidate";
  case Config::OtherTier:
    return "othertier";
  }
  return "default";
}

VmOptions configOptions(Config C, BackendKind Tier) {
  VmOptions O = VmOptions().backend(Tier);
  switch (C) {
  case Config::Default:
    break;
  case Config::Plain:
    O.profiling(false);
    break;
  case Config::Profiled:
    O.traces(false);
    break;
  case Config::NoValidate:
    O.validate(ValidateMode::Off).memElide(false);
    break;
  case Config::OtherTier:
    O.backend(Tier == BackendKind::Jit ? BackendKind::Interp : BackendKind::Jit);
    break;
  }
  return O;
}

struct SessionTimes {
  double CtorMs = 0, RunMs = 0, SessionMs = 0, LatencyMs = 0;
  VmStats Stats;
};

/// One cold session (construct + run), checked. Spans: vm.session.<P>
/// (construct + run) with vm.ctor and vm.run.<config>.<P> inside.
SessionTimes coldSession(const Program &P, Config C, BackendKind Tier,
                         Tracer &T, Gate &G) {
  SessionTimes Out;
  auto T0 = Clock::now();
  RunResult R;
  Clock::time_point T1, T2;
  std::unique_ptr<TraceVM> VM;
  {
    Tracer::Scope Session =
        T.span(std::string("vm.session.") + configName(C) + "." + P.name());
    {
      Tracer::Scope Ctor = T.span("vm.ctor");
      VM = std::make_unique<TraceVM>(*P.PM, configOptions(C, Tier));
    }
    T1 = Clock::now();
    {
      Tracer::Scope Run =
          T.span(std::string("vm.run.") + configName(C) + "." + P.name());
      R = VM->run();
    }
    T2 = Clock::now();
  }
  Out.Stats = VM->stats();
  G.check(P, configName(C), R, VM->machine().output(),
          heapDigest(VM->machine().heap()), &Out.Stats);
  VM.reset();
  auto T3 = Clock::now();
  Out.CtorMs = msBetween(T0, T1);
  Out.RunMs = msBetween(T1, T2);
  Out.SessionMs = msBetween(T0, T2);
  Out.LatencyMs = msBetween(T0, T3);
  return Out;
}

/// Per-program 10th percentiles from the attribution rounds.
struct Attribution {
  std::vector<double> Session, Ctor, Plain, Hook, TraceNet, Validate,
      Residual, NativeSaving, DefaultRun, Latency;
  VmStats Counts; ///< One default session per program, merged.
};

/// Runs rounds over the programs (seeded order) and all five
/// configurations (seeded order) until \p Deadline, at least one round.
/// The differences telescope: plain + hook + trace + validate is the
/// default configuration's run time, and the residual is what the session
/// spends outside run() (construction) plus the gap between a quantile
/// of sums and a sum of quantiles.
Attribution attribute(const std::vector<Program> &Ps, BackendKind Tier,
                      uint64_t Seed, Clock::time_point Deadline, Tracer &T,
                      Gate &G, HostProbe &Host) {
  size_t N = Ps.size();
  std::vector<std::vector<std::vector<double>>> Run(
      N, std::vector<std::vector<double>>(NumConfigs));
  std::vector<std::vector<double>> Session(N), Ctor(N), Latency(N);
  Attribution A;
  std::vector<bool> Counted(N, false);
  PermutationStream Order(Seed, static_cast<unsigned>(N));
  PermutationStream ConfigOrder(Seed ^ 0x5eed5eedull, NumConfigs);
  do {
    for (unsigned I : Order.nextRound()) {
      for (unsigned CI : ConfigOrder.nextRound()) {
        Config C = static_cast<Config>(CI);
        Host.sample();
        SessionTimes S = coldSession(Ps[I], C, Tier, T, G);
        Run[I][CI].push_back(S.RunMs);
        if (C == Config::Default) {
          Session[I].push_back(S.SessionMs);
          Ctor[I].push_back(S.CtorMs);
          Latency[I].push_back(S.LatencyMs);
          if (!Counted[I]) {
            A.Counts.merge(S.Stats);
            Counted[I] = true;
          }
        }
      }
    }
  } while (Clock::now() < Deadline);

  for (size_t I = 0; I < N; ++I) {
    auto Calm = [&](Config C) { return calm(Run[I][unsigned(C)]); };
    double Plain = Calm(Config::Plain), Profiled = Calm(Config::Profiled),
           NoVal = Calm(Config::NoValidate), Def = Calm(Config::Default),
           Other = Calm(Config::OtherTier);
    A.Session.push_back(calm(Session[I]));
    A.Ctor.push_back(calm(Ctor[I]));
    A.Latency.push_back(calm(Latency[I]));
    A.DefaultRun.push_back(Def);
    A.Plain.push_back(Plain);
    A.Hook.push_back(Profiled - Plain);
    A.TraceNet.push_back(NoVal - Profiled);
    A.Validate.push_back(Def - NoVal);
    A.Residual.push_back(A.Session.back() - A.Ctor.back() - Def);
    double InterpRun = Tier == BackendKind::Interp ? Def : Other;
    double JitRun = Tier == BackendKind::Jit ? Def : Other;
    A.NativeSaving.push_back(InterpRun - JitRun);
  }
  return A;
}

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

void reportCounts(const VmStats &S, Report &Rep) {
  auto Ratio = [](uint64_t Num, uint64_t Den) {
    return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
  };
  auto Count = [&](const char *Name, uint64_t V) {
    Rep.add(Name, static_cast<double>(V), "count");
  };
  Count("interp.block_dispatches", S.BlockDispatches);
  Count("profile.hooks", S.Hooks);
  Count("profile.signals", S.Signals);
  Count("profile.decay_passes", S.DecayPasses);
  Count("profile.graph_nodes", S.GraphNodes);
  Count("trace.constructed", S.TracesConstructed);
  Count("trace.replaced", S.TracesReplaced);
  Count("trace.retired", S.TracesRetired);
  Rep.add("trace.coverage", S.traceCoverage(), "ratio");
  Rep.add("trace.completion_rate", S.completionRate(), "ratio");
  Count("validate.validated", S.TracesValidated);
  Count("validate.rejects", S.TraceValidationRejects);
  Count("analysis.checks_elided", S.MemChecksElided);
  Count("backend.traces_compiled", S.TracesJitCompiled);
  Count("backend.compile_fallbacks", S.TraceCompileFallbacks);
  Rep.add("backend.native_dispatch_share",
          Ratio(S.TraceDispatchesJit,
                S.TraceDispatchesJit + S.TraceDispatchesInterp),
          "ratio");
  Count("backend.code_bytes", S.JitCodeBytes);
}

/// Prints the per-program attribution table: the layer columns plus the
/// residual add up to the session column.
void printAttribution(const std::vector<Program> &Ps, const Attribution &A) {
  std::printf("%-10s %10s %9s %9s %9s %9s %9s %9s %9s\n", "program",
              "session", "ctor", "plain", "hook", "trace", "validate",
              "residual", "native");
  for (size_t I = 0; I < Ps.size(); ++I)
    std::printf("%-10s %10.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                Ps[I].name(), A.Session[I], A.Ctor[I], A.Plain[I], A.Hook[I],
                A.TraceNet[I], A.Validate[I], A.Residual[I],
                A.NativeSaving[I]);
  std::printf("(ms as measured, before host scaling; 10th percentiles; "
              "session = ctor + plain + hook + trace + validate + residual; "
              "native = interp-tier run - jit-tier run)\n");
}

/// Fresh-session costs: construction and warm seeding, timed directly on
/// sessions that never run. \p Snaps holds one published snapshot per
/// program (empty when the donor published none).
void timeFreshSessions(const std::vector<Program> &Ps,
                       const std::vector<ProfileSnapshot> &Snaps,
                       BackendKind Tier, Tracer &T) {
  for (int Rep = 0; Rep < 5; ++Rep)
    for (size_t I = 0; I < Ps.size(); ++I) {
      std::unique_ptr<TraceVM> VM;
      {
        Tracer::Scope S = T.span(std::string("fresh.ctor.") + Ps[I].name());
        VM = std::make_unique<TraceVM>(*Ps[I].PM,
                                       VmOptions().backend(Tier));
      }
      if (!Snaps[I].empty() && Snaps[I].compatibleWith(*Ps[I].PM)) {
        Tracer::Scope S = T.span(std::string("fresh.seed.") + Ps[I].name());
        Snaps[I].seed(*VM);
      }
    }
}

/// Sum over programs of the per-program 10th percentile of span
/// \p Prefix<P>.
double sumOfMedians(const Tracer &T, const std::string &Prefix,
                    const std::vector<Program> &Ps) {
  double S = 0;
  for (const Program &P : Ps)
    S += calm(T.ms(Prefix + P.name()));
  return S;
}

void timeAnalysis(const std::vector<Program> &Ps, Tracer &T) {
  for (int Rep = 0; Rep < 3; ++Rep)
    for (const Program &P : Ps) {
      Tracer::Scope S = T.span(std::string("analysis.module.") + P.name());
      analysis::ModuleAnalysis A = analysis::ModuleAnalysis::compute(*P.M);
      if (A.numMethods() != P.M->Methods.size())
        fatal("module analysis lost methods");
    }
}

/// What a traced run measured besides its spans.
struct LayerRun {
  Attribution A;
  std::map<std::string, double> SessionMs; ///< vm.session_ms.<program>
  double RunMs = 0;                         ///< vm.run_ms
  std::vector<double> Overhead; ///< Request latency minus in-VM seconds.
  uint64_t Warm = 0, Completed = 0;
  double SessionGeomean = 0, LatencyCalm = 0; ///< The traced run's own.
};

/// The per-layer metrics: span 10th percentiles, the attribution summed
/// over the workload's programs (so layers + residual = the sessions'
/// sum), and the VmStats counts of one default session per program.
void reportLayers(const Tracer &T, const std::vector<Program> &Ps,
                  const LayerRun &L, Report &R) {
  const Attribution &A = L.A;
  R.add("bytecode.build_ms", calm(T.ms("bytecode.build")), "ms");
  R.add("bytecode.verify_ms", calm(T.ms("bytecode.verify")), "ms");
  R.add("interp.prepare_ms", calm(T.ms("interp.prepare")), "ms");
  R.add("analysis.module_ms", sumOfMedians(T, "analysis.module.", Ps), "ms");
  R.add("server.register_ms", calm(T.ms("server.register")), "ms");
  R.add("server.donor_session_ms", calm(T.ms("server.donor_session")),
        "ms");
  for (const auto &[Name, Ms] : L.SessionMs)
    R.add("vm.session_ms." + Name, Ms, "ms");
  R.add("vm.ctor_ms", sum(A.Ctor), "ms");
  R.add("interp.plain_session_ms", sum(A.Plain), "ms");
  R.add("profile.hook_ms", sum(A.Hook), "ms");
  R.add("trace.dispatch_net_ms", sum(A.TraceNet), "ms");
  R.add("validate.construction_ms", sum(A.Validate), "ms");
  R.add("vm.residual_ms", sum(A.Residual), "ms");
  R.add("backend.native_saving_ms", sum(A.NativeSaving), "ms");
  R.add("vm.run_ms", L.RunMs, "ms");
  R.add("server.overhead_ms", calm(L.Overhead), "ms");
  R.add("server.seed_ms", sumOfMedians(T, "fresh.seed.", Ps), "ms");
  R.add("server.warm_share",
        L.Completed ? static_cast<double>(L.Warm) /
                          static_cast<double>(L.Completed)
                    : 0.0,
        "ratio");
  R.add("traced.session_geomean_ms", L.SessionGeomean, "ms");
  R.add("traced.latency_p10_ms", L.LatencyCalm, "ms");
  reportCounts(A.Counts, R);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct RunContext {
  uint64_t Seed = 0;
  double Seconds = 10;
  Tracer *T = nullptr;
  HostProbe *Host = nullptr;
  Gate G;
  Report Rep;
};

/// Set-ups before the traced run, for the set-up spans. The untraced run
/// sets up once before measuring and once more after every round or
/// segment, so that setup_s samples the host across the whole run rather
/// than in the fraction of a second a block of set-ups takes.
constexpr int SetupReps = 9;

const char *const AllPrograms[] = {"compress", "javac",     "raytrace",
                                   "mpegaudio", "soot", "scimark"};

uint32_t serveScale(const WorkloadInfo &W) {
  return std::max<uint32_t>(1, W.DefaultScale / 50);
}

void printSchedulePreview(uint64_t Seed, const std::vector<Program> &Ps) {
  PermutationStream S(Seed, static_cast<unsigned>(Ps.size()));
  std::printf("seed %llu, first rounds:", static_cast<unsigned long long>(Seed));
  for (int R = 0; R < 3; ++R) {
    std::printf(" [");
    for (unsigned I : S.nextRound())
      std::printf(" %s", Ps[I].name());
    std::printf(" ]");
  }
  std::printf("\n");
}

/// Batch workloads: cold TraceVM sessions, one at a time, in seeded
/// rounds over the programs.
void runBatch(RunContext &Ctx, const std::vector<const char *> &Names,
              BackendKind Tier) {
  Tracer &T = *Ctx.T;

  // Set-up: build, verify, prepare.
  std::vector<double> SetupS;
  auto SetUp = [&] {
    auto T0 = Clock::now();
    std::vector<Program> Fresh;
    for (const char *Name : Names) {
      const WorkloadInfo &W = workload(Name);
      Fresh.push_back(buildProgram(W, W.DefaultScale, T));
      prepareProgram(Fresh.back(), T);
    }
    SetupS.push_back(msBetween(T0, Clock::now()) / 1e3);
    return Fresh;
  };
  std::vector<Program> Ps = SetUp();
  for (int Rep = 1; T.on() && Rep < SetupReps; ++Rep)
    Ps = SetUp();
  for (Program &P : Ps)
    computeReference(P);
  printSchedulePreview(Ctx.Seed, Ps);

  // The traced run leaves a quarter of its time for the service probe and
  // the fresh-session timings.
  auto Start = Clock::now();
  auto Deadline = Start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  T.on() ? 0.75 * Ctx.Seconds : Ctx.Seconds));

  if (!T.on()) {
    std::vector<std::vector<double>> Session(Ps.size()), Latency(Ps.size());
    PermutationStream Order(Ctx.Seed, static_cast<unsigned>(Ps.size()));
    uint64_t Sessions = 0;
    do {
      for (unsigned I : Order.nextRound()) {
        Ctx.Host->sample();
        SessionTimes S = coldSession(Ps[I], Config::Default, Tier, T, Ctx.G);
        Session[I].push_back(S.SessionMs);
        Latency[I].push_back(S.LatencyMs);
        ++Sessions;
      }
      SetUp();
    } while (Clock::now() < Deadline);
    double Elapsed = msBetween(Start, Clock::now()) / 1e3;
    Ctx.Rep.add("setup_s", calm(SetupS), "s");
    Ctx.Rep.add("session_geomean_ms", geomeanOfCalm(Session), "ms");
    Ctx.Rep.add("req_per_s", closedLoopRate(Latency, 1), "1/s");
    Ctx.Rep.add("latency_p10_ms", geomeanOfCalm(Latency), "ms");
    std::printf("%llu sessions and %zu set-ups in %.3f s\n",
                static_cast<unsigned long long>(Sessions), SetupS.size(),
                Elapsed);
    return;
  }

  // Traced run: attribution rounds, then the service probe and the
  // fresh-session and analysis timings.
  LayerRun L;
  L.A = attribute(Ps, Tier, Ctx.Seed, Deadline, T, Ctx.G, *Ctx.Host);
  printAttribution(Ps, L.A);

  VmService Svc(ServiceOptions().workers(1).vm(VmOptions().backend(Tier)));
  std::vector<ProfileSnapshot> Snaps;
  for (const Program &P : Ps) {
    Module Copy = *P.M;
    {
      Tracer::Scope S = T.span("server.register");
      Svc.registerModule(P.name(), std::move(Copy));
    }
    for (int Rep = 0; Rep < 2; ++Rep) {
      auto T0 = Clock::now();
      SessionResult R;
      {
        Tracer::Scope S =
            T.span(Rep == 0 ? "server.donor_session" : "server.request");
        R = Svc.run({P.name()});
      }
      double LatMs = msBetween(T0, Clock::now());
      if (R.Rejected) {
        Ctx.G.reject(P.name());
        continue;
      }
      Ctx.G.check(P, "service", R.Run, R.Output, R.HeapDigest, nullptr);
      ++L.Completed;
      L.Warm += R.WarmStart;
      L.Overhead.push_back(LatMs - R.Seconds * 1e3);
    }
    Snaps.push_back(Svc.snapshotFor(P.name()));
  }
  timeFreshSessions(Ps, Snaps, Tier, T);
  timeAnalysis(Ps, T);

  // Programs outside the workload: one checked cold session each, so
  // every vm.session_ms row exists on every workload.
  for (size_t I = 0; I < Ps.size(); ++I)
    L.SessionMs[Ps[I].name()] = L.A.Session[I];
  for (const char *Name : AllPrograms) {
    if (L.SessionMs.count(Name))
      continue;
    const WorkloadInfo &W = workload(Name);
    Program P = buildProgram(W, W.DefaultScale, T);
    prepareProgram(P, T);
    computeReference(P);
    L.SessionMs[Name] =
        coldSession(P, Config::Default, Tier, T, Ctx.G).SessionMs;
  }
  L.RunMs = geomean(L.A.DefaultRun);
  L.SessionGeomean = geomean(L.A.Session);
  L.LatencyCalm = geomean(L.A.Latency);
  reportLayers(T, Ps, L, Ctx.Rep);
}

/// serve-short: a 2-worker VmService, closed loop with two requests
/// outstanding. Set-up builds, verifies and registers the six programs,
/// starts the service and runs each module's cold donor session.
void runServe(RunContext &Ctx) {
  Tracer &T = *Ctx.T;
  constexpr unsigned Outstanding = 2;
  std::vector<const WorkloadInfo *> Ws;
  for (const char *Name : AllPrograms)
    Ws.push_back(&workload(Name));
  size_t N = Ws.size();

  struct Served {
    std::unique_ptr<VmService> Svc;
    std::vector<Program> Ps;
  };
  std::vector<double> SetupS;
  auto SetUp = [&] {
    auto T0 = Clock::now();
    Served Fresh;
    Fresh.Svc = std::make_unique<VmService>(
        ServiceOptions().workers(2).warmHandoff(true).vm(
            VmOptions().backend(BackendKind::Jit)));
    for (const WorkloadInfo *W : Ws) {
      Fresh.Ps.push_back(buildProgram(*W, serveScale(*W), T));
      Module Copy = *Fresh.Ps.back().M;
      Tracer::Scope S = T.span("server.register");
      Fresh.Svc->registerModule(W->Name, std::move(Copy));
    }
    {
      Tracer::Scope S = T.span("server.donor_session");
      std::vector<std::future<SessionResult>> Donors;
      for (const WorkloadInfo *W : Ws)
        Donors.push_back(Fresh.Svc->submit({W->Name}));
      for (auto &F : Donors)
        F.get();
    }
    SetupS.push_back(msBetween(T0, Clock::now()) / 1e3);
    return Fresh;
  };
  Served First = SetUp();
  for (int Rep = 1; T.on() && Rep < SetupReps; ++Rep) {
    First.Svc.reset();
    First = SetUp();
  }
  std::unique_ptr<VmService> Svc = std::move(First.Svc);
  std::vector<Program> Ps = std::move(First.Ps);
  if (Svc->stats().SnapshotsPublished != N)
    std::fprintf(stderr,
                 "perfbench: only %llu of %zu donors published a snapshot\n",
                 static_cast<unsigned long long>(Svc->stats().SnapshotsPublished),
                 N);
  for (Program &P : Ps) {
    prepareProgram(P, T);
    computeReference(P);
  }
  printSchedulePreview(Ctx.Seed, Ps);

  // The closed loop. Completion callbacks only timestamp and enqueue; the
  // main thread checks results and resubmits on any completion, so one
  // slow request never holds back the next submission.
  struct Done {
    uint64_t Id;
    Clock::time_point At;
    SessionResult R;
  };
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<Done> Completions; // guarded by Mu
  std::vector<Clock::time_point> SubmittedAt;
  std::vector<unsigned> KindOf;
  KindStream Kinds(Ctx.Seed, static_cast<unsigned>(N));
  auto Submit = [&] {
    uint64_t Id = SubmittedAt.size();
    unsigned Kind = Kinds.next();
    KindOf.push_back(Kind);
    SubmittedAt.push_back(Clock::now());
    Svc->submitAsync({Ws[Kind]->Name}, [&, Id](SessionResult R) {
      Done D{Id, Clock::now(), std::move(R)};
      // Notify under the lock: once the main thread sees the last
      // completion it may return and destroy Mu and Cv.
      std::lock_guard<std::mutex> Lock(Mu);
      Completions.push_back(std::move(D));
      Cv.notify_one();
    });
  };

  // Traced: 40% of the time in the loop, 35% in attribution rounds, the
  // rest for the fresh-session and analysis timings. The loop runs in
  // one-second segments; between segments it drains, sets up once more
  // (untraced) and samples the host speed.
  double LoopSeconds = T.on() ? 0.4 * Ctx.Seconds : Ctx.Seconds;
  std::vector<std::vector<double>> Latency(N), RunMs(N);
  std::vector<double> Overhead;
  uint64_t Warm = 0, Completed = 0, Segments = 0;
  auto Start = Clock::now();
  auto Deadline = Start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(LoopSeconds));
  while (Clock::now() < Deadline) {
    if (!T.on() && Segments > 0)
      SetUp();
    for (int I = 0; I < 3; ++I)
      Ctx.Host->sample();
    auto SegEnd = Clock::now() + std::chrono::seconds(1);
    unsigned InFlight = 0;
    for (; InFlight < Outstanding; ++InFlight)
      Submit();
    while (InFlight > 0) {
      std::deque<Done> Batch;
      {
        std::unique_lock<std::mutex> Lock(Mu);
        Cv.wait(Lock, [&] { return !Completions.empty(); });
        Batch.swap(Completions);
      }
      for (Done &D : Batch) {
        --InFlight;
        if (Clock::now() < SegEnd) {
          Submit();
          ++InFlight;
        }
        unsigned Kind = KindOf[D.Id];
        if (D.R.Rejected) {
          Ctx.G.reject(Ws[Kind]->Name);
          continue;
        }
        Ctx.G.check(Ps[Kind], "service", D.R.Run, D.R.Output,
                    D.R.HeapDigest, nullptr);
        double LatMs = msBetween(SubmittedAt[D.Id], D.At);
        T.add(std::string("server.request.") + Ws[Kind]->Name,
              SubmittedAt[D.Id], D.At, D.Id + 1);
        Latency[Kind].push_back(LatMs);
        RunMs[Kind].push_back(D.R.Seconds * 1e3);
        Overhead.push_back(LatMs - D.R.Seconds * 1e3);
        Warm += D.R.WarmStart;
        ++Completed;
      }
    }
    ++Segments;
  }
  double Elapsed = msBetween(Start, Clock::now()) / 1e3;
  std::printf("%llu requests in %llu segments and %zu set-ups in %.3f s\n",
              static_cast<unsigned long long>(Completed),
              static_cast<unsigned long long>(Segments), SetupS.size(),
              Elapsed);

  if (!T.on()) {
    Ctx.Rep.add("setup_s", calm(SetupS), "s");
    Ctx.Rep.add("session_geomean_ms", geomeanOfCalm(RunMs), "ms");
    Ctx.Rep.add("req_per_s", closedLoopRate(Latency, Outstanding), "1/s");
    Ctx.Rep.add("latency_p10_ms", geomeanOfCalm(Latency), "ms");
    return;
  }

  std::vector<ProfileSnapshot> Snaps;
  for (const Program &P : Ps)
    Snaps.push_back(Svc->snapshotFor(P.name()));
  Svc.reset();

  LayerRun L;
  L.A = attribute(
      Ps, BackendKind::Jit, Ctx.Seed,
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(0.35 * Ctx.Seconds)),
      T, Ctx.G, *Ctx.Host);
  printAttribution(Ps, L.A);
  timeFreshSessions(Ps, Snaps, BackendKind::Jit, T);
  timeAnalysis(Ps, T);

  for (size_t I = 0; I < N; ++I)
    L.SessionMs[Ps[I].name()] = calm(RunMs[I]);
  L.RunMs = L.SessionGeomean = geomeanOfCalm(RunMs);
  L.LatencyCalm = geomeanOfCalm(Latency);
  L.Overhead = std::move(Overhead);
  L.Warm = Warm;
  L.Completed = Completed;
  reportLayers(T, Ps, L, Ctx.Rep);
}

void printResult(const RunContext &Ctx) {
  for (const Metric &M : Ctx.Rep.Metrics)
    std::printf("  %-32s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(Ctx.G.Attempted),
              static_cast<unsigned long long>(Ctx.G.Failed));
  // The last line: one JSON object, doubles at full precision.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Ctx.G.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(Ctx.G.Attempted),
              static_cast<unsigned long long>(Ctx.G.Failed));
  for (size_t I = 0; I < Ctx.Rep.Metrics.size(); ++I) {
    const Metric &M = Ctx.Rep.Metrics[I];
    if (!std::isfinite(M.Value))
      fatal("metric " + M.Name + " is not finite");
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", M.Name.c_str(), M.Value, M.Unit.c_str());
  }
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, TraceOut;
  uint64_t Seed = 0;
  double Seconds = 10;
  uint32_t Trace = 0;
  ArgParser P;
  P.strOpt("workload", &Workload)
      .uintOpt("seed", &Seed)
      .realOpt("seconds", &Seconds)
      .u32Opt("trace", &Trace)
      .strOpt("trace-out", &TraceOut);
  if (!P.parse(Argc, Argv) || Seconds <= 0 || Trace > 1 ||
      (Workload != "batch-branchy" && Workload != "batch-regular" &&
       Workload != "serve-short")) {
    std::fprintf(stderr,
                 "usage: jtc_perfbench --workload=<batch-branchy|"
                 "batch-regular|serve-short> --seed=<n> --seconds=<s> "
                 "--trace=<0|1> [--trace-out=<file>]\n");
    return 2;
  }

  Tracer T(Trace == 1);
  HostProbe Host;
  RunContext Ctx;
  Ctx.Seed = Seed;
  Ctx.Seconds = Seconds;
  Ctx.T = &T;
  Ctx.Host = &Host;

  double CalBefore = Host.calibrationMs();
  std::printf("workload %s, trace %u\n", Workload.c_str(), Trace);
  if (Workload == "batch-branchy")
    runBatch(Ctx, {"javac", "soot"}, BackendKind::Interp);
  else if (Workload == "batch-regular")
    runBatch(Ctx, {"compress", "raytrace", "mpegaudio", "scimark"},
             BackendKind::Jit);
  else
    runServe(Ctx);
  double PeakRss = peakRssMb();
  double CalAfter = Host.calibrationMs();
  std::printf("host calibration: %.3f ms before, %.3f ms after\n", CalBefore,
              CalAfter);

  // Every time and rate so far is reported at the reference host's speed.
  double Scale = Host.scale();
  std::printf("host speed: times scaled by %.4f (%zu dispatch samples)\n",
              Scale, Host.samples());
  for (Metric &M : Ctx.Rep.Metrics) {
    if (M.Unit == "ms" || M.Unit == "s")
      M.Value *= Scale;
    else if (M.Unit == "1/s")
      M.Value /= Scale;
  }

  if (Trace) {
    Ctx.Rep.add("host.calibration_ms", (CalBefore + CalAfter) / 2, "ms");
    if (!TraceOut.empty() && !T.writeChrome(TraceOut))
      fatal("cannot write " + TraceOut);
  } else {
    Ctx.Rep.add("peak_rss_mb", PeakRss, "MB");
  }
  printResult(Ctx);
  return 0;
}
