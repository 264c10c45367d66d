//===- tools/jtc_replay.cpp - Deterministic branch-trace replay -----------===//
///
/// \file
/// jtc-replay <stream.btc> [options]
///
/// Re-drives a captured .btc branch-trace stream through the adaptive
/// machinery -- profiler, branch correlation graph, trace cache -- and
/// verifies that the recomputed statistics digest matches the one the
/// encoder recorded when the live run ended. A match proves the stream
/// captured everything the adaptive pipeline depended on; a mismatch is
/// printed as a field-level diff of the oracle totals.
///
/// The stream records its own program spec and workload scale, so the
/// bare form `jtc-replay t.btc` just works for workload captures;
/// --program overrides the spec when the capture came from a .jasm file
/// that has since moved.
///
/// Options:
///   --program=<spec>  module to replay over (default: embedded spec)
///   --scale=<n>       workload scale override (default: embedded)
///   --stats           print the full replayed statistics block
///   --json[=<file>]   replay outcome + stats as JSON (stdout default)
///   --sync-points     list the stream's CRC-valid sync points
///   --recover         loss-tolerant: walk the tail of a damaged stream
///                     from its last intact sync point
///   --quiet           suppress the human-readable summary
///
/// Exit status: 0 when the replay digest matches the recorded one (or
/// --recover salvaged something), 1 otherwise, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "btrace/BtraceDecoder.h"
#include "btrace/BtraceReplay.h"
#include "bytecode/Verifier.h"
#include "support/ArgParse.h"
#include "support/Json.h"
#include "support/TypedError.h"
#include "text/AsmParser.h"
#include "interp/PreparedModule.h"
#include "workloads/Workloads.h"

#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

using namespace jtc;

namespace {

struct Options {
  std::string StreamPath;
  std::string Program; ///< Override; empty = use the embedded spec.
  uint32_t Scale = 0;  ///< Override; 0 = use the embedded scale.
  bool Stats = false;
  bool Json = false;
  std::string JsonOut; ///< Empty with Json=true means stdout.
  bool SyncPoints = false;
  bool Recover = false;
  bool Quiet = false;
};

int usage() {
  std::cerr << "usage: jtc-replay <stream.btc> [options]\n"
               "  options: --program=SPEC --scale=N --stats --json[=FILE]\n"
               "           --sync-points --recover --quiet\n"
               "  SPEC is a .jasm file or workload:<name>; by default the\n"
               "  spec and scale embedded in the stream are used.\n";
  return 2;
}

bool parseOptions(int Argc, char **Argv, Options &Opts) {
  std::vector<std::string> Positional;
  ArgParser P;
  P.strOpt("program", &Opts.Program)
      .u32Opt("scale", &Opts.Scale)
      .flag("stats", &Opts.Stats)
      .custom("json",
              [&Opts](const std::string &V) {
                Opts.Json = true;
                Opts.JsonOut = V;
                return true;
              })
      .flag("sync-points", &Opts.SyncPoints)
      .flag("recover", &Opts.Recover)
      .flag("quiet", &Opts.Quiet)
      .positionals(&Positional);
  if (!P.parse(Argc, Argv, 1))
    return false;
  if (Positional.size() != 1) {
    std::cerr << "expected exactly one <stream.btc> argument\n";
    return false;
  }
  Opts.StreamPath = Positional.front();
  return true;
}

/// Loads and verifies the module named by \p Spec ("workload:<name>" or
/// a .jasm path), at \p Scale for workloads.
std::optional<Module> loadModule(const std::string &Spec, uint32_t Scale) {
  std::optional<Module> M;
  if (Spec.rfind("workload:", 0) == 0) {
    std::string Name = Spec.substr(9);
    const WorkloadInfo *W = findWorkload(Name);
    if (!W) {
      std::cerr << "unknown workload '" << Name << "'\n";
      return std::nullopt;
    }
    M = W->Build(Scale ? Scale : W->DefaultScale);
  } else {
    std::string Error;
    M = parseModuleFile(Spec, Error);
    if (!M) {
      std::cerr << "error: " << Error << "\n";
      return std::nullopt;
    }
  }
  std::vector<VerifyError> Errors = verifyModule(*M);
  if (!Errors.empty()) {
    std::cerr << "verification failed:\n" << formatErrors(Errors);
    return std::nullopt;
  }
  return M;
}

/// Reports a typed failure: one qualified line on stderr, and with --json
/// the repo-uniform error document ({"error": {"category", "code",
/// "detail"}}) so machine consumers parse every taxonomy the same way.
int failTyped(const Options &Opts, const char *Context, const TypedError &E) {
  std::cerr << Context << ": " << E.qualifiedMessage() << "\n";
  if (Opts.Json) {
    auto WriteErr = [&](std::ostream &OS) {
      JsonWriter W(OS);
      W.beginObject().field("context", Context);
      W.key("error").beginObject();
      E.writeJsonFields(W);
      W.endObject().endObject();
      OS << "\n";
    };
    if (Opts.JsonOut.empty()) {
      WriteErr(std::cout);
    } else {
      std::ofstream OS(Opts.JsonOut);
      if (OS)
        WriteErr(OS);
    }
  }
  return 1;
}

void writeReplayJson(std::ostream &OS, const Options &Opts,
                     const btrace::ReplayResult &RR) {
  JsonWriter W(OS);
  W.beginObject();
  W.field("stream", Opts.StreamPath);
  W.field("program", Opts.Program.empty() ? RR.Header.Spec : Opts.Program);
  W.fieldUInt("scale", Opts.Scale ? Opts.Scale : RR.Header.Scale);
  W.field("status", runStatusName(RR.End.Status));
  if (RR.End.Status == RunStatus::Trapped)
    W.field("trap", trapName(RR.End.Trap));
  W.fieldUInt("blocks", RR.BlocksWalked);
  W.fieldUInt("instructions", RR.End.Instructions);
  W.fieldBool("digest_match", RR.DigestMatch);
  W.fieldUInt("recorded_digest", RR.End.StatsDigest);
  W.fieldUInt("replay_digest", RR.ReplayDigest);
  W.fieldBool("seeded", RR.Header.hasSeed());
  W.fieldUInt("seed_nodes", RR.SeedNodes);
  W.fieldUInt("seed_traces", RR.SeedTraces);
  W.key("stats").beginObject();
  RR.Stats.writeJsonFields(W);
  W.endObject();
  W.endObject();
  OS << "\n";
}

/// `--sync-points`: list every CRC-valid sync packet. Works on damaged
/// streams; no module needed.
int cmdSyncPoints(const std::vector<uint8_t> &Data) {
  std::vector<btrace::SyncPoint> Syncs =
      btrace::scanSyncPoints(Data.data(), Data.size());
  for (const btrace::SyncPoint &S : Syncs)
    std::cout << "sync @" << S.Offset << ": blocks=" << S.BlocksExecuted
              << " cur=" << S.Cur << " depth=" << S.Stack.size() << "\n";
  std::cout << Syncs.size() << " sync point(s)\n";
  return 0;
}

/// `--recover`: loss-tolerant tail walk from the last intact sync point.
int cmdRecover(const Options &Opts, const std::vector<uint8_t> &Data,
               const PreparedModule &PM) {
  btrace::SuccessorTable ST(PM);
  btrace::TailRecovery T =
      btrace::recoverTail(Data.data(), Data.size(), PM, ST);
  if (!T.Found) {
    std::cerr << "no usable sync point in '" << Opts.StreamPath << "'\n";
    return 1;
  }
  if (!Opts.Quiet) {
    std::cerr << "recovered " << T.Blocks.size() << " block(s) from sync @"
              << T.From.Offset << " (blocks=" << T.From.BlocksExecuted
              << ", cur=" << T.From.Cur << ")\n";
    if (T.SawEnd)
      std::cerr << "stream END intact: " << runStatusName(T.End.Status)
                << ", " << T.End.BlocksExecuted << " blocks, "
                << T.End.Instructions << " instructions\n";
    else
      std::cerr << "stream END missing or damaged (torn capture)\n";
  }
  for (BlockId B : T.Blocks)
    std::cout << B << "\n";
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseOptions(Argc, Argv, Opts))
    return usage();

  std::ifstream In(Opts.StreamPath, std::ios::binary);
  if (!In) {
    std::cerr << "cannot open btrace stream '" << Opts.StreamPath << "'\n";
    return 1;
  }
  std::vector<uint8_t> Data((std::istreambuf_iterator<char>(In)),
                            std::istreambuf_iterator<char>());
  In.close();

  if (Opts.SyncPoints)
    return cmdSyncPoints(Data);

  // Resolve the module: the header's embedded spec/scale unless
  // overridden on the command line.
  btrace::BtraceHeader H;
  size_t HeaderSize = 0;
  persist::PersistError Err;
  if (!btrace::decodeHeader(Data.data(), Data.size(), H, HeaderSize, Err))
    return failTyped(Opts, "bad btrace stream", Err.typed());
  std::string Spec = Opts.Program.empty() ? H.Spec : Opts.Program;
  if (Spec.empty()) {
    std::cerr << "stream has no embedded program spec; pass --program=\n";
    return 1;
  }
  std::optional<Module> M =
      loadModule(Spec, Opts.Scale ? Opts.Scale : H.Scale);
  if (!M)
    return 1;
  PreparedModule PM(*M);

  if (Opts.Recover)
    return cmdRecover(Opts, Data, PM);

  btrace::ReplayResult RR;
  if (!btrace::replayBtrace(Data.data(), Data.size(), PM, RR, Err))
    return failTyped(Opts, "replay failed", Err.typed());

  if (Opts.Stats)
    RR.Stats.print(std::cerr);
  if (!Opts.Quiet) {
    std::cerr << "stream: " << Spec << " scale "
              << (Opts.Scale ? Opts.Scale : RR.Header.Scale);
    if (RR.Header.hasSeed())
      std::cerr << ", seeded (" << RR.SeedNodes << " nodes, "
                << RR.SeedTraces << " traces)";
    std::cerr << "\nreplayed " << RR.BlocksWalked << " blocks ("
              << runStatusName(RR.End.Status);
    if (RR.End.Status == RunStatus::Trapped)
      std::cerr << ": " << trapName(RR.End.Trap);
    std::cerr << "), " << RR.End.Instructions << " instructions\n";
    if (RR.DigestMatch) {
      std::cerr << "stats digest match: 0x" << std::hex << RR.ReplayDigest
                << std::dec << "\n";
    } else {
      std::cerr << "stats digest MISMATCH: recorded 0x" << std::hex
                << RR.End.StatsDigest << ", replayed 0x" << RR.ReplayDigest
                << std::dec << "\n"
                << "  recorded blocks=" << RR.End.BlocksExecuted
                << " instructions=" << RR.End.Instructions << "\n"
                << "  replayed blocks=" << RR.Stats.BlocksExecuted
                << " instructions=" << RR.Stats.Instructions << "\n";
    }
  }
  if (Opts.Json) {
    if (Opts.JsonOut.empty()) {
      writeReplayJson(std::cout, Opts, RR);
    } else {
      std::ofstream OS(Opts.JsonOut);
      if (!OS) {
        std::cerr << "cannot open '" << Opts.JsonOut << "' for writing\n";
        return 1;
      }
      writeReplayJson(OS, Opts, RR);
    }
  }
  return RR.DigestMatch ? 0 : 1;
}
