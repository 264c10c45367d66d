//===- fleet/Shard.cpp ----------------------------------------------------===//

#include "fleet/Shard.h"

#include "bytecode/Verifier.h"
#include "net/EpollServer.h"
#include "server/VmService.h"
#include "telemetry/Event.h"
#include "text/AsmParser.h"

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>

using namespace jtc;
using namespace jtc::fleet;
using namespace jtc::net;

std::string fleet::shardCheckpointDir(const std::string &StateDir,
                                      uint32_t ShardId) {
  return StateDir + "/shard-" + std::to_string(ShardId);
}

std::string fleet::fleetAggregateDir(const std::string &StateDir) {
  return StateDir + "/fleet";
}

namespace {

volatile std::sig_atomic_t ShardStopRequested = 0;

void onShardSignal(int) { ShardStopRequested = 1; }

/// The shard's protocol handler: every callback fires on the poll
/// thread; VmService workers hand completions back through Outbox +
/// wake().
class ShardHandler : public EpollServer::Handler {
public:
  ShardHandler(const ShardOptions &O, VmService &Svc) : O(O), Svc(Svc) {}

  void attach(EpollServer *Server) { Net = Server; }

  uint64_t backpressureRejects() const { return BackpressureRejects; }

  void onFrame(uint64_t ConnId, Frame F) override {
    NetError Err;
    switch (F.Type) {
    case MessageType::Ping:
      Net->send(ConnId, MessageType::Pong, F.RequestId, {});
      return;
    case MessageType::SubmitProgram: {
      SubmitProgramMsg M;
      if (!M.decode(F.Payload, Err))
        return sendError(ConnId, F.RequestId, RequestErrorCode::BadRequest,
                         Err.message());
      std::string ParseErr;
      std::optional<Module> Mod = parseModule(M.Jasm, ParseErr);
      if (!Mod)
        return sendError(ConnId, F.RequestId,
                         RequestErrorCode::ProgramRejected, ParseErr);
      std::vector<VerifyError> Errors = verifyModule(*Mod);
      if (!Errors.empty())
        return sendError(ConnId, F.RequestId,
                         RequestErrorCode::ProgramRejected,
                         Errors.front().Message);
      Svc.registerModule(M.Name, std::move(*Mod), "submitted:" + M.Name);
      Net->send(ConnId, MessageType::SubmitAck, F.RequestId, {});
      return;
    }
    case MessageType::RunSession: {
      RunSessionMsg M;
      if (!M.decode(F.Payload, Err))
        return sendError(ConnId, F.RequestId, RequestErrorCode::BadRequest,
                         Err.message());
      if (ShardStopRequested)
        return sendError(ConnId, F.RequestId, RequestErrorCode::Shutdown,
                         "shard draining");
      uint64_t Depth = Svc.queueDepth();
      if (Depth >= O.MaxQueueDepth) {
        ++BackpressureRejects;
        BackpressureMsg B;
        B.QueueDepth = Depth;
        B.Bound = O.MaxQueueDepth;
        Net->send(ConnId, MessageType::Backpressure, F.RequestId, B.encode());
        return;
      }
      RunRequest R;
      R.Module = M.Module;
      R.MaxInstructions = M.MaxInstructions;
      uint64_t ReqId = F.RequestId;
      Svc.submitAsync(std::move(R),
                      [this, ConnId, ReqId](SessionResult Result) {
                        {
                          std::lock_guard<std::mutex> Lock(OutboxMutex);
                          Outbox.push_back(
                              {ConnId, ReqId, std::move(Result)});
                        }
                        Net->wake();
                      });
      return;
    }
    case MessageType::FetchStats: {
      StatsReplyMsg M;
      fillStats(M);
      Net->send(ConnId, MessageType::StatsReply, F.RequestId, M.encode());
      return;
    }
    case MessageType::Checkpoint: {
      CheckpointAckMsg M;
      M.Saved = Svc.checkpointAll();
      Net->send(ConnId, MessageType::CheckpointAck, F.RequestId, M.encode());
      return;
    }
    default:
      sendError(ConnId, F.RequestId, RequestErrorCode::BadRequest,
                std::string("unexpected ") + messageTypeName(F.Type));
      return;
    }
  }

  void onWake() override {
    std::vector<Retired> Batch;
    {
      std::lock_guard<std::mutex> Lock(OutboxMutex);
      Batch.swap(Outbox);
    }
    for (Retired &R : Batch) {
      if (R.Result.Rejected) {
        sendError(R.ConnId, R.RequestId, RequestErrorCode::UnknownModule,
                  "module '" + R.Result.Module + "' is not registered");
        continue;
      }
      SessionDoneMsg M;
      M.Status = static_cast<uint8_t>(R.Result.Run.Status);
      M.Trap = static_cast<uint8_t>(R.Result.Run.Trap);
      M.WarmStart = R.Result.WarmStart;
      M.Shard = O.ShardId;
      M.BlocksExecuted = R.Result.Stats.BlocksExecuted;
      M.Instructions = R.Result.Run.Instructions;
      M.HeapDigest = R.Result.HeapDigest;
      M.OutputDigest = outputDigest(R.Result.Output);
      M.StatsDigest = R.Result.Stats.digest();
      M.Seconds = R.Result.Seconds;
      Net->send(R.ConnId, MessageType::SessionDone, R.RequestId, M.encode());
    }
  }

private:
  struct Retired {
    uint64_t ConnId;
    uint64_t RequestId;
    SessionResult Result;
  };

  void sendError(uint64_t ConnId, uint64_t RequestId, RequestErrorCode Code,
                 std::string Detail) {
    ErrorMsg M;
    M.Code = static_cast<uint32_t>(Code);
    M.Detail = std::move(Detail);
    Net->send(ConnId, MessageType::Error, RequestId, M.encode());
  }

  void fillStats(StatsReplyMsg &M) {
    ServiceStats S = Svc.stats();
    const NetCounters &N = Net->counters();
    auto Put = [&M](const char *Key, uint64_t V) {
      M.Counters.emplace_back(Key, V);
    };
    Put("submitted", S.Submitted);
    Put("completed", S.Completed);
    Put("rejected", S.Rejected);
    Put("warm-starts", S.WarmStarts);
    Put("cold-starts", S.ColdStarts);
    Put("snapshots-published", S.SnapshotsPublished);
    Put("checkpoints-saved", S.CheckpointsSaved);
    Put("checkpoints-loaded", S.CheckpointsLoaded);
    Put("checkpoint-load-rejects", S.CheckpointLoadRejects);
    Put("queue-depth", Svc.queueDepth());
    Put("traces-jit-compiled", S.Aggregate.TracesJitCompiled);
    Put("jit-code-reused", S.Aggregate.JitCodeReused);
    Put(eventKindName(EventKind::ConnAccepted), N.ConnsAccepted);
    Put(eventKindName(EventKind::ConnClosed), N.ConnsClosed);
    Put(eventKindName(EventKind::RequestRejectedBackpressure),
        BackpressureRejects);
    Put("frames-in", N.FramesIn);
    Put("frames-out", N.FramesOut);
    Put("protocol-errors", N.ProtocolErrors);
    Put("idle-closed", N.IdleClosed);
  }

  const ShardOptions &O;
  VmService &Svc;
  EpollServer *Net = nullptr;

  std::mutex OutboxMutex;
  std::vector<Retired> Outbox; ///< Guarded by OutboxMutex.

  uint64_t BackpressureRejects = 0; ///< Poll-thread only.
};

} // namespace

int fleet::runShardProcess(const ShardOptions &O) {
  if (O.ListenFd < 0) {
    std::fprintf(stderr, "shard %u: no inherited listen fd\n", O.ShardId);
    return 2;
  }

  ServiceOptions SO;
  SO.workers(O.Workers).vm(VmOptions().backend(O.Backend));
  if (!O.StateDir.empty()) {
    std::string Dir = shardCheckpointDir(O.StateDir, O.ShardId);
    std::error_code Ec;
    std::filesystem::create_directories(Dir, Ec);
    SO.checkpointDir(Dir);
    SO.loadDir(fleetAggregateDir(O.StateDir));
    SO.checkpointIntervalSeconds(O.CheckpointIntervalSeconds);
  }
  VmService Svc(SO);
  for (const auto &[Name, Scale] : O.Workloads) {
    const WorkloadInfo *W = findWorkload(Name);
    if (!W) {
      std::fprintf(stderr, "shard %u: unknown workload '%s'\n", O.ShardId,
                   Name.c_str());
      return 2;
    }
    Svc.registerWorkload(*W, Scale);
  }

  ShardStopRequested = 0;
  std::signal(SIGTERM, onShardSignal);
  std::signal(SIGINT, onShardSignal);
  std::signal(SIGPIPE, SIG_IGN);

  ShardHandler Handler(O, Svc);
  EpollServer::Config Cfg;
  Cfg.IdleTimeoutSeconds = O.IdleTimeoutSeconds;
  EpollServer Net(Cfg, Handler);
  Handler.attach(&Net);
  std::string Err;
  if (!Net.addListener(O.ListenFd, Err)) {
    std::fprintf(stderr, "shard %u: %s\n", O.ShardId, Err.c_str());
    return 2;
  }

  while (!ShardStopRequested)
    Net.poll(/*TimeoutMs=*/100);

  // Graceful drain: retire admitted sessions, write a final checkpoint.
  Svc.shutdown();
  return 0;
}
