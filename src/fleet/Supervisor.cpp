//===- fleet/Supervisor.cpp -----------------------------------------------===//

#include "fleet/Supervisor.h"

#include "fleet/Shard.h"
#include "telemetry/Event.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <sys/wait.h>
#include <unistd.h>

using namespace jtc;
using namespace jtc::fleet;
using namespace jtc::net;

FleetSupervisor::FleetSupervisor(FleetOptions Opts) : O(std::move(Opts)) {
  EpollServer::Config Cfg;
  // The front-end sweeps idle clients; upstream shard connections are
  // connectTo() and exempt by construction.
  Cfg.IdleTimeoutSeconds = O.IdleTimeoutSeconds;
  Net = std::make_unique<EpollServer>(Cfg, *this);
}

FleetSupervisor::~FleetSupervisor() { shutdown(); }

const NetCounters &FleetSupervisor::netCounters() const {
  return Net->counters();
}

bool FleetSupervisor::spawnShard(unsigned Shard, std::string &Err) {
  ShardSlot &S = Slots[Shard];
  std::vector<std::string> Args;
  Args.push_back(O.ShardBinary);
  Args.push_back("--shard");
  Args.push_back("--shard-id=" + std::to_string(Shard));
  Args.push_back("--listen-fd=" + std::to_string(S.ListenFd));
  Args.push_back("--shard-workers=" + std::to_string(O.Workers));
  Args.push_back("--max-queue-depth=" + std::to_string(O.MaxQueueDepth));
  Args.push_back(std::string("--backend=") +
                 backend::backendKindName(O.Backend));
  if (!O.StateDir.empty())
    Args.push_back("--state-dir=" + O.StateDir);
  if (O.CheckpointIntervalSeconds > 0)
    Args.push_back("--checkpoint-interval=" +
                   std::to_string(O.CheckpointIntervalSeconds) + "s");
  if (O.IdleTimeoutSeconds > 0)
    Args.push_back("--idle-timeout=" +
                   std::to_string(O.IdleTimeoutSeconds) + "s");
  for (const auto &[Name, Scale] : O.Workloads)
    Args.push_back("--workload=" + Name +
                   (Scale ? ":" + std::to_string(Scale) : std::string()));

  std::vector<char *> Argv;
  Argv.reserve(Args.size() + 1);
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  pid_t Pid = ::fork();
  if (Pid < 0) {
    Err = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (Pid == 0) {
    // Child: everything except the inherited listen fds is CLOEXEC, so
    // exec starts the shard with a clean table.
    ::execv(O.ShardBinary.c_str(), Argv.data());
    std::fprintf(stderr, "execv %s: %s\n", O.ShardBinary.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  S.Pid = Pid;
  return true;
}

bool FleetSupervisor::start(std::string &Err) {
  if (Started) {
    Err = "already started";
    return false;
  }
  if (O.Shards < 1)
    O.Shards = 1;
  if (O.ShardBinary.empty()) {
    Err = "no shard binary configured";
    return false;
  }
  if (!O.StateDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(fleetAggregateDir(O.StateDir), Ec);
    if (Ec) {
      Err = "create " + fleetAggregateDir(O.StateDir) + ": " + Ec.message();
      return false;
    }
  }

  FrontFd = EpollServer::makeListenSocket(O.ListenPort, FrontPort, Err);
  if (FrontFd < 0)
    return false;
  if (!Net->addListener(FrontFd, Err))
    return false;

  Slots.resize(O.Shards);
  for (unsigned I = 0; I < O.Shards; ++I) {
    ShardSlot &S = Slots[I];
    S.ListenFd = EpollServer::makeListenSocket(0, S.Port, Err);
    if (S.ListenFd < 0)
      return false;
    Ring.add(I);
  }
  for (unsigned I = 0; I < O.Shards; ++I)
    if (!spawnShard(I, Err))
      return false;
  // The sockets are already listening (the kernel queues connects while
  // the shard boots), so upstream connections succeed immediately.
  for (unsigned I = 0; I < O.Shards; ++I) {
    ShardSlot &S = Slots[I];
    S.Conn = Net->connectTo(S.Port, Err);
    if (S.Conn == 0)
      return false;
    ConnToShard[S.Conn] = I;
  }
  LastAggregate = LastKeepalive = std::chrono::steady_clock::now();
  Started = true;
  return true;
}

void FleetSupervisor::reapChildren() {
  for (;;) {
    int Status = 0;
    pid_t Pid = ::waitpid(-1, &Status, WNOHANG);
    if (Pid <= 0)
      return;
    auto It = std::find_if(Slots.begin(), Slots.end(),
                           [Pid](const ShardSlot &S) { return S.Pid == Pid; });
    if (It == Slots.end())
      continue;
    ShardSlot &S = *It;
    unsigned Shard = static_cast<unsigned>(It - Slots.begin());
    S.Pid = -1;
    if (S.Conn) {
      uint64_t Old = S.Conn;
      S.Conn = 0;
      ConnToShard.erase(Old);
      failShardPendings(Old);
      Net->closeConn(Old);
    }
    if (ShuttingDown)
      continue;
    ++S.Restarts;
    ++Stats.ShardRestarts;
    std::string Err;
    if (!spawnShard(Shard, Err))
      std::fprintf(stderr, "fleet: restart shard %u: %s\n", Shard,
                   Err.c_str());
  }
}

void FleetSupervisor::reconnectShards() {
  for (unsigned I = 0; I < Slots.size(); ++I) {
    ShardSlot &S = Slots[I];
    if (S.Pid < 0 || S.Conn != 0)
      continue;
    std::string Err;
    S.Conn = Net->connectTo(S.Port, Err);
    if (S.Conn)
      ConnToShard[S.Conn] = I;
  }
}

void FleetSupervisor::poll(int TimeoutMs) {
  Net->poll(TimeoutMs);
  reapChildren();
  reconnectShards();

  auto Now = std::chrono::steady_clock::now();
  if (O.IdleTimeoutSeconds > 0) {
    // Keep upstream connections warm: the shard side sees us as an
    // accepted (idle-sweepable) connection.
    double Sec = std::chrono::duration<double>(Now - LastKeepalive).count();
    if (Sec > O.IdleTimeoutSeconds / 2) {
      LastKeepalive = Now;
      for (ShardSlot &S : Slots)
        if (S.Conn)
          Net->send(S.Conn, MessageType::Ping, 0, {});
    }
  }
  maybeAggregate();
}

void FleetSupervisor::maybeAggregate() {
  if (O.AggregateIntervalSeconds <= 0 || O.StateDir.empty() ||
      AggregateFanIn != 0 || ShuttingDown)
    return;
  auto Now = std::chrono::steady_clock::now();
  double Sec = std::chrono::duration<double>(Now - LastAggregate).count();
  if (Sec < O.AggregateIntervalSeconds)
    return;
  LastAggregate = Now;
  AggregateFanIn = startFanIn(MessageType::Checkpoint, {}, 0, 0);
}

void FleetSupervisor::runFor(double Seconds) {
  auto End = std::chrono::steady_clock::now() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(Seconds));
  while (std::chrono::steady_clock::now() < End)
    poll(50);
}

uint64_t FleetSupervisor::startFanIn(MessageType Type,
                                     const std::vector<uint8_t> &Payload,
                                     uint64_t ClientConn,
                                     uint64_t ClientReqId) {
  std::vector<unsigned> Live;
  for (unsigned I = 0; I < Slots.size(); ++I)
    if (Slots[I].Conn)
      Live.push_back(I);
  if (Live.empty())
    return 0;
  uint64_t Id = NextFanInId++;
  FanIn &F = FanIns[Id];
  F.ClientConn = ClientConn;
  F.ClientReqId = ClientReqId;
  F.Request = Type;
  F.Remaining = static_cast<unsigned>(Live.size());
  for (unsigned Shard : Live) {
    uint64_t Up = NextUpstreamId++;
    Pendings[{Slots[Shard].Conn, Up}] = {ClientConn, ClientReqId, Shard, Id};
    Net->send(Slots[Shard].Conn, Type, Up, Payload);
  }
  return Id;
}

void FleetSupervisor::finishFanIn(uint64_t Id) {
  auto It = FanIns.find(Id);
  if (It == FanIns.end())
    return;
  FanIn &F = It->second;
  F.Done = true;
  if (Id == AggregateFanIn) {
    // Timer-driven aggregation round: every live shard has checkpointed;
    // fold their files into the fleet directory.
    AggregateFanIn = 0;
    std::string Err;
    if (!F.AnyError && !mergeAggregates(Err))
      std::fprintf(stderr, "fleet: aggregate merge: %s\n", Err.c_str());
    FanIns.erase(It);
    return;
  }
  if (F.ClientConn == 0)
    return; // A synchronous waiter (aggregateNow/fetchStats) harvests it.

  // Client-facing broadcast: one reply, after all shards answered.
  if (F.AnyError) {
    sendClientError(F.ClientConn, F.ClientReqId,
                    RequestErrorCode::BadRequest, F.ErrorDetail);
  } else if (F.Request == MessageType::SubmitProgram) {
    Net->send(F.ClientConn, MessageType::SubmitAck, F.ClientReqId, {});
  } else if (F.Request == MessageType::Checkpoint) {
    CheckpointAckMsg M;
    M.Saved = F.SavedSum;
    Net->send(F.ClientConn, MessageType::CheckpointAck, F.ClientReqId,
              M.encode());
  } else if (F.Request == MessageType::FetchStats) {
    StatsReplyMsg M;
    std::map<std::string, uint64_t> Sum;
    for (const ShardStatsReport &R : F.PerShard)
      for (const auto &[Key, V] : R.Counters)
        Sum[Key] += V;
    for (const auto &[Key, V] : Sum)
      M.Counters.emplace_back(Key, V);
    M.Counters.emplace_back(eventKindName(EventKind::ShardRestarted),
                            Stats.ShardRestarts);
    M.Counters.emplace_back(eventKindName(EventKind::AggregateMerged),
                            Stats.AggregatesMerged);
    Net->send(F.ClientConn, MessageType::StatsReply, F.ClientReqId,
              M.encode());
  }
  FanIns.erase(It);
}

void FleetSupervisor::failShardPendings(uint64_t ConnId) {
  for (auto It = Pendings.begin(); It != Pendings.end();) {
    if (It->first.first != ConnId) {
      ++It;
      continue;
    }
    Pending P = It->second;
    It = Pendings.erase(It);
    if (P.FanIn) {
      auto FIt = FanIns.find(P.FanIn);
      if (FIt != FanIns.end()) {
        FIt->second.AnyError = true;
        FIt->second.ErrorDetail = "shard " + std::to_string(P.Shard) +
                                  " went down mid-request";
        if (--FIt->second.Remaining == 0)
          finishFanIn(P.FanIn);
      }
    } else if (P.ClientConn) {
      sendClientError(P.ClientConn, P.ClientReqId,
                      RequestErrorCode::ShardDown,
                      "shard " + std::to_string(P.Shard) +
                          " crashed; retry");
    }
  }
}

void FleetSupervisor::sendClientError(uint64_t ConnId, uint64_t RequestId,
                                      RequestErrorCode Code,
                                      std::string Detail) {
  ErrorMsg M;
  M.Code = static_cast<uint32_t>(Code);
  M.Detail = std::move(Detail);
  Net->send(ConnId, MessageType::Error, RequestId, M.encode());
}

void FleetSupervisor::onFrame(uint64_t ConnId, Frame F) {
  auto It = ConnToShard.find(ConnId);
  if (It != ConnToShard.end())
    handleUpstreamFrame(It->second, ConnId, F);
  else
    handleClientFrame(ConnId, F);
}

void FleetSupervisor::handleClientFrame(uint64_t ConnId, Frame &F) {
  switch (F.Type) {
  case MessageType::Ping:
    Net->send(ConnId, MessageType::Pong, F.RequestId, {});
    return;
  case MessageType::RunSession: {
    RunSessionMsg M;
    NetError Err;
    if (!M.decode(F.Payload, Err))
      return sendClientError(ConnId, F.RequestId,
                             RequestErrorCode::BadRequest, Err.message());
    uint32_t Shard = 0;
    if (!Ring.route(M.SessionKey, Shard) || Slots[Shard].Conn == 0) {
      ++Stats.RoutedShardDown;
      return sendClientError(ConnId, F.RequestId,
                             RequestErrorCode::ShardDown,
                             "shard " + std::to_string(Shard) +
                                 " is restarting; retry");
    }
    ++Stats.SessionsRouted;
    uint64_t Up = NextUpstreamId++;
    Pendings[{Slots[Shard].Conn, Up}] = {ConnId, F.RequestId, Shard, 0};
    Net->send(Slots[Shard].Conn, MessageType::RunSession, Up, F.Payload);
    return;
  }
  case MessageType::SubmitProgram:
  case MessageType::FetchStats:
  case MessageType::Checkpoint: {
    if (startFanIn(F.Type, F.Payload, ConnId, F.RequestId) == 0)
      sendClientError(ConnId, F.RequestId, RequestErrorCode::ShardDown,
                      "no shard is reachable");
    return;
  }
  default:
    sendClientError(ConnId, F.RequestId, RequestErrorCode::BadRequest,
                    std::string("unexpected ") + messageTypeName(F.Type));
    return;
  }
}

void FleetSupervisor::handleUpstreamFrame(unsigned Shard, uint64_t ConnId,
                                          Frame &F) {
  if (F.Type == MessageType::Pong && F.RequestId == 0)
    return; // Keepalive answer.
  auto It = Pendings.find({ConnId, F.RequestId});
  if (It == Pendings.end())
    return; // Client vanished or response raced a shard restart.
  Pending P = It->second;
  Pendings.erase(It);

  if (P.FanIn == 0) {
    // Unicast forward (RunSession): relay verbatim under the client's id.
    if (P.ClientConn)
      Net->send(P.ClientConn, F.Type, P.ClientReqId, F.Payload);
    return;
  }

  auto FIt = FanIns.find(P.FanIn);
  if (FIt == FanIns.end())
    return;
  FanIn &Fan = FIt->second;
  NetError Err;
  switch (F.Type) {
  case MessageType::StatsReply: {
    ShardStatsReport R;
    R.Shard = Shard;
    StatsReplyMsg M;
    if (M.decode(F.Payload, Err))
      R.Counters = std::move(M.Counters);
    Fan.PerShard.push_back(std::move(R));
    break;
  }
  case MessageType::CheckpointAck: {
    CheckpointAckMsg M;
    if (M.decode(F.Payload, Err))
      Fan.SavedSum += M.Saved;
    break;
  }
  case MessageType::SubmitAck:
    break;
  case MessageType::Error: {
    ErrorMsg M;
    Fan.AnyError = true;
    Fan.ErrorDetail = M.decode(F.Payload, Err)
                          ? M.Detail
                          : "shard reported an undecodable error";
    break;
  }
  default:
    Fan.AnyError = true;
    Fan.ErrorDetail =
        std::string("unexpected upstream ") + messageTypeName(F.Type);
    break;
  }
  if (--Fan.Remaining == 0)
    finishFanIn(P.FanIn);
}

void FleetSupervisor::onConnClosed(uint64_t ConnId) {
  auto It = ConnToShard.find(ConnId);
  if (It == ConnToShard.end())
    return;
  unsigned Shard = It->second;
  ConnToShard.erase(It);
  if (Slots[Shard].Conn == ConnId)
    Slots[Shard].Conn = 0;
  failShardPendings(ConnId);
}

bool FleetSupervisor::mergeAggregates(std::string &Err) {
  namespace fs = std::filesystem;
  // Group every shard's checkpoint files by module file name.
  std::map<std::string, std::vector<std::string>> ByModule;
  for (unsigned I = 0; I < Slots.size(); ++I) {
    std::error_code Ec;
    fs::directory_iterator DirIt(shardCheckpointDir(O.StateDir, I), Ec);
    if (Ec)
      continue; // Shard has not checkpointed yet.
    for (const fs::directory_entry &E : DirIt)
      if (E.path().extension() == ".jtcp")
        ByModule[E.path().filename().string()].push_back(E.path().string());
  }
  bool Ok = true;
  const std::string FleetDir = fleetAggregateDir(O.StateDir);
  TraceConfig TC; // Merge under default retirement thresholds.
  persist::MergeReport Merged;
  size_t Rounds = 0;
  for (const auto &[File, Paths] : ByModule) {
    persist::MergeReport Report;
    persist::PersistError PErr;
    if (!persist::mergeSnapshotFiles(Paths, FleetDir + "/" + File, TC,
                                     Report, PErr)) {
      if (Ok)
        Err = File + ": " + PErr.message();
      Ok = false;
      continue;
    }
    Merged.Inputs += Report.Inputs;
    Merged.Nodes += Report.Nodes;
    Merged.Traces += Report.Traces;
    Merged.TracesDeduped += Report.TracesDeduped;
    Merged.TracesDroppedByCompletion += Report.TracesDroppedByCompletion;
    Merged.Epoch = std::max(Merged.Epoch, Report.Epoch);
    ++Rounds;
  }
  if (Rounds) {
    ++Stats.AggregatesMerged;
    Stats.LastMerge = Merged;
  }
  return Ok;
}

bool FleetSupervisor::aggregateNow(std::string &Err, double TimeoutSeconds) {
  if (O.StateDir.empty()) {
    Err = "no state directory configured";
    return false;
  }
  uint64_t Id = startFanIn(MessageType::Checkpoint, {}, 0, 0);
  if (Id == 0) {
    Err = "no shard is reachable";
    return false;
  }
  auto End = std::chrono::steady_clock::now() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(TimeoutSeconds));
  while (!FanIns[Id].Done) {
    if (std::chrono::steady_clock::now() > End) {
      FanIns.erase(Id);
      Err = "checkpoint broadcast timed out";
      return false;
    }
    poll(20);
  }
  bool AnyError = FanIns[Id].AnyError;
  std::string Detail = FanIns[Id].ErrorDetail;
  FanIns.erase(Id);
  if (AnyError) {
    Err = "checkpoint failed: " + Detail;
    return false;
  }
  return mergeAggregates(Err);
}

bool FleetSupervisor::fetchStats(std::vector<ShardStatsReport> &Out,
                                 std::string &Err, double TimeoutSeconds) {
  uint64_t Id = startFanIn(MessageType::FetchStats, {}, 0, 0);
  if (Id == 0) {
    Err = "no shard is reachable";
    return false;
  }
  auto End = std::chrono::steady_clock::now() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(TimeoutSeconds));
  while (!FanIns[Id].Done) {
    if (std::chrono::steady_clock::now() > End) {
      FanIns.erase(Id);
      Err = "stats broadcast timed out";
      return false;
    }
    poll(20);
  }
  Out = std::move(FanIns[Id].PerShard);
  std::sort(Out.begin(), Out.end(),
            [](const ShardStatsReport &A, const ShardStatsReport &B) {
              return A.Shard < B.Shard;
            });
  FanIns.erase(Id);
  return true;
}

void FleetSupervisor::shutdown() {
  if (ShuttingDown || !Started) {
    ShuttingDown = true;
    return;
  }
  ShuttingDown = true;
  for (ShardSlot &S : Slots)
    if (S.Pid > 0)
      ::kill(S.Pid, SIGTERM);
  // Graceful drain first; escalate to SIGKILL if a shard wedges.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (ShardSlot &S : Slots) {
    while (S.Pid > 0) {
      int Status = 0;
      pid_t R = ::waitpid(S.Pid, &Status, WNOHANG);
      if (R == S.Pid || (R < 0 && errno == ECHILD)) {
        S.Pid = -1;
        break;
      }
      if (std::chrono::steady_clock::now() > Deadline) {
        ::kill(S.Pid, SIGKILL);
        ::waitpid(S.Pid, &Status, 0);
        S.Pid = -1;
        break;
      }
      Net->poll(20); // Keep draining network traffic meanwhile.
    }
    if (S.ListenFd >= 0) {
      ::close(S.ListenFd);
      S.ListenFd = -1;
    }
  }
  if (FrontFd >= 0) {
    ::close(FrontFd);
    FrontFd = -1;
  }
}
