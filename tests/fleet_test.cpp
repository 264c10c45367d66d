//===- tests/fleet_test.cpp - Sharded serving fleet end to end ------------===//
///
/// Two layers of the fleet, pinned:
///
///  - the consistent-hash ring in isolation: deterministic routing,
///    reasonable balance across virtual nodes (also for the fleet's own
///    sequential session keys), and minimal remapping
///    when a node leaves (only the departed node's keys move);
///  - the fleet itself, over real sockets and real forked shard
///    processes: sessions route and retire with digests matching a
///    local single-process reference, admission control answers a flood
///    with typed Backpressure carrying the configured bound, and a
///    SIGKILLed shard is reaped, restarted on the same port, and
///    warm-boots from the fleet aggregate (checkpoints-loaded > 0,
///    zero load rejects, WarmStart flagged on the next session).
///
/// The shard side runs JTC_FLEET_BIN --shard, exactly as production
/// does -- fd inheritance, execv and all.
///
//===----------------------------------------------------------------------===//

#include "fleet/ConsistentHash.h"
#include "fleet/Supervisor.h"
#include "net/Client.h"
#include "net/Protocol.h"
#include "server/VmService.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <csignal>
#include <sys/types.h>

#ifndef JTC_FLEET_BIN
#error "fleet_test requires JTC_FLEET_BIN (path to the jtc-fleet binary)"
#endif

using namespace jtc;
using namespace jtc::fleet;
using namespace jtc::net;

namespace {

/// Fresh per-test scratch directory under the system temp dir.
std::filesystem::path scratchDir(const char *Name) {
  std::filesystem::path Dir =
      std::filesystem::temp_directory_path() / "jtc-fleet-test" / Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

//===--- Consistent-hash ring ---------------------------------------------===//

TEST(HashRing, EmptyRingRoutesNothing) {
  HashRing R;
  uint32_t Node = 99;
  EXPECT_FALSE(R.route("anything", Node));
  EXPECT_EQ(R.size(), 0u);
}

TEST(HashRing, RoutingIsDeterministicAcrossInstances) {
  HashRing A, B;
  for (uint32_t N = 0; N < 4; ++N) {
    A.add(N);
    B.add(N);
  }
  for (int I = 0; I < 500; ++I) {
    std::string Key = "session-" + std::to_string(I);
    uint32_t NA = ~0u, NB = ~0u;
    ASSERT_TRUE(A.route(Key, NA));
    ASSERT_TRUE(B.route(Key, NB));
    EXPECT_EQ(NA, NB); // ringHash is stable, not std::hash.
    uint32_t Again = ~0u;
    ASSERT_TRUE(A.route(Key, Again));
    EXPECT_EQ(NA, Again);
  }
}

TEST(HashRing, VirtualNodesSpreadLoad) {
  HashRing R;
  for (uint32_t N = 0; N < 3; ++N)
    R.add(N);
  std::map<uint32_t, unsigned> Share;
  const int Keys = 3000;
  for (int I = 0; I < Keys; ++I) {
    uint32_t Node = ~0u;
    ASSERT_TRUE(R.route("tenant-" + std::to_string(I * 7919), Node));
    ASSERT_LT(Node, 3u);
    ++Share[Node];
  }
  // With 64 vnodes each, no shard owns less than a tenth or more than
  // two thirds of the key space.
  for (uint32_t N = 0; N < 3; ++N) {
    EXPECT_GT(Share[N], Keys / 10u) << "node " << N;
    EXPECT_LT(Share[N], Keys * 2u / 3u) << "node " << N;
  }
}

/// The [Lo, Hi] range a Binomial(N, 1/K) count leaves with probability
/// at most \p Tail on each side: the shard count a key family would
/// fall outside, under a ring that places keys independently and
/// uniformly, about once in 1/Tail families.
std::pair<unsigned, unsigned> binomialBounds(unsigned N, unsigned K,
                                             double Tail) {
  const double P = 1.0 / K;
  std::vector<double> Pmf(N + 1);
  for (unsigned I = 0; I <= N; ++I)
    Pmf[I] = std::exp(std::lgamma(N + 1.0) - std::lgamma(I + 1.0) -
                      std::lgamma(N - I + 1.0) + I * std::log(P) +
                      (N - I) * std::log1p(-P));
  unsigned Lo = 0, Hi = N;
  for (double Below = Pmf[0]; Below <= Tail; Below += Pmf[++Lo])
    ;
  for (double Above = Pmf[N]; Above <= Tail; Above += Pmf[--Hi])
    ;
  return {Lo, Hi};
}

TEST(HashRing, LoadgenKeyShapesSpreadOverShards) {
  // The key families the fleet's own drivers use: jtc-fleet's
  // "session-N", fleet_scaling's "t<T>-s<N>" and its warm phase's
  // "warm-N". Each differs from its neighbours only in its last
  // characters, which a hash without a final mix puts on one arc.
  const unsigned N = 240;
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      Families = [] {
        std::vector<std::string> Sessions, Threads, Warm;
        for (unsigned I = 0; I < N; ++I) {
          Sessions.push_back("session-" + std::to_string(I));
          Threads.push_back("t" + std::to_string(I % 4) + "-s" +
                            std::to_string(I / 4));
          Warm.push_back("warm-" + std::to_string(I));
        }
        return std::vector<std::pair<std::string, std::vector<std::string>>>{
            {"session-N", Sessions}, {"t<T>-s<N>", Threads}, {"warm-N", Warm}};
      }();
  for (unsigned K : {3u, 4u}) {
    HashRing R;
    for (uint32_t Node = 0; Node < K; ++Node)
      R.add(Node);
    // 240 keys: [47, 116] on 3 shards, [30, 93] on 4.
    auto [Lo, Hi] = binomialBounds(N, K, 1e-6);
    for (const auto &[Name, Keys] : Families) {
      std::vector<unsigned> Share(K);
      for (const std::string &Key : Keys) {
        uint32_t Node = ~0u;
        ASSERT_TRUE(R.route(Key, Node));
        ASSERT_LT(Node, K);
        ++Share[Node];
      }
      for (uint32_t Node = 0; Node < K; ++Node) {
        EXPECT_GE(Share[Node], Lo) << Name << ", " << K << " shards";
        EXPECT_LE(Share[Node], Hi) << Name << ", " << K << " shards";
      }
    }
    // jtc-fleet --sessions=24 reaches every shard: a Binomial(24, 1/3)
    // count is 0 with probability 6e-5, a Binomial(24, 1/4) one 1e-3.
    std::vector<unsigned> Share(K);
    for (unsigned I = 0; I < 24; ++I) {
      uint32_t Node = ~0u;
      ASSERT_TRUE(R.route("session-" + std::to_string(I), Node));
      ++Share[Node];
    }
    for (uint32_t Node = 0; Node < K; ++Node)
      EXPECT_GT(Share[Node], 0u) << "node " << Node << ", " << K << " shards";
  }
}

TEST(HashRing, RemovalOnlyMovesTheDepartedNodesKeys) {
  HashRing R;
  for (uint32_t N = 0; N < 3; ++N)
    R.add(N);
  std::map<std::string, uint32_t> Before;
  for (int I = 0; I < 2000; ++I) {
    std::string Key = "k" + std::to_string(I);
    uint32_t Node = ~0u;
    ASSERT_TRUE(R.route(Key, Node));
    Before[Key] = Node;
  }
  R.remove(1);
  EXPECT_FALSE(R.contains(1));
  EXPECT_EQ(R.size(), 2u);
  for (const auto &[Key, Owner] : Before) {
    uint32_t Node = ~0u;
    ASSERT_TRUE(R.route(Key, Node));
    if (Owner != 1)
      EXPECT_EQ(Node, Owner) << Key; // Survivors keep their sessions.
    else
      EXPECT_NE(Node, 1u) << Key; // Departed keys land elsewhere.
  }
  // Re-adding restores the exact original assignment (points are
  // deterministic), so a restarted shard gets its old sessions back.
  R.add(1);
  for (const auto &[Key, Owner] : Before) {
    uint32_t Node = ~0u;
    ASSERT_TRUE(R.route(Key, Node));
    EXPECT_EQ(Node, Owner) << Key;
  }
}

TEST(HashRing, AddAndRemoveAreIdempotent) {
  HashRing R;
  R.add(5);
  R.add(5);
  EXPECT_EQ(R.size(), 1u);
  R.remove(5);
  R.remove(5);
  EXPECT_EQ(R.size(), 0u);
}

//===--- The fleet over real sockets and processes ------------------------===//

FleetOptions baseOptions(unsigned Shards, const std::string &StateDir = "") {
  FleetOptions O;
  O.Shards = Shards;
  O.Workers = 1;
  O.StateDir = StateDir;
  O.ShardBinary = JTC_FLEET_BIN;
  O.Workloads = {{"compress", 0}}; // 0: the registry default scale.
  return O;
}

/// Sends one RunSession and drives the supervisor loop until the reply
/// for that request lands (replies to other requests are a test bug).
bool driveSession(FleetSupervisor &Fleet, BlockingClient &C,
                  const std::string &Key, const std::string &Module,
                  Frame &Out, double TimeoutSeconds = 60) {
  RunSessionMsg Run;
  Run.SessionKey = Key;
  Run.Module = Module;
  uint64_t Id = C.nextRequestId();
  if (!C.send(MessageType::RunSession, Id, Run.encode()))
    return false;
  auto End = std::chrono::steady_clock::now() +
             std::chrono::duration<double>(TimeoutSeconds);
  while (std::chrono::steady_clock::now() < End) {
    Fleet.poll(1);
    NetError Err;
    if (C.recv(Out, Err, 0.001)) {
      EXPECT_EQ(Out.RequestId, Id);
      return true;
    }
  }
  return false;
}

/// Digest reference from a local single-process VmService run.
struct Reference {
  uint64_t HeapDigest = 0;
  uint64_t OutputDigest = 0;

  explicit Reference(const char *Workload) {
    VmService Svc;
    Svc.registerWorkload(*findWorkload(Workload));
    SessionResult R = Svc.run({Workload});
    EXPECT_EQ(R.Run.Status, RunStatus::Finished);
    HeapDigest = R.HeapDigest;
    OutputDigest = outputDigest(R.Output);
  }
};

TEST(Fleet, SessionsRetireDigestMatchedAgainstLocalReference) {
  Reference Ref("compress");

  FleetSupervisor Fleet(baseOptions(2));
  std::string Err;
  ASSERT_TRUE(Fleet.start(Err)) << Err;
  auto Client = BlockingClient::connect(Fleet.frontPort(), Err);
  ASSERT_TRUE(Client) << Err;

  for (int I = 0; I < 6; ++I) {
    Frame F;
    ASSERT_TRUE(driveSession(Fleet, *Client, "session-" + std::to_string(I),
                             "compress", F));
    ASSERT_EQ(F.Type, MessageType::SessionDone);
    SessionDoneMsg D;
    NetError NErr;
    ASSERT_TRUE(D.decode(F.Payload, NErr)) << NErr.message();
    EXPECT_EQ(static_cast<RunStatus>(D.Status), RunStatus::Finished);
    // Remote execution is observationally identical to local.
    EXPECT_EQ(D.HeapDigest, Ref.HeapDigest) << "session " << I;
    EXPECT_EQ(D.OutputDigest, Ref.OutputDigest) << "session " << I;
    EXPECT_LT(D.Shard, 2u);
  }
  EXPECT_EQ(Fleet.stats().SessionsRouted, 6u);
  EXPECT_EQ(Fleet.stats().RoutedShardDown, 0u);
  Fleet.shutdown();
}

TEST(Fleet, UnknownModuleIsATypedError) {
  FleetSupervisor Fleet(baseOptions(1));
  std::string Err;
  ASSERT_TRUE(Fleet.start(Err)) << Err;
  auto Client = BlockingClient::connect(Fleet.frontPort(), Err);
  ASSERT_TRUE(Client) << Err;

  Frame F;
  ASSERT_TRUE(driveSession(Fleet, *Client, "k", "no-such-module", F));
  ASSERT_EQ(F.Type, MessageType::Error);
  ErrorMsg E;
  NetError NErr;
  ASSERT_TRUE(E.decode(F.Payload, NErr));
  EXPECT_EQ(E.Code, static_cast<uint32_t>(RequestErrorCode::UnknownModule));
  Fleet.shutdown();
}

TEST(Fleet, FloodAnswersWithTypedBackpressure) {
  FleetOptions O = baseOptions(1);
  O.MaxQueueDepth = 1; // Admit one session; reject the pile-up.
  FleetSupervisor Fleet(O);
  std::string Err;
  ASSERT_TRUE(Fleet.start(Err)) << Err;
  auto Client = BlockingClient::connect(Fleet.frontPort(), Err);
  ASSERT_TRUE(Client) << Err;

  // Pipeline a burst far past the bound before reading a single reply.
  const int Burst = 12;
  for (int I = 0; I < Burst; ++I) {
    RunSessionMsg Run;
    Run.SessionKey = "flood"; // Same key: all hit the one shard.
    Run.Module = "compress";
    ASSERT_TRUE(Client->send(MessageType::RunSession, Client->nextRequestId(),
                             Run.encode()));
  }

  int DoneCount = 0, RejectCount = 0;
  auto End = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (DoneCount + RejectCount < Burst &&
         std::chrono::steady_clock::now() < End) {
    Fleet.poll(1);
    Frame F;
    NetError NErr;
    if (!Client->recv(F, NErr, 0.001))
      continue;
    if (F.Type == MessageType::SessionDone) {
      ++DoneCount;
    } else {
      ASSERT_EQ(F.Type, MessageType::Backpressure);
      BackpressureMsg B;
      ASSERT_TRUE(B.decode(F.Payload, NErr));
      EXPECT_EQ(B.Bound, 1u);
      EXPECT_GE(B.QueueDepth, B.Bound);
      ++RejectCount;
    }
  }
  // Every request got exactly one typed answer; the burst outran a
  // single-session queue, so at least one rejection must have fired,
  // and at least one session was admitted and retired.
  EXPECT_EQ(DoneCount + RejectCount, Burst);
  EXPECT_GE(DoneCount, 1);
  EXPECT_GE(RejectCount, 1);
  Fleet.shutdown();
}

TEST(Fleet, CrashedShardRestartsAndWarmBootsFromAggregate) {
  std::filesystem::path Dir = scratchDir("crash-restart");
  FleetOptions O = baseOptions(1, Dir.string());
  FleetSupervisor Fleet(O);
  std::string Err;
  ASSERT_TRUE(Fleet.start(Err)) << Err;
  auto Client = BlockingClient::connect(Fleet.frontPort(), Err);
  ASSERT_TRUE(Client) << Err;

  // Cold generation: enough sessions for the shard to publish a mature
  // snapshot worth checkpointing.
  for (int I = 0; I < 3; ++I) {
    Frame F;
    ASSERT_TRUE(
        driveSession(Fleet, *Client, "warmup-" + std::to_string(I),
                     "compress", F));
    ASSERT_EQ(F.Type, MessageType::SessionDone);
  }

  // Aggregate: checkpoint the shard and merge into <state>/fleet/.
  ASSERT_TRUE(Fleet.aggregateNow(Err)) << Err;
  EXPECT_GE(Fleet.stats().AggregatesMerged, 1u);
  EXPECT_TRUE(std::filesystem::exists(Dir / "fleet" / "compress.jtcp"));

  // Kill the shard the way production shards die.
  pid_t Victim = Fleet.shardPid(0);
  ASSERT_GT(Victim, 0);
  ASSERT_EQ(::kill(Victim, SIGKILL), 0);

  auto End = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((Fleet.stats().ShardRestarts < 1 || !Fleet.shardConnected(0)) &&
         std::chrono::steady_clock::now() < End)
    Fleet.poll(10);
  ASSERT_GE(Fleet.stats().ShardRestarts, 1u);
  ASSERT_TRUE(Fleet.shardConnected(0));
  EXPECT_NE(Fleet.shardPid(0), Victim);

  // The restarted shard pre-published the fleet aggregate at register
  // time, so its very first session runs warm.
  Frame F;
  ASSERT_TRUE(driveSession(Fleet, *Client, "after-crash", "compress", F));
  ASSERT_EQ(F.Type, MessageType::SessionDone);
  SessionDoneMsg D;
  NetError NErr;
  ASSERT_TRUE(D.decode(F.Payload, NErr));
  EXPECT_EQ(static_cast<RunStatus>(D.Status), RunStatus::Finished);
  EXPECT_TRUE(D.WarmStart);

  // And its counters prove the disk path: the aggregate loaded cleanly.
  std::vector<ShardStatsReport> Reports;
  ASSERT_TRUE(Fleet.fetchStats(Reports, Err)) << Err;
  ASSERT_EQ(Reports.size(), 1u);
  uint64_t Loaded = 0, LoadRejects = 1;
  for (const auto &[Key, Value] : Reports[0].Counters) {
    if (Key == "checkpoints-loaded")
      Loaded = Value;
    else if (Key == "checkpoint-load-rejects")
      LoadRejects = Value;
  }
  EXPECT_GE(Loaded, 1u);
  EXPECT_EQ(LoadRejects, 0u);
  Fleet.shutdown();
}

} // namespace
