//===- dist/Coordinator.cpp - Fork/relay hub for sharded runs --------------===//
//
// Part of fcsl-cpp. See Coordinator.h for the interface and the
// termination-detection argument.
//
//===----------------------------------------------------------------------===//

#include "dist/Coordinator.h"

#include "dist/Shard.h"
#include "dist/Wire.h"
#include "support/Format.h"

#include <array>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <mutex>
#include <poll.h>
#include <set>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace fcsl;
using namespace fcsl::dist;

namespace {

std::mutex FleetMutex;
FleetStats FleetTotals;

/// The hub's view of one worker process.
struct WorkerCh {
  pid_t Pid = -1;
  int Fd = -1;
  FrameBuffer In;
  std::vector<uint8_t> OutPending; ///< frames queued for a busy socket.
  size_t OutOffset = 0;
  bool SawHello = false;
  bool HasReport = false;
  bool Done = false; ///< Verdict received.
  bool Eof = false;
  bool Reaped = false;
  StatsReportMsg Report;
  VerdictMsg Verdict;
  uint64_t RecvFromConfigs = 0; ///< configs the hub received from this worker.
  uint64_t RelayedToConfigs = 0; ///< configs the hub queued toward it.
  int ExitStatus = 0;
  uint64_t MaxRssKb = 0;
};

void closeFd(int &Fd) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

/// Harvests a worker's exit status and peak RSS.
void reap(WorkerCh &W, int Flags = 0) {
  if (W.Reaped || W.Pid < 0)
    return;
  int Status = 0;
  struct rusage Ru;
  pid_t R = ::wait4(W.Pid, &Status, Flags, &Ru);
  if (R == W.Pid) {
    W.Reaped = true;
    W.ExitStatus = Status;
    W.MaxRssKb = static_cast<uint64_t>(Ru.ru_maxrss); // KB on Linux.
  }
}

} // namespace

FleetStats dist::fleetTotals() {
  std::lock_guard<std::mutex> Lock(FleetMutex);
  return FleetTotals;
}

RunResult dist::distributedExplore(const ProgRef &Root,
                                   const GlobalState &Initial,
                                   const EngineOptions &Opts,
                                   const VarEnv &InitialEnv,
                                   unsigned NShards) {
  assert(Root && "distributedExplore needs a program");
  if (NShards == 0)
    NShards = 1;

  // Resolve the reduction modes once, in the parent, so every shard (and
  // the ownership-compatible merge) agrees on them. The soundness oracle
  // is explore()'s: a check mode here explores its reduced space only.
  ReductionModes Modes = resolveModes(Opts.Por, Opts.Symmetry);
  EngineOptions RunOpts = Opts;
  RunOpts.Por = Modes.Por;
  RunOpts.Symmetry = Modes.Sym;
  RunOpts.Shards = NShards;

  // Crash-injection hook for the worker-loss diagnostic test.
  long CrashShard = -1;
  if (const char *E = std::getenv("FCSL_DIST_CRASH_SHARD"))
    CrashShard = std::strtol(E, nullptr, 10);
  // Protocol-injection hook for the unknown-message diagnostic test: the
  // named shard sends one well-framed frame with an unrecognized tag.
  long UnknownShard = -1;
  if (const char *E = std::getenv("FCSL_DIST_UNKNOWN_SHARD"))
    UnknownShard = std::strtol(E, nullptr, 10);

  std::vector<WorkerCh> Workers(NShards);
  std::vector<std::array<int, 2>> Pairs(NShards,
                                        std::array<int, 2>{{-1, -1}});

  auto Fallback = [&](const char *Why) -> RunResult {
    std::fprintf(stderr,
                 "fcsl-verify: sharded exploration unavailable (%s); "
                 "falling back to the in-process engine\n",
                 Why);
    for (auto &P : Pairs) {
      closeFd(P[0]);
      closeFd(P[1]);
    }
    EngineOptions Fb = RunOpts;
    Fb.Shards = 1; // 1 shard never re-enters the coordinator hook.
    return explore(Root, Initial, Fb, InitialEnv);
  };

  for (unsigned I = 0; I != NShards; ++I) {
    int Sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) != 0)
      return Fallback("socketpair failed");
    Pairs[I] = {Sv[0], Sv[1]};
  }

  // Workers inherit the parent's address space: the same Prog nodes, the
  // same ProgTable, the same interned arenas. Flush stdio first so forked
  // children do not replay buffered output.
  std::fflush(stdout);
  std::fflush(stderr);

  for (unsigned I = 0; I != NShards; ++I) {
    pid_t Pid = ::fork();
    if (Pid < 0) {
      for (unsigned J = 0; J != I; ++J)
        ::kill(Workers[J].Pid, SIGKILL);
      for (unsigned J = 0; J != I; ++J)
        reap(Workers[J]); // Pairs[] still owns the fds; Fallback closes.
      return Fallback("fork failed");
    }
    if (Pid == 0) {
      // Child: keep only this worker's end of its own pair.
      for (unsigned J = 0; J != NShards; ++J) {
        closeFd(Pairs[J][0]);
        if (J != I)
          closeFd(Pairs[J][1]);
      }
      {
        SocketShardIo Io(Pairs[I][1], I, NShards);
        if (CrashShard == static_cast<long>(I))
          std::_Exit(42); // After Hello, before any Verdict.
        if (UnknownShard == static_cast<long>(I)) {
          // A frame from a protocol this build does not speak: valid
          // codec header, tag one past the known range. Single-threaded
          // child, nothing else in flight on the fd yet.
          Encoder Body;
          encodeHeader(Body);
          Body.u8(static_cast<uint8_t>(MaxKnownMsgTag) + 1);
          Encoder Frame;
          Frame.u32(static_cast<uint32_t>(Body.buffer().size()));
          Frame.raw(Body.buffer());
          const std::vector<uint8_t> &Bytes = Frame.buffer();
          for (size_t Off = 0; Off < Bytes.size();) {
            ssize_t N = ::write(Pairs[I][1], Bytes.data() + Off,
                                Bytes.size() - Off);
            if (N <= 0)
              break;
            Off += static_cast<size_t>(N);
          }
        }
        // Drop cache records inherited from the parent at fork: only
        // verdicts this worker itself appends belong in its delta.
        if (cache::Store *S = cache::activeStore())
          S->drainPending();
        RunResult R =
            exploreShard(Root, Initial, RunOpts, InitialEnv, I, NShards, Io);
        if (cache::Store *S = cache::activeStore()) {
          CacheDeltaMsg Delta;
          Delta.ShardId = I;
          Delta.Records = S->drainPending();
          Io.sendCacheDelta(Delta);
        }
        Io.sendVerdict(Io.makeVerdict(R));
      }
      std::_Exit(0);
    }
    Workers[I].Pid = Pid;
  }

  // Parent: keep the hub ends, close the worker ends, go non-blocking.
  for (unsigned I = 0; I != NShards; ++I) {
    closeFd(Pairs[I][1]);
    Workers[I].Fd = Pairs[I][0];
    Pairs[I][0] = -1;
    int Flags = ::fcntl(Workers[I].Fd, F_GETFL, 0);
    ::fcntl(Workers[I].Fd, F_SETFL, Flags | O_NONBLOCK);
  }

  bool Draining = false;
  bool DrainExhausted = false;
  std::string LostShardNote;
  uint64_t Messages = 0, Bytes = 0, Configs = 0, CacheMerged = 0;
  std::array<uint64_t, 16> RecvFrames{}, RecvBytes{};

  auto QueueFrame = [&](WorkerCh &W, std::vector<uint8_t> Frame) {
    if (W.Eof)
      return;
    W.OutPending.insert(W.OutPending.end(), Frame.begin(), Frame.end());
  };

  auto Broadcast = [&](const std::vector<uint8_t> &Frame) {
    for (WorkerCh &W : Workers)
      QueueFrame(W, Frame);
  };

  auto StartDrain = [&](bool Exhausted) {
    if (Draining)
      return;
    Draining = true;
    DrainExhausted = Exhausted;
    DrainMsg D;
    D.Exhausted = Exhausted;
    Broadcast(frameDrain(D));
  };

  auto HandleFrame = [&](unsigned From, WireMsg &M) {
    WorkerCh &W = Workers[From];
    switch (M.Type) {
    case MsgType::Hello:
      W.SawHello = true;
      break;
    case MsgType::StatsReport:
      W.Report = M.Stats;
      W.HasReport = true;
      if (M.Stats.Failed)
        StartDrain(false);
      if (M.Stats.Exhausted)
        StartDrain(true);
      break;
    case MsgType::FrontierBatchDict:
      break; // Batch frames take the raw-relay path in HandlePayload.
    case MsgType::Verdict:
      W.Verdict = M.Verdict;
      W.Done = true;
      if (!M.Verdict.Safe)
        StartDrain(false);
      if (M.Verdict.Exhausted)
        StartDrain(true);
      break;
    case MsgType::CacheDelta:
      // The fleet shares one obligation store: records a worker appended
      // fold into the hub's (first verdict wins, so a parent-side record
      // never gets overwritten).
      if (cache::Store *S = cache::activeStore())
        CacheMerged += S->merge(M.Delta.Records);
      break;
    case MsgType::Drain:
      break; // Workers never send Drain.
    case MsgType::SubmitSession:
    case MsgType::Progress:
    case MsgType::Report:
    case MsgType::CacheStats:
    case MsgType::Shutdown:
      break; // Service frames; workers never send these.
    }
  };

  // One frame payload off a worker's stream. Batch frames are relayed as
  // raw bytes — the hub reads only the routing envelope (dest, src,
  // fingerprints) and never re-expands or re-encodes the config bodies,
  // so a dictionary-compressed frame crosses the hub untouched and the
  // per-connection definition streams stay in FIFO order end to end.
  auto HandlePayload = [&](unsigned From, std::vector<uint8_t> &Payload) {
    WorkerCh &W = Workers[From];
    std::optional<MsgType> Tag = peekFrameTag(Payload);
    if (!Tag) {
      // Workers run this same binary, so a frame the hub cannot tag — a
      // bad header, the retired tag 2, or a type from another protocol
      // vintage — is a real bug, not line noise. Drain as exhausted (like
      // a dead shard) so the run fails loudly instead of silently
      // dropping traffic.
      if (LostShardNote.empty()) {
        LostShardNote =
            std::string(classifyFrame(Payload) == FrameClass::UnknownType
                            ? "unknown message type"
                            : "malformed frame") +
            " from shard " + std::to_string(From) +
            "; the distributed exploration is incomplete";
        StartDrain(true);
      }
      return;
    }
    RecvFrames[static_cast<size_t>(*Tag)] += 1;
    RecvBytes[static_cast<size_t>(*Tag)] += Payload.size();
    if (*Tag != MsgType::FrontierBatchDict) {
      std::optional<WireMsg> M = decodeFrame(Payload);
      if (M)
        HandleFrame(From, *M);
      return;
    }
    std::optional<BatchPeek> P = peekBatch(Payload);
    if (!P)
      return;
    size_t Count = P->Fps.size();
    W.RecvFromConfigs += Count;
    // After a drain decision, relaying more work would only delay the
    // fleet's shutdown; the delivery counters still balance because the
    // destination never learns about the dropped configs.
    if (Draining || P->Dest >= Workers.size() || Workers[P->Dest].Eof)
      return;
    // Every config is relayed, duplicates included: the owner dedups on
    // the frozen identity and counts the hit, and each sender already
    // ships an identity at most once unless its payload grew. Dropping
    // duplicates here would have to key on the fingerprint, and a
    // fingerprint collision would then drop a distinct config.
    std::vector<uint8_t> Frame = frameFromPayload(Payload);
    Workers[P->Dest].RelayedToConfigs += Count;
    ++Messages;
    Bytes += Frame.size();
    Configs += Count;
    QueueFrame(Workers[P->Dest], std::move(Frame));
  };

  // The relay loop: poll every live socket, relay batches, weigh
  // termination, and stop once every worker is Done or lost.
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(5);
  while (true) {
    bool AllSettled = true;
    for (const WorkerCh &W : Workers)
      AllSettled &= W.Done || W.Eof;
    if (AllSettled)
      break;
    if (std::chrono::steady_clock::now() > Deadline) {
      // Safety net: a wedged fleet (bug, not a workload property) must
      // not hang verification forever.
      for (WorkerCh &W : Workers)
        if (!W.Done && !W.Eof)
          ::kill(W.Pid, SIGKILL);
      if (LostShardNote.empty())
        LostShardNote = "distributed exploration timed out; workers were "
                        "killed before reporting verdicts";
      break;
    }

    std::vector<pollfd> Pfds;
    std::vector<unsigned> PfdOwner;
    for (unsigned I = 0; I != NShards; ++I) {
      WorkerCh &W = Workers[I];
      if (W.Eof)
        continue;
      pollfd P;
      P.fd = W.Fd;
      P.events = POLLIN;
      if (W.OutOffset < W.OutPending.size())
        P.events |= POLLOUT;
      P.revents = 0;
      Pfds.push_back(P);
      PfdOwner.push_back(I);
    }
    if (Pfds.empty())
      break;
    ::poll(Pfds.data(), Pfds.size(), 50);

    for (size_t PI = 0; PI != Pfds.size(); ++PI) {
      WorkerCh &W = Workers[PfdOwner[PI]];
      if (Pfds[PI].revents & POLLOUT) {
        while (W.OutOffset < W.OutPending.size()) {
          ssize_t N = ::send(W.Fd, W.OutPending.data() + W.OutOffset,
                             W.OutPending.size() - W.OutOffset,
                             MSG_NOSIGNAL);
          if (N > 0) {
            W.OutOffset += static_cast<size_t>(N);
            continue;
          }
          if (N < 0 && errno == EINTR)
            continue;
          break; // EAGAIN (retry next round) or a dead peer (EOF soon).
        }
        if (W.OutOffset == W.OutPending.size()) {
          W.OutPending.clear();
          W.OutOffset = 0;
        }
      }
      if (Pfds[PI].revents & (POLLIN | POLLHUP | POLLERR)) {
        uint8_t Buf[64 << 10];
        while (true) {
          ssize_t N = ::recv(W.Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
          if (N > 0) {
            W.In.feed(Buf, static_cast<size_t>(N));
            continue;
          }
          if (N < 0 && errno == EINTR)
            continue;
          if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
          // EOF (or hard error): the worker is gone.
          W.Eof = true;
          break;
        }
        while (std::optional<std::vector<uint8_t>> Payload = W.In.next())
          HandlePayload(PfdOwner[PI], *Payload);
        if (W.Eof) {
          closeFd(W.Fd);
          if (!W.Done) {
            // Crash: the shard died before reporting. The exploration is
            // incomplete no matter what the survivors say.
            reap(W);
            std::string Cause =
                W.Reaped
                    ? (WIFSIGNALED(W.ExitStatus)
                           ? formatString("killed by signal %d",
                                          WTERMSIG(W.ExitStatus))
                           : formatString("exit status %d",
                                          WEXITSTATUS(W.ExitStatus)))
                    : std::string("unknown cause");
            if (LostShardNote.empty())
              LostShardNote = formatString(
                  "shard %u of %u died before reporting a verdict (%s); "
                  "the distributed exploration is incomplete",
                  PfdOwner[PI], NShards, Cause.c_str());
            StartDrain(true);
          }
        }
      }
    }

    // Distributed termination: every worker idle, every exchange counter
    // balanced in both directions (see Coordinator.h).
    if (!Draining) {
      bool Terminated = true;
      for (const WorkerCh &W : Workers) {
        if (W.Done)
          continue; // Already reported; its counters are final.
        if (!W.SawHello || !W.HasReport || !W.Report.Idle ||
            W.Report.Failed || W.Report.Exhausted ||
            W.Report.SentConfigs != W.RecvFromConfigs ||
            W.Report.RecvConfigs != W.RelayedToConfigs) {
          Terminated = false;
          break;
        }
      }
      if (Terminated) {
        StartDrain(false);
      } else {
        // Fleet-level exhaustion: each shard bounds its own tickets by
        // MaxConfigs, so the fleet could otherwise expand up to N times
        // the bound before any single shard trips it.
        uint64_t TotalExpanded = 0;
        for (const WorkerCh &W : Workers)
          TotalExpanded +=
              W.Done ? W.Verdict.ConfigsExplored : W.Report.Expanded;
        if (TotalExpanded >= Opts.MaxConfigs)
          StartDrain(true);
      }
    }
  }

  for (WorkerCh &W : Workers) {
    closeFd(W.Fd);
    reap(W);
  }

  // Merge the per-shard verdicts into one RunResult, exactly the shape
  // the in-process engine produces: AND of Safe, OR of Exhausted, summed
  // counters, terminals deduplicated into one sorted set.
  RunResult Out;
  Out.MaxConfigsBound = Opts.MaxConfigs;
  Out.Reduction.Por = Modes.Por;
  Out.Reduction.Sym = Modes.Sym;
  std::set<Terminal> Merged;
  bool FailPicked = false;
  for (unsigned I = 0; I != NShards; ++I) {
    WorkerCh &W = Workers[I];
    if (!W.Done) {
      Out.Exhausted = true;
      continue;
    }
    const VerdictMsg &V = W.Verdict;
    Out.Safe = Out.Safe && V.Safe;
    Out.Exhausted = Out.Exhausted || V.Exhausted;
    if (!V.Safe && !FailPicked) {
      FailPicked = true;
      Out.FailureNote = V.FailureNote;
      Out.FailureTrace = V.FailureTrace;
    }
    Out.ConfigsExplored += V.ConfigsExplored;
    Out.ActionSteps += V.ActionSteps;
    Out.EnvSteps += V.EnvSteps;
    Out.DedupHits += V.DedupHits;
    Out.VisitedNodes += V.VisitedNodes;
    Out.VisitedBytes += V.VisitedBytes;
    Out.FrontierAtAbort += V.FrontierAtAbort;
    Merged.insert(V.Terminals.begin(), V.Terminals.end());
  }
  Out.Terminals.assign(Merged.begin(), Merged.end());
  if (!LostShardNote.empty() && !FailPicked)
    Out.FailureNote = LostShardNote;

  // Fleet statistics (reported by --stats and the benchmarks).
  {
    std::lock_guard<std::mutex> Lock(FleetMutex);
    FleetTotals.Fleets += 1;
    FleetTotals.Messages += Messages;
    FleetTotals.Bytes += Bytes;
    FleetTotals.Configs += Configs;
    FleetTotals.CacheRecordsMerged += CacheMerged;
    for (size_t I = 0; I != RecvFrames.size(); ++I) {
      FleetTotals.RecvFrames[I] += RecvFrames[I];
      FleetTotals.RecvBytes[I] += RecvBytes[I];
    }
    uint64_t RssSum = 0;
    FleetTotals.LastRun.clear();
    for (unsigned I = 0; I != NShards; ++I) {
      const WorkerCh &W = Workers[I];
      ShardExchange X;
      X.ShardId = I;
      X.Expanded = W.Done ? W.Verdict.ConfigsExplored : W.Report.Expanded;
      X.SentConfigs = W.Done ? W.Verdict.SentConfigs : W.Report.SentConfigs;
      X.RecvConfigs = W.Done ? W.Verdict.RecvConfigs : W.Report.RecvConfigs;
      X.SentBatches = W.Done ? W.Verdict.SentBatches : W.Report.SentBatches;
      X.SentBytes = W.Done ? W.Verdict.SentBytes : W.Report.SentBytes;
      X.SuppressedSends =
          W.Done ? W.Verdict.SuppressedSends : W.Report.SuppressedSends;
      X.DictNodes = W.Done ? W.Verdict.DictNodes : 0;
      X.DictDefBytes = W.Done ? W.Verdict.DictDefBytes : 0;
      X.DictRefBytes = W.Done ? W.Verdict.DictRefBytes : 0;
      X.MaxRssKb = W.MaxRssKb;
      RssSum += W.MaxRssKb;
      if (W.MaxRssKb > FleetTotals.ChildRssKbMax)
        FleetTotals.ChildRssKbMax = W.MaxRssKb;
      FleetTotals.LastRun.push_back(X);
    }
    if (RssSum > FleetTotals.ChildRssKbSum)
      FleetTotals.ChildRssKbSum = RssSum;
  }
  return Out;
}

void dist::installDistributedEngine() {
  setShardedExploreHook(&distributedExplore);
}
