//===- service/Server.cpp - Long-lived verification daemon -----------------===//
//
// Part of fcsl-cpp. See Server.h for the architecture overview.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "structures/Suite.h"

#include <future>

using namespace fcsl;
using namespace fcsl::service;
using namespace fcsl::dist;

namespace {

/// Resolves and validates a submit's mode bytes against the daemon's
/// startup defaults. False on an out-of-range byte (a confused or newer
/// client — reject loudly).
bool requestModes(const SubmitSessionMsg &Req, const ResolvedModes &Startup,
                  ResolvedModes &Out) {
  if (Req.Por > static_cast<uint8_t>(PorMode::CheckDynamic) ||
      Req.Symmetry > static_cast<uint8_t>(SymMode::Check) ||
      Req.Cache > static_cast<uint8_t>(cache::CacheMode::Check))
    return false;
  Out.Por = Req.Por == 0 ? Startup.Por : static_cast<PorMode>(Req.Por);
  Out.Sym = Req.Symmetry == 0 ? Startup.Sym
                              : static_cast<SymMode>(Req.Symmetry);
  Out.Cache = Req.Cache == 0 ? Startup.Cache
                             : static_cast<cache::CacheMode>(Req.Cache);
  return true;
}

/// The registered session under \p Name, or nullptr.
const CaseEntry *findSession(const std::vector<CaseEntry> &Registry,
                             const std::string &Name) {
  for (const CaseEntry &Case : Registry)
    if (Case.Name == Name)
      return &Case;
  return nullptr;
}

uint64_t elapsedUs(std::chrono::steady_clock::time_point Since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Since)
          .count());
}

/// Wraps a session ProgressFn so completions stream to the client as
/// Progress frames. Send failures are ignored — the session must finish
/// and its verdicts reach the store even if the client vanished.
ProgressFn progressSink(FdChannel &Ch, bool Wanted) {
  if (!Wanted)
    return {};
  return [&Ch](const ObligationProgress &P) {
    ProgressMsg M;
    M.Completed = static_cast<uint32_t>(P.Completed);
    M.Total = static_cast<uint32_t>(P.Total);
    M.Category = static_cast<uint8_t>(P.Category);
    M.Name = P.Name;
    M.Passed = P.Passed;
    M.FromCache = P.FromCache;
    M.ElapsedUs = static_cast<uint64_t>(P.ElapsedMs * 1000.0);
    Ch.send(frameProgress(M));
  };
}

} // namespace

Server::Server(ServerOptions O)
    : Opts(std::move(O)), Queue(Opts.QueueCapacity ? Opts.QueueCapacity : 1) {
  if (Opts.Workers == 0)
    Opts.Workers = 1;
}

Server::~Server() {
  requestShutdown();
  wait();
}

std::string Server::endpoint() const { return L ? L->endpoint() : ""; }

bool Server::start() {
  // Capture the startup defaults once (concrete, never Default) and warm
  // the store: opening it here loads the whole index before the first
  // request, so warm hits are pure in-memory serves from request one.
  Startup = ResolvedModes::defaults();
  cache::activeStore(Startup.Cache);

  L = makeUnixListener(Opts.SocketPath);
  if (!L)
    return false;
  Started = std::chrono::steady_clock::now();

  for (unsigned I = 0; I != Opts.Workers; ++I)
    SessionWorkers.emplace_back([this] {
      while (std::optional<Job> J = Queue.pop()) {
        (*J)();
        Queue.done();
      }
    });
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::acceptLoop() {
  while (!Stopping.load(std::memory_order_acquire)) {
    int Fd = L->accept();
    if (Fd < 0)
      break;
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Connections.emplace_back([this, Fd] { handleConnection(Fd); });
  }
}

void Server::requestShutdown() {
  if (Stopping.exchange(true, std::memory_order_acq_rel))
    return;
  Draining.store(true, std::memory_order_release);
  Queue.close();
  Queue.waitDrained();
  if (L)
    L->shutdown();
}

void Server::wait() {
  if (Acceptor.joinable())
    Acceptor.join();
  for (std::thread &W : SessionWorkers)
    if (W.joinable())
      W.join();
  SessionWorkers.clear();
  // Connection threads exit on their own once Stopping is set (their
  // recv loop polls); join whatever is registered.
  while (true) {
    std::thread T;
    {
      std::lock_guard<std::mutex> Lock(ConnMutex);
      if (Connections.empty())
        break;
      T = std::move(Connections.back());
      Connections.pop_back();
    }
    if (T.joinable())
      T.join();
  }
}

void Server::handleConnection(int Fd) {
  FdChannel Ch(Fd);
  if (!serverHandshake(Ch))
    return;
  const std::vector<CaseEntry> Registry = allVerifiableSessions();

  auto Reject = [&](const std::string &Why) {
    Stats.Rejected.fetch_add(1, std::memory_order_relaxed);
    ReportMsg R;
    R.Ok = false;
    R.Error = Why;
    Ch.send(frameReport(R));
  };

  while (!Stopping.load(std::memory_order_acquire)) {
    std::vector<uint8_t> Payload;
    // A finite poll window keeps the handler responsive to daemon
    // shutdown; Timeout just re-checks and resumes (partial frames stay
    // buffered in the channel).
    RecvStatus S = Ch.recv(Payload, /*TimeoutMs=*/200);
    if (S == RecvStatus::Timeout)
      continue;
    if (S == RecvStatus::Eof)
      return;
    if (S == RecvStatus::Error) {
      // Corrupt stream (bad length prefix) or transport failure: this
      // connection is unrecoverable, the daemon is fine.
      Stats.MalformedFrames.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    // Frame-level triage. A malformed or unknown frame is rejected
    // LOUDLY — the client gets an error Report naming the problem — and
    // the connection survives (the framing itself was sound).
    FrameClass Cls = classifyFrame(Payload);
    if (Cls == FrameClass::Malformed) {
      Stats.MalformedFrames.fetch_add(1, std::memory_order_relaxed);
      Reject("malformed frame: bad codec header, version or tag");
      continue;
    }
    if (Cls == FrameClass::UnknownType) {
      Stats.UnknownFrames.fetch_add(1, std::memory_order_relaxed);
      Reject("unknown message type (peer speaks a newer protocol?)");
      continue;
    }
    std::optional<WireMsg> M = decodeFrame(Payload);
    if (!M) {
      // Known tag, undecodable body: truncated or trailing garbage.
      Stats.MalformedFrames.fetch_add(1, std::memory_order_relaxed);
      Reject("malformed frame: truncated or oversized body");
      continue;
    }

    switch (M->Type) {
    case MsgType::Hello:
      Ch.send(frameHello(HelloMsg{})); // idempotent re-handshake.
      break;

    case MsgType::CacheStats: {
      CacheStatsMsg Out;
      Out.RequestsServed =
          Stats.RequestsServed.load(std::memory_order_relaxed);
      Out.SessionsRun = Stats.SessionsRun.load(std::memory_order_relaxed);
      Out.ServedFromCache =
          Stats.ServedFromCache.load(std::memory_order_relaxed);
      Out.ObligationsReplayed =
          Stats.ObligationsReplayed.load(std::memory_order_relaxed);
      Out.Rejected = Stats.Rejected.load(std::memory_order_relaxed);
      Out.UnknownFrames =
          Stats.UnknownFrames.load(std::memory_order_relaxed);
      Out.MalformedFrames =
          Stats.MalformedFrames.load(std::memory_order_relaxed);
      if (const cache::Store *St = cache::resolvedStore()) {
        Out.StoreRecords = St->records();
        Out.StoreBytes = St->fileBytes();
      }
      Out.UptimeUs = elapsedUs(Started);
      Ch.send(frameCacheStats(Out));
      break;
    }

    case MsgType::Shutdown: {
      // Graceful drain: refuse new work, wait out in-flight and queued
      // sessions, ack, and bring the daemon down.
      Draining.store(true, std::memory_order_release);
      Queue.close();
      Queue.waitDrained();
      ShutdownMsg Ack;
      Ack.Ack = true;
      Ch.send(frameShutdown(Ack));
      requestShutdown();
      return;
    }

    case MsgType::SubmitSession: {
      auto T0 = std::chrono::steady_clock::now();
      if (Draining.load(std::memory_order_acquire)) {
        Reject("daemon is draining for shutdown");
        break;
      }
      ResolvedModes Modes;
      if (!requestModes(M->Submit, Startup, Modes)) {
        Reject("invalid mode byte in submit");
        break;
      }
      const CaseEntry *Entry = findSession(Registry, M->Submit.Session);
      if (!Entry) {
        Reject("unknown session '" + M->Submit.Session + "'");
        break;
      }

      // The microsecond fast path: with a consulting cache mode and a
      // warm store, the whole report replays from the in-memory index —
      // no engine, no queue (the flag fingerprint alone selects the right
      // verdicts). Check mode must re-discharge, so it never takes this
      // path.
      if (Modes.Cache == cache::CacheMode::Rw ||
          Modes.Cache == cache::CacheMode::Ro) {
        if (cache::Store *St = cache::activeStore(Modes.Cache)) {
          uint64_t FlagsFp = engineFlagsFingerprintFor(Modes.Por, Modes.Sym);
          VerificationSession Sess = Entry->MakeSession();
          if (std::optional<SessionReport> R = Sess.serveFromStore(
                  *St, FlagsFp,
                  progressSink(Ch, M->Submit.WantProgress))) {
            Stats.RequestsServed.fetch_add(1, std::memory_order_relaxed);
            Stats.ServedFromCache.fetch_add(1, std::memory_order_relaxed);
            Stats.ObligationsReplayed.fetch_add(
                R->Cache.Hits, std::memory_order_relaxed);
            ReportMsg Out;
            Out.Ok = true;
            Out.ServedFromCache = true;
            Out.Report = std::move(*R);
            Out.ElapsedUs = elapsedUs(T0);
            Ch.send(frameReport(Out));
            break;
          }
        }
      }

      // Cold (or partially warm, or check-mode) path: schedule on the
      // run queue. The connection thread parks on the job's completion —
      // the worker owns the channel while the session runs, so Progress
      // and Report frames never interleave with another read. The
      // session runs under the request's own modes, so it may overlap
      // sessions under any other modes.
      std::promise<void> Done;
      std::future<void> DoneF = Done.get_future();
      SubmitSessionMsg Req = M->Submit;
      Job J = [this, &Ch, Req, Modes, Entry, T0, &Done] {
        Stats.SessionsRun.fetch_add(1, std::memory_order_relaxed);
        VerificationSession Sess = Entry->MakeSession();
        SessionReport R =
            Sess.run(Modes, Req.Jobs ? Req.Jobs : Opts.Jobs,
                     progressSink(Ch, Req.WantProgress));
        Stats.RequestsServed.fetch_add(1, std::memory_order_relaxed);
        ReportMsg Out;
        Out.Ok = true;
        Out.Report = std::move(R);
        Out.ElapsedUs = elapsedUs(T0);
        Ch.send(frameReport(Out));
        Done.set_value();
      };
      if (!Queue.push(std::move(J))) {
        Reject(Draining.load(std::memory_order_acquire)
                   ? "daemon is draining for shutdown"
                   : "run queue is full");
        break;
      }
      DoneF.wait();
      break;
    }

    default:
      // Progress / Report / server-to-client frames from a client:
      // loudly out of place.
      Stats.UnknownFrames.fetch_add(1, std::memory_order_relaxed);
      Reject("unexpected message type on a service connection");
      break;
    }
  }
}
