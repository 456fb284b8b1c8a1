//===- service/Server.h - Long-lived verification daemon --------*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verification daemon behind `fcsl-serve` (DESIGN.md §15). One
/// process holds everything a cold `fcsl-verify` run pays to rebuild —
/// interned arenas, the warm obligation-store index, live threads — and
/// serves session requests over a Listener:
///
///   - Accepted connections handshake (Hello/Hello) and then submit
///     sessions by registered name (structures/Suite.h); per-request
///     POR/symmetry/cache flags resolve through the same fingerprints a
///     direct run uses, so daemon verdicts share the store with CLI runs.
///   - A fully-warm session is served straight from the in-memory store
///     index (VerificationSession::serveFromStore) — microseconds, and
///     the engine is never invoked (the stats frame proves it).
///   - Everything else is scheduled on the bounded RequestQueue and run
///     by session workers, each session under its request's own modes
///     (VerificationSession::run takes them as an argument), so sessions
///     under different modes run side by side; Progress frames stream to
///     the client as obligations complete.
///   - Shutdown drains in-flight and queued sessions, acks, and exits.
///
/// Per-request *shards* are deliberately unsupported: sharding forks
/// worker processes, and forking this multi-threaded daemon is unsafe
/// (Session::run would clamp discharge to serial anyway). A sharded
/// corpus still serves warm — records are fingerprint-compatible.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_SERVICE_SERVER_H
#define FCSL_SERVICE_SERVER_H

#include "service/Listener.h"
#include "service/Protocol.h"
#include "service/RequestQueue.h"
#include "spec/Session.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace fcsl {
namespace service {

struct ServerOptions {
  std::string SocketPath;   ///< Unix-domain socket to serve on.
  unsigned Workers = 2;     ///< session worker threads.
  size_t QueueCapacity = 64;///< queued (not yet running) session bound.
  unsigned Jobs = 0;        ///< default discharge jobs (0 = pool default).
};

/// The daemon's serving counters (atomics mirrored into CacheStatsMsg).
struct DaemonStats {
  std::atomic<uint64_t> RequestsServed{0};
  std::atomic<uint64_t> SessionsRun{0};
  std::atomic<uint64_t> ServedFromCache{0};
  std::atomic<uint64_t> ObligationsReplayed{0};
  std::atomic<uint64_t> Rejected{0};
  std::atomic<uint64_t> UnknownFrames{0};
  std::atomic<uint64_t> MalformedFrames{0};
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  /// Binds the listener and starts the accept loop and session workers.
  /// Captures the daemon's startup POR/symmetry/cache modes from the
  /// process defaults as they stand when start() runs (fcsl-serve sets
  /// them from its flags); requests with Default mode bytes inherit them.
  /// Nothing the daemon does afterwards writes the process defaults.
  bool start();

  /// Blocks until a client's Shutdown (or requestShutdown()) completes
  /// the drain and every thread exits.
  void wait();

  /// Programmatic shutdown: same drain as a client Shutdown frame.
  void requestShutdown();

  std::string endpoint() const;
  const DaemonStats &stats() const { return Stats; }

private:
  void acceptLoop();
  void handleConnection(int Fd);

  ServerOptions Opts;
  /// The startup modes captured by start(); resolves Default mode bytes.
  ResolvedModes Startup;
  std::unique_ptr<Listener> L;
  RequestQueue Queue;
  DaemonStats Stats;
  std::chrono::steady_clock::time_point Started;
  std::atomic<bool> Draining{false};
  std::atomic<bool> Stopping{false};
  std::thread Acceptor;
  std::vector<std::thread> SessionWorkers;
  std::mutex ConnMutex;
  std::vector<std::thread> Connections;
};

} // namespace service
} // namespace fcsl

#endif // FCSL_SERVICE_SERVER_H
