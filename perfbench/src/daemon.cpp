//===- perfbench/src/daemon.cpp - The verification-daemon workload --------===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `daemon`: an in-process service::Server with two session workers on a
/// socket in the run directory, its store filled during set-up. Two
/// closed-loop ServiceClient connections follow seeded schedules: nine in
/// ten requests are warm, store-served submits; the tenth is an
/// engine-backed submit (cache off) rotating POR off/dynamic x symmetry
/// off/on. One operation is one request; the timed unit is the warm
/// round trip.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "cache/Store.h"
#include "service/Client.h"
#include "service/Server.h"
#include "structures/Suite.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <sys/stat.h>
#include <thread>

using namespace fcsl;
using namespace pb;

namespace {

constexpr uint8_t CacheOffByte = static_cast<uint8_t>(cache::CacheMode::Off);
constexpr uint8_t CacheRwByte = static_cast<uint8_t>(cache::CacheMode::Rw);

/// The daemon with its filled store and the direct-run reports its answers
/// must reproduce.
struct Daemon {
  std::string Dir;
  std::vector<VerificationSession> Sessions;
  std::vector<SessionReport> WarmGolden; ///< direct fully-warm rw runs.
  /// Direct cache-off runs per engine mode, and their config counts.
  std::array<std::vector<SessionReport>, NumDaemonModes> EngineGolden;
  std::array<std::vector<uint64_t>, NumDaemonModes> EngineConfigs;
  std::unique_ptr<service::Server> Server;
  std::vector<std::unique_ptr<service::ServiceClient>> Clients;

  std::string socketPath() const { return Dir + "/d.sock"; }

  void stop() {
    Clients.clear();
    if (Server) {
      Server->requestShutdown();
      Server->wait();
      Server.reset();
    }
  }
};

void setModes(PorMode Por, SymMode Sym, cache::CacheMode Cache) {
  setDefaultPorMode(Por);
  setDefaultSymmetryMode(Sym);
  cache::setDefaultCacheMode(Cache);
}

/// Builds a daemon in \p Dir. Direct runs fill its store (cold rw pass)
/// and record the golden reports: a fully-warm rw pass, and one cache-off
/// pass per engine mode. Books a failed operation for any direct run that
/// does not verify.
std::unique_ptr<Daemon> startDaemon(const std::string &Dir, Result &R) {
  auto D = std::make_unique<Daemon>();
  D->Dir = Dir;
  ::mkdir(Dir.c_str(), 0700);
  cache::setCacheDir(Dir + "/store");
  setModes(PorMode::Off, SymMode::Off, cache::CacheMode::Rw);
  cache::resetActiveStore();
  for (const CaseEntry &Case : allCaseStudies())
    D->Sessions.push_back(Case.MakeSession());
  for (const VerificationSession &S : D->Sessions)
    S.run(/*Jobs=*/1);
  for (const VerificationSession &S : D->Sessions) {
    D->WarmGolden.push_back(S.run(/*Jobs=*/1));
    const SessionReport &W = D->WarmGolden.back();
    R.op(W.AllPassed && W.Cache.Hits == W.totalObligations(),
         strFormat("set-up: %s: warm direct run not all hits",
                   W.Program.c_str()));
  }
  for (unsigned M = 0; M != NumDaemonModes; ++M) {
    setModes(daemonPor(M), daemonSym(M), cache::CacheMode::Off);
    for (const VerificationSession &S : D->Sessions) {
      uint64_t C0 = totalConfigsExplored();
      D->EngineGolden[M].push_back(S.run(/*Jobs=*/1));
      D->EngineConfigs[M].push_back(totalConfigsExplored() - C0);
      R.op(D->EngineGolden[M].back().AllPassed,
           strFormat("set-up: %s fails under %s", S.program().c_str(),
                     daemonModeName(M)));
    }
  }
  // Startup defaults the daemon captures; every request names its modes.
  setModes(PorMode::Off, SymMode::Off, cache::CacheMode::Rw);

  service::ServerOptions Opts;
  Opts.SocketPath = D->socketPath();
  Opts.Workers = 2;
  Opts.Jobs = 1;
  D->Server = std::make_unique<service::Server>(Opts);
  if (!D->Server->start()) {
    R.op(false, "set-up: daemon failed to start on " + Opts.SocketPath);
    D->Server.reset();
    return D;
  }
  for (unsigned C = 0; C != 2; ++C) {
    auto Client = std::make_unique<service::ServiceClient>(D->socketPath());
    Client->setRequestTimeoutMs(60000);
    R.op(Client->ok(), "set-up: client failed to connect: " + Client->error());
    D->Clients.push_back(std::move(Client));
  }
  return D;
}

struct Sample {
  bool Engine = false;
  size_t Session = 0;
  Timed Rtt;
  std::string Failure; ///< empty when the reply was correct.
  SessionReport Report;
};

/// One client's closed loop until \p SliceEnd: submit, wait for the
/// report, check it, next. Out collects every request across slices.
void clientLoop(const Daemon &D, service::ServiceClient &Client,
                DaemonSchedule &Schedule, Clock::time_point SliceEnd,
                bool Trace, Tracer &T, std::vector<Sample> &Out) {
  const std::vector<std::string> &Slugs = sessionSlugs();
  for (bool First = true; First || Clock::now() < SliceEnd; First = false) {
    size_t I = Out.size();
    DaemonRequest Q = Schedule.next();
    const SessionReport &Want = Q.Engine ? D.EngineGolden[Q.Mode][Q.Session]
                                         : D.WarmGolden[Q.Session];
    Sample S;
    S.Engine = Q.Engine;
    S.Session = Q.Session;
    std::optional<dist::ReportMsg> Got;
    {
      Span Sp(T, Trace && I % 2 == 0, "submit", 0,
              (Q.Engine ? std::string("engine.") + daemonModeName(Q.Mode)
                        : std::string("warm")) +
                  "." + Slugs[Q.Session]);
      Clock::time_point T0 = Clock::now();
      Got = Q.Engine
                ? Client.submit(Want.Program,
                                static_cast<uint8_t>(daemonPor(Q.Mode)),
                                static_cast<uint8_t>(daemonSym(Q.Mode)),
                                CacheOffByte, /*Jobs=*/1)
                : Client.submit(Want.Program,
                                static_cast<uint8_t>(PorMode::Off),
                                static_cast<uint8_t>(SymMode::Off),
                                CacheRwByte, /*Jobs=*/1);
      S.Rtt = Timed{msSince(T0), Clock::now()};
    }
    if (!Got)
      S.Failure = "no reply: " + Client.error();
    else if (!Got->Ok)
      S.Failure = "rejected: " + Got->Error;
    else if (Got->ServedFromCache == Q.Engine)
      S.Failure = Q.Engine ? "engine request served from the store"
                           : "warm request ran the engine";
    else if (!sameReportIgnoringTimings(Got->Report, Want))
      S.Failure = "report differs from the direct run";
    if (!S.Failure.empty())
      S.Failure = strFormat("%s %s: %s", Q.Engine ? "engine" : "warm",
                            Want.Program.c_str(), S.Failure.c_str());
    if (Got)
      S.Report = std::move(Got->Report);
    Out.push_back(std::move(S));
  }
}

} // namespace

Result pb::runDaemon(const RunConfig &Cfg, Tracer &T) {
  Result R;
  std::unique_ptr<Daemon> D;
  R.Host.sample();
  for (unsigned Rep = 0; Rep != Cfg.SetupReps; ++Rep) {
    if (D)
      D->stop();
    Clock::time_point T0 = Clock::now();
    D = startDaemon("daemon-" + std::to_string(Rep), R);
    R.setupDone(T0);
  }
  if (Cfg.InjectBadGolden)
    ++D->WarmGolden[0].PerCategory[0].Checks;
  if (!D->Server || D->Clients.size() != 2 || !D->Clients[0]->ok() ||
      !D->Clients[1]->ok()) {
    D->stop();
    return R;
  }

  std::optional<dist::CacheStatsMsg> Stats0 = D->Clients[0]->stats();
  cache::CacheStats Cache0 = cache::cacheStats();
  CounterSnapshot Before = CounterSnapshot::take();
  // The window runs in slices of about a second; between slices both
  // clients are idle while the host speed is sampled.
  std::array<std::vector<Sample>, 2> PerClient;
  std::array<DaemonSchedule, 2> Schedules = {DaemonSchedule(Cfg.Seed, 0),
                                             DaemonSchedule(Cfg.Seed, 1)};
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      Start + std::chrono::microseconds(int64_t(Cfg.Seconds * 1e6));
  double ScaledWindowMs = 0;
  R.Host.sample();
  do {
    Clock::time_point SliceStart = Clock::now();
    Clock::time_point SliceEnd =
        std::min(Deadline, SliceStart + std::chrono::seconds(1));
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != 2; ++C)
      Threads.emplace_back(clientLoop, std::cref(*D), std::ref(*D->Clients[C]),
                           std::ref(Schedules[C]), SliceEnd, Cfg.Trace,
                           std::ref(T), std::ref(PerClient[C]));
    for (std::thread &Th : Threads)
      Th.join();
    Clock::time_point Done = Clock::now();
    double SliceMs = msSince(SliceStart);
    R.Host.sample();
    ScaledWindowMs += R.Host.scaled(SliceMs, Done);
  } while (Clock::now() < Deadline);
  CounterSnapshot After = CounterSnapshot::take();
  cache::CacheStats Cache1 = cache::cacheStats();
  std::optional<dist::CacheStatsMsg> Stats1 = D->Clients[0]->stats();

  std::vector<Timed> Warm, Engine;
  std::vector<double> WarmMs, EngineMs; // raw, for the per-layer figures.
  std::vector<SessionReport> EngineReports;
  std::map<std::string, std::vector<double>> SlugMs;
  uint64_t FullConfigs = 0;
  for (std::vector<Sample> &Samples : PerClient)
    for (Sample &S : Samples) {
      R.op(S.Failure.empty(), S.Failure);
      (S.Engine ? Engine : Warm).push_back(S.Rtt);
      (S.Engine ? EngineMs : WarmMs).push_back(S.Rtt.Ms);
      if (S.Engine) {
        FullConfigs += D->EngineConfigs[0][S.Session];
        SlugMs[sessionSlugs()[S.Session]].push_back(S.Report.TotalMs);
        EngineReports.push_back(std::move(S.Report));
      }
    }
  double Requests = double(WarmMs.size() + EngineMs.size());

  R.latency("warm_rtt_us", Warm, 1000.0, "us", true);
  {
    // p99 by name too; it is too host-sensitive for the bounded tail.
    std::vector<double> Scaled;
    for (const Timed &X : Warm)
      Scaled.push_back(R.Host.scaled(X.Ms, X.End));
    std::sort(Scaled.begin(), Scaled.end());
    if (Scaled.size() >= 1000)
      R.line("warm_rtt_us_p99 = %.3f us (n=%zu)",
             Scaled[size_t(std::ceil(0.99 * double(Scaled.size()))) - 1] *
                 1000.0,
             Scaled.size());
  }
  R.latency("engine_rtt_ms", Engine, 1.0, "ms", false);
  R.EndToEnd["throughput_per_s"] = {Requests / (ScaledWindowMs / 1000.0),
                                    "1/s"};
  R.line("daemon_requests_per_s = %.3f 1/s (raw %.3f 1/s; 2 closed-loop "
         "clients, %.3f s)",
         Requests / (ScaledWindowMs / 1000.0),
         Requests / (msSince(Start) / 1000.0), msSince(Start) / 1000.0);

  if (Cfg.Trace) {
    // Per-layer metrics, per request unless stated.
    double Engines = double(EngineMs.size());
    setSpecLayers(R, EngineReports, Engines, SlugMs);
    setCounterLayers(R, Before, After, Requests);
    double Configs = double(After.Configs - Before.Configs);
    R.setLayer("prog.configs", Engines > 0 ? Configs / Engines : 0.0);
    R.setLayer("por.configs_ratio",
               FullConfigs ? Configs / double(FullConfigs) : 0.0);
    R.line("por.configs_ratio base: %llu configs for the same engine "
           "requests explored in full",
           static_cast<unsigned long long>(FullConfigs));
    R.setLayer("prog.peak_visited_bytes", double(peakVisitedBytes()));
    if (Stats0 && Stats1) {
      R.setLayer("service.warm_serves",
                 double(Stats1->ServedFromCache - Stats0->ServedFromCache) /
                     Requests);
      R.setLayer("service.sessions_run",
                 double(Stats1->SessionsRun - Stats0->SessionsRun) /
                     Requests);
      R.setLayer("service.rejected",
                 double(Stats1->Rejected - Stats0->Rejected) / Requests);
      R.setLayer("cache.hits", double(Stats1->ObligationsReplayed -
                                      Stats0->ObligationsReplayed) /
                                   Requests);
      R.setLayer("cache.store_records", double(Stats1->StoreRecords));
      R.setLayer("cache.store_bytes", double(Stats1->StoreBytes));
    } else {
      R.op(false, "daemon stats query failed");
    }
    R.setLayer("cache.misses", double(Cache1.Misses - Cache0.Misses) /
                                   Requests);
    R.setLayer("service.engine_rtt_ms_p50", median(EngineMs));
    R.setLayer("service.engine_rtt_ms_tail", tailOf(EngineMs).Value);

    // The store fast path without the service around it: serve each
    // session straight from the daemon's store.
    std::vector<double> ServeUs;
    uint64_t Flags = engineFlagsFingerprintFor(PorMode::Off, SymMode::Off);
    if (cache::Store *St = cache::resolvedStore())
      for (size_t I = 0; I != 20 * D->Sessions.size(); ++I) {
        size_t K = I % D->Sessions.size();
        std::optional<SessionReport> Rep;
        {
          Span S(T, true, "serve", 0, sessionSlugs()[K]);
          Clock::time_point T0 = Clock::now();
          Rep = D->Sessions[K].serveFromStore(*St, Flags);
          ServeUs.push_back(msSince(T0) * 1000.0);
        }
        R.op(Rep && sameReportIgnoringTimings(*Rep, D->WarmGolden[K]),
             strFormat("serve %s: differs from the direct run",
                       sessionSlugs()[K].c_str()));
      }
    double ServeUsP50 = median(ServeUs);
    R.setLayer("cache.serve_us", ServeUsP50);
    R.setLayer("service.overhead_us_p50", median(WarmMs) * 1000.0 - ServeUsP50);

    std::vector<SessionReport> All = D->WarmGolden;
    All.insert(All.end(), D->EngineGolden[3].begin(), D->EngineGolden[3].end());
    R.setLayer("codec.report_roundtrip_us", codecRoundtripUs(R, All, 50, T));

    // Warm requests alternate traced and untraced per client; the self
    // times are per traced request of either kind.
    OverheadProbe Probe;
    double TracedRequests = 0;
    for (const std::vector<Sample> &Samples : PerClient)
      for (size_t I = 0; I != Samples.size(); ++I) {
        TracedRequests += I % 2 == 0;
        if (!Samples[I].Engine)
          Probe.add(I % 2 == 0, Samples[I].Rtt.Ms);
      }
    setTraceLayers(R, T, Probe, TracedRequests);
  }

  D->stop();
  setModes(PorMode::Off, SymMode::Off, cache::CacheMode::Off);
  cache::resetActiveStore();
  return R;
}
