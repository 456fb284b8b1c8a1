//===- tests/service_test.cpp - Verification service daemon tests ----------===//
//
// Part of fcsl-cpp.
//
// Pins the verification service (src/service/, DESIGN.md §15): a daemon-
// served session report is bit-identical to a direct in-process run (the
// wire codec, the scheduler, and the mode plumbing add nothing and lose
// nothing); a warm obligation store answers whole sessions without the
// engine ever running; concurrent clients are both served, also when
// their sessions run under different modes at once; malformed and
// unknown frames are rejected loudly without killing the daemon; and a
// graceful Shutdown drains in-flight sessions before acking. Part of the
// TSan and ASan stages of scripts/verify.sh.
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/Server.h"

#include "cache/Store.h"
#include "prog/Engine.h"
#include "spec/Session.h"
#include "structures/Suite.h"
#include "support/Codec.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace fcsl;
using namespace fcsl::dist;
using namespace fcsl::service;

namespace {

/// Wire mode bytes (SubmitSessionMsg): 0 = daemon default.
constexpr uint8_t PorOffB = 1, PorDynamicB = 3;
constexpr uint8_t SymOffB = 1, SymOnB = 2;
constexpr uint8_t CacheOffB = 1, CacheRwB = 2;

/// Zeroes every wall-clock field so two runs of the same session compare
/// bit-identically (timings are the one nondeterministic ingredient).
SessionReport scrubTimings(SessionReport R) {
  for (auto &C : R.PerCategory)
    C.ElapsedMs = 0.0;
  R.TotalMs = 0.0;
  R.Cache.ReplayedUs = 0;
  return R;
}

std::vector<uint8_t> encodedScrubbed(const SessionReport &R) {
  Encoder E;
  encode(E, scrubTimings(R));
  return E.take();
}

/// A scratch directory holding the daemon socket and the obligation
/// store; process mode globals are reset around every test.
class ServiceTest : public ::testing::Test {
protected:
  void SetUp() override {
    char Template[] = "/tmp/fcsl-service-test-XXXXXX";
    ASSERT_NE(::mkdtemp(Template), nullptr);
    Dir = Template;
    cache::setCacheDir(Dir);
    resetModes(cache::CacheMode::Off);
  }

  void TearDown() override {
    Daemon.reset();
    resetModes(cache::CacheMode::Off);
    cache::setCacheDir("");
    cache::resetActiveStore();
    std::remove((Dir + "/obligations.fcslcache").c_str());
    std::remove(socketPath().c_str());
    ::rmdir(Dir.c_str());
  }

  void resetModes(cache::CacheMode M) {
    setDefaultPorMode(PorMode::Off);
    setDefaultSymmetryMode(SymMode::Off);
    cache::setDefaultCacheMode(M);
    cache::resetActiveStore();
  }

  std::string socketPath() const { return Dir + "/daemon.sock"; }

  void startDaemon(unsigned Workers = 2) {
    ServerOptions Opts;
    Opts.SocketPath = socketPath();
    Opts.Workers = Workers;
    Daemon = std::make_unique<Server>(Opts);
    ASSERT_TRUE(Daemon->start());
  }

  std::string Dir;
  std::unique_ptr<Server> Daemon;
};

/// A raw framed connection for protocol-abuse tests (the ServiceClient
/// API cannot emit malformed traffic).
int rawConnect(const std::string &Path) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof Addr);
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Length-prefixes an arbitrary payload (well-framed, possibly garbage).
std::vector<uint8_t> rawFrame(const std::vector<uint8_t> &Payload) {
  Encoder E;
  E.u32(static_cast<uint32_t>(Payload.size()));
  E.raw(Payload);
  return E.take();
}

} // namespace

TEST_F(ServiceTest, DaemonReportsAreBitIdenticalToDirectRuns) {
  // The acceptance bar: every Table-1 session served by the daemon under
  // --por=dynamic --symmetry=on must encode bit-identically to a direct
  // in-process run under the same flags (timings scrubbed — they are the
  // one field wall-clock owns). Cache off on both sides so the counters
  // section is exercised as all-zeroes rather than skipped.
  std::vector<CaseEntry> Cases = allCaseStudies();
  ASSERT_EQ(Cases.size(), 11u);

  std::vector<SessionReport> Direct;
  setDefaultPorMode(PorMode::Dynamic);
  setDefaultSymmetryMode(SymMode::On);
  for (const CaseEntry &Case : Cases)
    Direct.push_back(Case.MakeSession().run());
  resetModes(cache::CacheMode::Off);

  startDaemon();
  ServiceClient Client(socketPath());
  ASSERT_TRUE(Client.ok()) << Client.error();
  for (size_t I = 0; I != Cases.size(); ++I) {
    std::optional<ReportMsg> R =
        Client.submit(Cases[I].Name, PorDynamicB, SymOnB, CacheOffB);
    ASSERT_TRUE(R) << Client.error();
    ASSERT_TRUE(R->Ok) << R->Error;
    EXPECT_FALSE(R->ServedFromCache);
    EXPECT_EQ(encodedScrubbed(R->Report), encodedScrubbed(Direct[I]))
        << Cases[I].Name;
    EXPECT_EQ(renderSessionReport(scrubTimings(R->Report)),
              renderSessionReport(scrubTimings(Direct[I])))
        << Cases[I].Name;
  }
  EXPECT_EQ(Daemon->stats().SessionsRun.load(), 11u);
  EXPECT_EQ(Daemon->stats().ServedFromCache.load(), 0u);
}

TEST_F(ServiceTest, WarmStoreServesWithoutTheEngine) {
  // Cold submit populates the store through the engine; the identical
  // resubmit must be answered wholly from the in-memory index — the
  // daemon-side counters prove the engine never ran again.
  resetModes(cache::CacheMode::Rw);
  startDaemon();
  ServiceClient Client(socketPath());
  ASSERT_TRUE(Client.ok()) << Client.error();

  std::optional<ReportMsg> Cold =
      Client.submit("CAS-lock", PorOffB, SymOffB, CacheRwB);
  ASSERT_TRUE(Cold && Cold->Ok) << Client.error();
  EXPECT_FALSE(Cold->ServedFromCache);
  EXPECT_EQ(Cold->Report.Cache.Stores, Cold->Report.totalObligations());

  // An engine-backed cache-off request in between must not stop the warm
  // path from serving out of the process store.
  std::optional<ReportMsg> Uncached =
      Client.submit("CG increment", PorOffB, SymOffB, CacheOffB);
  ASSERT_TRUE(Uncached && Uncached->Ok) << Client.error();
  EXPECT_FALSE(Uncached->ServedFromCache);

  std::vector<ProgressMsg> Streamed;
  std::optional<ReportMsg> Warm = Client.submit(
      "CAS-lock", PorOffB, SymOffB, CacheRwB, 0,
      [&Streamed](const ProgressMsg &P) { Streamed.push_back(P); });
  ASSERT_TRUE(Warm && Warm->Ok) << Client.error();
  EXPECT_TRUE(Warm->ServedFromCache);
  EXPECT_EQ(Warm->Report.Cache.Hits, Warm->Report.totalObligations());
  EXPECT_EQ(Warm->Report.Cache.Misses, 0u);
  EXPECT_TRUE(Warm->Report.AllPassed);

  // Replay streams one FromCache progress frame per obligation.
  ASSERT_EQ(Streamed.size(), Warm->Report.totalObligations());
  for (const ProgressMsg &P : Streamed) {
    EXPECT_TRUE(P.FromCache);
    EXPECT_TRUE(P.Passed);
    EXPECT_EQ(P.Total, Warm->Report.totalObligations());
  }

  // Same session, same verdicts, same per-category counts; only the
  // cache section differs (stores vs hits), so compare it separately.
  SessionReport A = scrubTimings(Cold->Report);
  SessionReport B = scrubTimings(Warm->Report);
  A.Cache = cache::CacheStats{};
  B.Cache = cache::CacheStats{};
  Encoder EA, EB;
  encode(EA, A);
  encode(EB, B);
  EXPECT_EQ(EA.take(), EB.take());

  EXPECT_EQ(Daemon->stats().SessionsRun.load(), 2u);
  EXPECT_EQ(Daemon->stats().ServedFromCache.load(), 1u);

  std::optional<CacheStatsMsg> Stats = Client.stats();
  ASSERT_TRUE(Stats);
  EXPECT_EQ(Stats->SessionsRun, 2u);
  EXPECT_EQ(Stats->ServedFromCache, 1u);
  EXPECT_EQ(Stats->ObligationsReplayed, Warm->Report.totalObligations());
  EXPECT_GT(Stats->StoreRecords, 0u);
}

TEST_F(ServiceTest, ConcurrentClientsAreBothServed) {
  startDaemon(/*Workers=*/2);
  std::atomic<int> Failures{0};
  auto Submit = [&](const char *Name) {
    ServiceClient Client(socketPath());
    if (!Client.ok()) {
      ++Failures;
      return;
    }
    std::optional<ReportMsg> R =
        Client.submit(Name, PorOffB, SymOffB, CacheOffB);
    if (!R || !R->Ok || !R->Report.AllPassed ||
        R->Report.Program.empty())
      ++Failures;
  };
  std::thread A(Submit, "CAS-lock");
  std::thread B(Submit, "CG increment");
  A.join();
  B.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(Daemon->stats().RequestsServed.load(), 2u);
}

TEST_F(ServiceTest, MixedModeSessionsRunSideBySide) {
  // Two clients send engine-backed submits (cache off) across all four
  // POR off/dynamic x symmetry off/on pairs, interleaved with warm rw
  // serves. Sessions under different modes overlap on the two workers;
  // every reply must still equal the direct run under its own modes.
  // Spanning tree's Main shrinks under dynamic POR, CG increment's under
  // symmetry, so a session run under the wrong modes reports different
  // check counts.
  const std::array<const char *, 2> Names = {"Spanning tree",
                                             "CG increment"};
  const std::array<std::pair<uint8_t, uint8_t>, 4> ModeBytes = {
      {{PorOffB, SymOffB},
       {PorOffB, SymOnB},
       {PorDynamicB, SymOffB},
       {PorDynamicB, SymOnB}}};
  const std::vector<CaseEntry> Cases = allCaseStudies();
  std::vector<VerificationSession> Sessions;
  for (const char *Name : Names)
    for (const CaseEntry &Case : Cases)
      if (Case.Name == Name)
        Sessions.push_back(Case.MakeSession());
  ASSERT_EQ(Sessions.size(), Names.size());

  // Direct runs under explicit modes; the process defaults stay Off.
  // Warm goldens are second rw passes over a store the first one filled.
  std::array<std::array<SessionReport, 4>, 2> EngineGolden;
  std::array<SessionReport, 2> WarmGolden;
  for (size_t S = 0; S != Names.size(); ++S) {
    for (size_t M = 0; M != ModeBytes.size(); ++M)
      EngineGolden[S][M] = Sessions[S].run(
          {static_cast<PorMode>(ModeBytes[M].first),
           static_cast<SymMode>(ModeBytes[M].second), cache::CacheMode::Off});
    ResolvedModes Rw{PorMode::Off, SymMode::Off, cache::CacheMode::Rw};
    Sessions[S].run(Rw);
    WarmGolden[S] = Sessions[S].run(Rw);
    ASSERT_EQ(WarmGolden[S].Cache.Hits, WarmGolden[S].totalObligations());
  }
  EXPECT_NE(encodedScrubbed(EngineGolden[0][0]),
            encodedScrubbed(EngineGolden[0][2]));
  EXPECT_NE(encodedScrubbed(EngineGolden[1][0]),
            encodedScrubbed(EngineGolden[1][1]));

  startDaemon(/*Workers=*/2);
  constexpr unsigned Rounds = 8;
  std::mutex FailMutex;
  std::vector<std::string> Failures;
  auto Client = [&](unsigned C) {
    auto Fail = [&](std::string Why) {
      std::lock_guard<std::mutex> Lock(FailMutex);
      Failures.push_back("client " + std::to_string(C) + ": " + Why);
    };
    ServiceClient Cl(socketPath());
    if (!Cl.ok())
      return Fail(Cl.error());
    for (unsigned I = 0; I != Rounds; ++I) {
      size_t S = I % Names.size();
      size_t M = (I + 2 * C) % ModeBytes.size();
      std::optional<ReportMsg> R = Cl.submit(
          Names[S], ModeBytes[M].first, ModeBytes[M].second, CacheOffB);
      if (!R || !R->Ok || R->ServedFromCache ||
          encodedScrubbed(R->Report) != encodedScrubbed(EngineGolden[S][M]))
        Fail(std::string("engine ") + Names[S] + " mode " +
             std::to_string(M) + (R ? " " + R->Error : " " + Cl.error()));
      size_t W = (I + C) % Names.size();
      R = Cl.submit(Names[W], PorOffB, SymOffB, CacheRwB);
      if (!R || !R->Ok || !R->ServedFromCache ||
          encodedScrubbed(R->Report) != encodedScrubbed(WarmGolden[W]))
        Fail(std::string("warm ") + Names[W] +
             (R ? " " + R->Error : " " + Cl.error()));
    }
  };
  std::thread A(Client, 0u);
  std::thread B(Client, 1u);
  A.join();
  B.join();
  for (const std::string &F : Failures)
    ADD_FAILURE() << F;
  EXPECT_EQ(Daemon->stats().SessionsRun.load(), 2u * Rounds);
  EXPECT_EQ(Daemon->stats().ServedFromCache.load(), 2u * Rounds);
  // The daemon never wrote the process defaults.
  EXPECT_EQ(defaultPorMode(), PorMode::Off);
  EXPECT_EQ(defaultSymmetryMode(), SymMode::Off);
  EXPECT_EQ(cache::defaultCacheMode(), cache::CacheMode::Off);
}

TEST_F(ServiceTest, MalformedAndUnknownFramesAreRejectedLoudly) {
  startDaemon();
  int Fd = rawConnect(socketPath());
  ASSERT_GE(Fd, 0);
  FdChannel Ch(Fd);
  ASSERT_TRUE(clientHandshake(Ch));

  auto ExpectReject = [&](const char *Needle) {
    std::vector<uint8_t> Payload;
    ASSERT_EQ(Ch.recv(Payload, 5000), RecvStatus::Frame);
    std::optional<WireMsg> M = decodeFrame(Payload);
    ASSERT_TRUE(M);
    ASSERT_EQ(M->Type, MsgType::Report);
    EXPECT_FALSE(M->Rep.Ok);
    EXPECT_NE(M->Rep.Error.find(Needle), std::string::npos) << M->Rep.Error;
  };

  // Bad codec magic: rejected as malformed, connection survives.
  ASSERT_TRUE(Ch.send(rawFrame({'J', 'U', 'N', 'K', 0, 0, 0, 0})));
  ExpectReject("malformed");

  // Well-framed unknown tag: rejected as unknown, connection survives.
  Encoder Unknown;
  encodeHeader(Unknown);
  Unknown.u8(static_cast<uint8_t>(MaxKnownMsgTag) + 1);
  ASSERT_TRUE(Ch.send(rawFrame(Unknown.take())));
  ExpectReject("unknown message type");

  // The retired tag 2 (the standalone frontier batch) is no newer peer's
  // message: rejected as malformed, connection survives.
  Encoder Retired;
  encodeHeader(Retired);
  Retired.u8(2);
  Retired.u32(0);
  Retired.u32(1);
  Retired.u32(0);
  ASSERT_TRUE(Ch.send(rawFrame(Retired.take())));
  ExpectReject("malformed");

  // Known tag, truncated body: rejected as malformed, connection survives.
  std::vector<uint8_t> Truncated = frameSubmitSession(SubmitSessionMsg{});
  Truncated.erase(Truncated.begin(), Truncated.begin() + 4); // strip length
  Truncated.pop_back();
  ASSERT_TRUE(Ch.send(rawFrame(Truncated)));
  ExpectReject("malformed");

  // Unknown session name and an out-of-range mode byte: loud rejects.
  SubmitSessionMsg Bogus;
  Bogus.Session = "No such structure";
  ASSERT_TRUE(Ch.send(frameSubmitSession(Bogus)));
  ExpectReject("unknown session");
  SubmitSessionMsg BadMode;
  BadMode.Session = "CAS-lock";
  BadMode.Por = 77;
  ASSERT_TRUE(Ch.send(frameSubmitSession(BadMode)));
  ExpectReject("invalid mode");

  // The abused connection still does real work...
  SubmitSessionMsg Good;
  Good.Session = "CAS-lock";
  Good.Por = PorOffB;
  Good.Symmetry = SymOffB;
  Good.Cache = CacheOffB;
  ASSERT_TRUE(Ch.send(frameSubmitSession(Good)));
  std::vector<uint8_t> Payload;
  ASSERT_EQ(Ch.recv(Payload, 600000), RecvStatus::Frame);
  std::optional<WireMsg> M = decodeFrame(Payload);
  ASSERT_TRUE(M && M->Type == MsgType::Report);
  EXPECT_TRUE(M->Rep.Ok) << M->Rep.Error;
  EXPECT_TRUE(M->Rep.Report.AllPassed);
  Ch.close();

  // ...and an implausible length prefix kills only its own connection:
  // the daemon keeps serving fresh ones.
  int Fd2 = rawConnect(socketPath());
  ASSERT_GE(Fd2, 0);
  FdChannel Poison(Fd2);
  ASSERT_TRUE(clientHandshake(Poison));
  Encoder Huge;
  Huge.u32(0xFFFFFFFFu);
  ASSERT_TRUE(Poison.send(Huge.take()));
  Poison.close();

  ServiceClient Fresh(socketPath());
  ASSERT_TRUE(Fresh.ok()) << Fresh.error();
  std::optional<CacheStatsMsg> Stats = Fresh.stats();
  ASSERT_TRUE(Stats);
  EXPECT_GE(Stats->MalformedFrames, 3u);
  EXPECT_GE(Stats->UnknownFrames, 1u);
  EXPECT_GE(Stats->Rejected, 6u);
}

TEST(ServiceToolsTest, BadModeEnvironmentExitsTwo) {
  // fcsl-serve and fcsl-verify validate every FCSL_* knob at startup
  // through the shared mode parsers: a typo must not silently run the
  // wrong engine configuration. The trailing unknown flag makes a tool
  // that skipped validation exit through its usage text instead (also
  // status 2, but without the error line), so it can never start serving.
  for (const char *Bin : {FCSL_SERVE_BIN, FCSL_VERIFY_BIN}) {
    for (const char *Env : {"FCSL_POR=dynamc", "FCSL_SYMMETRY=chek",
                            "FCSL_CACHE=wr", "FCSL_JOBS=-1",
                            "FCSL_SHARDS=0"}) {
      std::string Cmd =
          std::string("env ") + Env + " '" + Bin + "' --no-such-flag 2>&1";
      FILE *P = ::popen(Cmd.c_str(), "r");
      ASSERT_NE(P, nullptr) << Cmd;
      std::string Out;
      char Buf[256];
      while (size_t N = std::fread(Buf, 1, sizeof(Buf), P))
        Out.append(Buf, N);
      int Status = ::pclose(P);
      ASSERT_TRUE(WIFEXITED(Status)) << Cmd;
      EXPECT_EQ(WEXITSTATUS(Status), 2) << Cmd;
      EXPECT_NE(Out.find("error: invalid"), std::string::npos)
          << Cmd << "\n" << Out;
    }
  }
}

TEST_F(ServiceTest, ShutdownDrainsInFlightSessions) {
  startDaemon();
  std::atomic<bool> Started{false};

  std::thread Submitter([&] {
    ServiceClient Client(socketPath());
    if (!Client.ok()) {
      ADD_FAILURE() << Client.error();
      Started.store(true); // unblock the main thread's wait.
      return;
    }
    std::optional<ReportMsg> R = Client.submit(
        "Ticketed lock", PorOffB, SymOffB, CacheOffB, 0,
        [&Started](const ProgressMsg &) { Started.store(true); });
    // The drain guarantee: a session the daemon accepted before the
    // Shutdown frame still completes and reports.
    EXPECT_TRUE(R && R->Ok) << (R ? R->Error : Client.error());
    if (R && R->Ok) {
      EXPECT_TRUE(R->Report.AllPassed);
    }
    Started.store(true);
  });

  // Wait until the session is demonstrably in flight (first progress
  // frame observed), then ask for shutdown from a second client. The
  // Shutdown ack may only arrive after the drain completes.
  while (!Started.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ServiceClient Stopper(socketPath());
  ASSERT_TRUE(Stopper.ok()) << Stopper.error();
  EXPECT_TRUE(Stopper.shutdown());
  Submitter.join();

  Daemon->wait();
  EXPECT_EQ(Daemon->stats().SessionsRun.load(), 1u);

  // The listener is gone: new connections are refused.
  EXPECT_LT(rawConnect(socketPath()), 0);
}
