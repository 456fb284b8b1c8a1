//===- tools/fcsl-client.cpp - Verification service client -----------------===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
// Submits verification sessions to a running fcsl-serve daemon:
//
//   fcsl-client --socket /tmp/fcsl.sock verify "Ticketed lock"
//   fcsl-client --socket /tmp/fcsl.sock --progress verify all
//   fcsl-client --socket /tmp/fcsl.sock stats
//   fcsl-client --socket /tmp/fcsl.sock shutdown
//
// The printed report is renderSessionReport over the daemon's wire
// SessionReport — byte-identical in shape to a direct `fcsl-verify
// verify` run, so the two outputs diff cleanly (modulo timings).
//
//===----------------------------------------------------------------------===//

#include "cache/Store.h"
#include "prog/Engine.h"
#include "service/Client.h"
#include "spec/Session.h"
#include "structures/Suite.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace fcsl;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: fcsl-client --socket PATH [options] <command>\n"
      "  verify <name|all>    submit one (or every) registered session\n"
      "  stats                print the daemon's serving counters\n"
      "  shutdown             drain the daemon and wait for its ack\n"
      "\n"
      "  --por off|on|dynamic|check|check-dynamic\n"
      "  --symmetry off|on|check\n"
      "  --cache off|rw|ro|check\n"
      "                       per-request engine modes (omitted = the\n"
      "                       daemon's defaults); --por on declines,\n"
      "                       running the plain engine, where no action\n"
      "                       is a local move; --por dynamic and\n"
      "                       check-dynamic are spellings of on and check\n"
      "  --jobs N             discharge threads for this request\n"
      "  --progress           stream per-obligation progress to stderr\n"
      "  --expect pass|fail   for scripting: exit 0 iff every submitted\n"
      "                       session's verdict matches\n"
      "  --timeout-ms N       per-request receive timeout (default 600000)\n");
  return 2;
}

/// Parses a mode flag into its wire byte: the enum's own value, so a
/// byte never drifts from the mode it names (0 stays "daemon default").
template <typename Mode>
bool modeByte(const char *Text, bool (*Parse)(const char *, Mode &),
              uint8_t &Out) {
  Mode M{};
  if (!Parse(Text, M))
    return false;
  Out = static_cast<uint8_t>(M);
  return true;
}

void printProgress(const dist::ProgressMsg &P) {
  std::string Timing;
  if (P.ElapsedUs && !P.FromCache)
    Timing = " " + std::to_string(P.ElapsedUs) + "us";
  std::fprintf(stderr, "  [%u/%u] %s %s%s%s\n", P.Completed, P.Total,
               P.Name.c_str(), P.Passed ? "ok" : "FAILED",
               P.FromCache ? " (cache)" : "", Timing.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Socket;
  uint8_t Por = 0, Sym = 0, Cache = 0;
  uint32_t Jobs = 0;
  bool Progress = false;
  int ExpectPass = -1; // -1 = no expectation.
  long TimeoutMs = 600000;
  std::vector<const char *> Cmd;

  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--socket") && I + 1 < Argc) {
      Socket = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--por") && I + 1 < Argc) {
      if (!modeByte(Argv[++I], parsePorMode, Por))
        return usage();
    } else if (!std::strcmp(Argv[I], "--symmetry") && I + 1 < Argc) {
      if (!modeByte(Argv[++I], parseSymMode, Sym))
        return usage();
    } else if (!std::strcmp(Argv[I], "--cache") && I + 1 < Argc) {
      if (!modeByte(Argv[++I], cache::parseCacheMode, Cache))
        return usage();
    } else if (!std::strcmp(Argv[I], "--jobs") && I + 1 < Argc) {
      char *End = nullptr;
      long N = std::strtol(Argv[++I], &End, 10);
      if (End == Argv[I] || *End != '\0' || N < 0)
        return usage();
      Jobs = static_cast<uint32_t>(N);
    } else if (!std::strcmp(Argv[I], "--progress")) {
      Progress = true;
    } else if (!std::strcmp(Argv[I], "--expect") && I + 1 < Argc) {
      ++I;
      if (!std::strcmp(Argv[I], "pass"))
        ExpectPass = 1;
      else if (!std::strcmp(Argv[I], "fail"))
        ExpectPass = 0;
      else
        return usage();
    } else if (!std::strcmp(Argv[I], "--timeout-ms") && I + 1 < Argc) {
      char *End = nullptr;
      TimeoutMs = std::strtol(Argv[++I], &End, 10);
      if (End == Argv[I] || *End != '\0' || TimeoutMs <= 0)
        return usage();
    } else {
      Cmd.push_back(Argv[I]);
    }
  }
  if (Socket.empty() || Cmd.empty())
    return usage();

  service::ServiceClient Client(Socket);
  if (!Client.ok()) {
    std::fprintf(stderr, "fcsl-client: %s\n", Client.error().c_str());
    return 1;
  }
  Client.setRequestTimeoutMs(static_cast<int>(TimeoutMs));

  if (!std::strcmp(Cmd[0], "stats")) {
    if (Cmd.size() != 1)
      return usage();
    std::optional<dist::CacheStatsMsg> S = Client.stats();
    if (!S) {
      std::fprintf(stderr, "fcsl-client: %s\n", Client.error().c_str());
      return 1;
    }
    // A stable key-value shape so scripts can grep single counters.
    std::printf("requests_served %llu\n"
                "sessions_run %llu\n"
                "served_from_cache %llu\n"
                "obligations_replayed %llu\n"
                "rejected %llu\n"
                "unknown_frames %llu\n"
                "malformed_frames %llu\n"
                "store_records %llu\n"
                "store_bytes %llu\n"
                "uptime_us %llu\n",
                static_cast<unsigned long long>(S->RequestsServed),
                static_cast<unsigned long long>(S->SessionsRun),
                static_cast<unsigned long long>(S->ServedFromCache),
                static_cast<unsigned long long>(S->ObligationsReplayed),
                static_cast<unsigned long long>(S->Rejected),
                static_cast<unsigned long long>(S->UnknownFrames),
                static_cast<unsigned long long>(S->MalformedFrames),
                static_cast<unsigned long long>(S->StoreRecords),
                static_cast<unsigned long long>(S->StoreBytes),
                static_cast<unsigned long long>(S->UptimeUs));
    return 0;
  }

  if (!std::strcmp(Cmd[0], "shutdown")) {
    if (Cmd.size() != 1)
      return usage();
    if (!Client.shutdown()) {
      std::fprintf(stderr, "fcsl-client: shutdown not acked: %s\n",
                   Client.error().c_str());
      return 1;
    }
    return 0;
  }

  if (std::strcmp(Cmd[0], "verify") != 0 || Cmd.size() != 2)
    return usage();

  // `verify all` asks the daemon session by session, exactly like the
  // direct tool loops over the registry — so the concatenated reports
  // diff against `fcsl-verify verify all` line for line.
  std::vector<std::string> Names;
  if (!std::strcmp(Cmd[1], "all")) {
    for (const CaseEntry &Case : allVerifiableSessions())
      Names.push_back(Case.Name);
  } else {
    Names.push_back(Cmd[1]);
  }

  int Status = 0;
  for (const std::string &Name : Names) {
    std::optional<dist::ReportMsg> R =
        Client.submit(Name, Por, Sym, Cache, Jobs,
                      Progress ? printProgress : service::ProgressSink{});
    if (!R) {
      std::fprintf(stderr, "fcsl-client: %s\n", Client.error().c_str());
      return 1;
    }
    if (!R->Ok) {
      std::fprintf(stderr, "fcsl-client: rejected: %s\n", R->Error.c_str());
      return 1;
    }
    std::fputs(renderSessionReport(R->Report).c_str(), stdout);
    std::printf("\n"); // the separator `fcsl-verify verify` prints.
    if (ExpectPass >= 0 &&
        R->Report.AllPassed != static_cast<bool>(ExpectPass)) {
      std::fprintf(stderr,
                   "fcsl-client: session '%s' %s but --expect said %s\n",
                   Name.c_str(), R->Report.AllPassed ? "passed" : "failed",
                   ExpectPass ? "pass" : "fail");
      Status = 1;
    } else if (ExpectPass < 0 && !R->Report.AllPassed) {
      Status = 1;
    }
  }
  return Status;
}
