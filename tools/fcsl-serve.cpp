//===- tools/fcsl-serve.cpp - Verification service daemon ------------------===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
// The long-lived verification server (DESIGN.md §15):
//
//   fcsl-serve --socket /tmp/fcsl.sock [--workers N] [--por MODE] ...
//
// One process keeps the interned arenas and the obligation-store index
// warm across requests; fcsl-client submits sessions by name and a fully
// warm session is answered in microseconds without invoking the engine.
// The daemon exits on a client Shutdown frame or on SIGINT/SIGTERM, both
// via the same graceful drain.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"
#include "support/ThreadPool.h"
#include "ModeFlags.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <poll.h>
#include <thread>
#include <unistd.h>

using namespace fcsl;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fcsl-serve --socket PATH [options]\n"
               "  --socket PATH        Unix-domain socket to listen on "
               "(required)\n"
               "  --workers N          session worker threads (default 2)\n"
               "  --queue N            queued-session bound; submits beyond "
               "it are\n"
               "                       rejected loudly (default 64)\n"
               "  --jobs N             default discharge threads per session "
               "(0 = all\n"
               "                       hardware threads; default from "
               "FCSL_JOBS, else 1)\n"
               "  --por off|on|dynamic|check|check-dynamic\n"
               "  --symmetry off|on|check\n"
               "  --cache off|rw|ro|check\n"
               "                       the daemon-default modes; a submit "
               "with Default\n"
               "                       mode bytes inherits them, an explicit "
               "submit mode\n"
               "                       overrides per request; --por on "
               "declines,\n"
               "                       running the plain engine, where no "
               "action is a\n"
               "                       local move; --por dynamic and "
               "check-dynamic are\n"
               "                       spellings of on and check\n");
  return 2;
}

/// The self-pipe the signal handlers write to; poll(2) in main turns an
/// async signal into a synchronous graceful drain.
int SigPipe[2] = {-1, -1};

void onSignal(int) {
  uint8_t B = 1;
  ssize_t Ignored = ::write(SigPipe[1], &B, 1);
  (void)Ignored;
}

} // namespace

int main(int Argc, char **Argv) {
  if (int Bad = validateEnv())
    return Bad;
  service::ServerOptions Opts;
  auto ParseUnsigned = [](const char *Text, long Min, long &Out) {
    char *End = nullptr;
    Out = std::strtol(Text, &End, 10);
    return End != Text && *End == '\0' && Out >= Min;
  };
  for (int I = 1; I < Argc; ++I) {
    long N = 0;
    if (std::strcmp(Argv[I], "--socket") == 0 && I + 1 < Argc) {
      Opts.SocketPath = Argv[++I];
    } else if (std::strcmp(Argv[I], "--workers") == 0 && I + 1 < Argc &&
               ParseUnsigned(Argv[++I], 1, N)) {
      Opts.Workers = static_cast<unsigned>(N);
    } else if (std::strcmp(Argv[I], "--queue") == 0 && I + 1 < Argc &&
               ParseUnsigned(Argv[++I], 1, N)) {
      Opts.QueueCapacity = static_cast<size_t>(N);
    } else if (std::strcmp(Argv[I], "--jobs") == 0 && I + 1 < Argc &&
               ParseUnsigned(Argv[++I], 0, N)) {
      Opts.Jobs = static_cast<unsigned>(N);
      setDefaultJobs(static_cast<unsigned>(N));
    } else if (std::strcmp(Argv[I], "--por") == 0 && I + 1 < Argc) {
      if (!applyMode(Argv[++I], parsePorMode, setDefaultPorMode))
        return usage();
    } else if (std::strcmp(Argv[I], "--symmetry") == 0 && I + 1 < Argc) {
      if (!applyMode(Argv[++I], parseSymMode, setDefaultSymmetryMode))
        return usage();
    } else if (std::strcmp(Argv[I], "--cache") == 0 && I + 1 < Argc) {
      if (!applyMode(Argv[++I], cache::parseCacheMode,
                     cache::setDefaultCacheMode))
        return usage();
    } else {
      return usage();
    }
  }
  if (Opts.SocketPath.empty())
    return usage();

  if (::pipe(SigPipe) != 0) {
    std::perror("fcsl-serve: pipe");
    return 1;
  }
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  service::Server Server(Opts);
  if (!Server.start()) {
    std::fprintf(stderr, "fcsl-serve: cannot listen on %s\n",
                 Opts.SocketPath.c_str());
    return 1;
  }
  std::fprintf(stderr, "fcsl-serve: listening on %s (%u workers)\n",
               Server.endpoint().c_str(), Opts.Workers);

  // Wait for either a signal (self-pipe) or a client-driven shutdown (the
  // waiter thread's pipe write), then drain and exit cleanly either way.
  int DonePipe[2];
  if (::pipe(DonePipe) != 0) {
    std::perror("fcsl-serve: pipe");
    return 1;
  }
  std::thread Waiter([&Server, &DonePipe] {
    Server.wait();
    uint8_t B = 1;
    ssize_t Ignored = ::write(DonePipe[1], &B, 1);
    (void)Ignored;
  });
  pollfd Fds[2] = {{SigPipe[0], POLLIN, 0}, {DonePipe[0], POLLIN, 0}};
  while (::poll(Fds, 2, -1) < 0 && errno == EINTR)
    ;
  if (Fds[0].revents & POLLIN) {
    std::fprintf(stderr, "fcsl-serve: signal received, draining\n");
    Server.requestShutdown();
  }
  Waiter.join();

  const service::DaemonStats &S = Server.stats();
  std::fprintf(stderr,
               "fcsl-serve: served %llu requests (%llu engine sessions, "
               "%llu from cache), exiting\n",
               static_cast<unsigned long long>(S.RequestsServed.load()),
               static_cast<unsigned long long>(S.SessionsRun.load()),
               static_cast<unsigned long long>(S.ServedFromCache.load()));
  return 0;
}
