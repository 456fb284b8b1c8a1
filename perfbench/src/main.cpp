//===- perfbench/src/main.cpp - The repository benchmark binary -----------===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// fcsl-perfbench --workload W --seed N --seconds S --trace 0|1
///                [--rev TEXT] [--trace-out PATH]
///
/// Runs one workload (corpus, corpus_reduced, diamond3, daemon) in the
/// current directory, which it uses for its throwaway store and socket.
/// Prints the workload's figures by name, then as its last line one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
/// report the end-to-end metrics, traced runs the per-layer ones.
///
/// Other modes: --self-test, --print-golden, --list-metrics.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "cache/Store.h"
#include "dist/Wire.h"
#include "structures/Suite.h"
#include "support/ThreadPool.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace fcsl;
using namespace pb;

namespace {

const char *const Workloads[] = {"corpus", "corpus_reduced", "diamond3",
                                 "daemon"};

int usage() {
  std::fprintf(stderr,
               "usage: fcsl-perfbench --workload corpus|corpus_reduced|"
               "diamond3|daemon --seed N --seconds S --trace 0|1\n"
               "                      [--rev TEXT] [--trace-out PATH]\n"
               "       fcsl-perfbench --self-test | --print-golden | "
               "--list-metrics\n");
  return 2;
}

/// Mode variables silently change what a workload runs; refuse them all.
bool refuseModeEnvironment() {
  bool Found = false;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "FCSL_", 5) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *E);
      Found = true;
    }
  return Found;
}

/// Every mode the workloads depend on, set explicitly. Workloads change
/// POR, symmetry and the cache mode for themselves from here.
void setExplicitModes() {
  setDefaultPorMode(PorMode::Off);
  setDefaultSymmetryMode(SymMode::Off);
  cache::setDefaultCacheMode(cache::CacheMode::Off);
  cache::setCacheDir("store");
  setDefaultJobs(1);
  setDefaultShards(1);
  dist::setDistCompress(true);
}

std::string provenanceJson(const RunConfig &Cfg, const std::string &Rev) {
  char Buf[1024];
  std::snprintf(
      Buf, sizeof Buf,
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %ld, \"hardware_concurrency\": %u, \"rev\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}",
      jsonEscape(Cfg.Workload).c_str(),
      static_cast<unsigned long long>(Cfg.Seed), Cfg.Seconds, Cfg.Trace ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      jsonEscape(Rev).c_str(), jsonEscape(PERFBENCH_COMPILER).c_str(),
      PERFBENCH_BUILD_TYPE);
  return Buf;
}

Result runWorkload(const RunConfig &Cfg, Tracer &T) {
  if (Cfg.Workload == "corpus" || Cfg.Workload == "corpus_reduced")
    return runCorpus(Cfg, T, Cfg.Workload == "corpus_reduced");
  if (Cfg.Workload == "diamond3")
    return runDiamond(Cfg, T);
  return runDaemon(Cfg, T);
}

//===----------------------------------------------------------------------===//
// Self-tests
//===----------------------------------------------------------------------===//

int Failures = 0;

void expect(bool Ok, const std::string &What) {
  if (!Ok) {
    ++Failures;
    std::printf("self-test FAILED: %s\n", What.c_str());
  }
}

void testTailRule() {
  for (size_t N = 1; N <= 3000; ++N) {
    std::vector<double> Xs(N);
    Rng R(N, 7);
    for (size_t I = 0; I != N; ++I)
      Xs[I] = double(I);
    R.shuffle(Xs);
    Tail T = tailOf(Xs);
    size_t Idx = static_cast<size_t>(T.Value); // value i sits at rank i.
    std::string At = strFormat("tail of %zu samples", N);
    size_t P50 = static_cast<size_t>(std::ceil(0.5 * double(N))) - 1;
    if (N < 20) {
      expect(!T.Qualified && Idx == N - 1, At + ": max when n < 20");
      continue;
    }
    size_t Beyond = N - 1 - Idx;
    expect(T.Qualified && Beyond == T.Beyond && Beyond >= 10,
           At + ": fewer than 10 samples beyond the tail");
    // Highest such percentile: either exactly 10 beyond, or capped at p95.
    size_t P95 = static_cast<size_t>(std::ceil(0.95 * double(N))) - 1;
    expect(Beyond == 10 || Idx == P95, At + ": not the highest percentile");
    expect(Idx <= P95 && Idx >= P50, At + ": outside p50..p95");
    expect(std::fabs(T.Percentile - 100.0 * double(Idx + 1) / double(N)) <
               1e-9,
           At + ": percentile label");
  }
}

void testSeededSchedules() {
  for (uint64_t Pass = 0; Pass != 5; ++Pass) {
    std::vector<size_t> A = corpusOrder(42, Pass), B = corpusOrder(42, Pass);
    expect(A == B, "corpus order differs for one seed");
    expect(std::set<size_t>(A.begin(), A.end()).size() == A.size() &&
               A.size() == sessionSlugs().size(),
           "corpus order is not a permutation");
  }
  bool Differs = false;
  for (uint64_t Pass = 0; Pass != 5; ++Pass)
    Differs |= corpusOrder(42, Pass) != corpusOrder(43, Pass);
  expect(Differs, "corpus order ignores the seed");

  for (unsigned Client = 0; Client != 2; ++Client) {
    DaemonSchedule A(42, Client), B(42, Client), C(43, Client);
    bool SeedMatters = false;
    size_t Engines = 0;
    std::set<std::pair<size_t, unsigned>> Pairs;
    for (size_t I = 0; I != 4400; ++I) {
      DaemonRequest X = A.next(), Y = B.next(), Z = C.next();
      expect(X.Engine == Y.Engine && X.Session == Y.Session &&
                 X.Mode == Y.Mode,
             "daemon schedule differs for one seed");
      SeedMatters |= X.Engine != Z.Engine || X.Session != Z.Session;
      if (X.Engine) {
        ++Engines;
        Pairs.insert({X.Session, X.Mode});
      }
    }
    expect(SeedMatters, "daemon schedule ignores the seed");
    expect(Engines == 440, "daemon schedule: not one engine request in ten");
    expect(Pairs.size() == sessionSlugs().size() * NumDaemonModes,
           "daemon schedule misses a (session, mode) pair");
  }
  DaemonSchedule A(42, 0), B(42, 1);
  bool ClientsDiffer = false;
  for (size_t I = 0; I != 100; ++I) {
    DaemonRequest X = A.next(), Y = B.next();
    ClientsDiffer |= X.Engine != Y.Engine || X.Session != Y.Session;
  }
  expect(ClientsDiffer, "both daemon clients follow the same schedule");
}

void testInjectedGolden() {
  Tracer T;
  RunConfig Cfg;
  Cfg.Workload = "corpus";
  Cfg.Seconds = 0.2;
  Cfg.SetupReps = 1;
  Result Clean = runCorpus(Cfg, T, false);
  expect(Clean.Failed == 0 && Clean.Attempted >= 22,
         "clean corpus run reports failures");
  Cfg.InjectBadGolden = true;
  Result Bad = runCorpus(Cfg, T, false);
  // One CAS-lock session per pass (set-up's included) must fail, and the
  // run must still finish with every other session passing.
  uint64_t Passes = Bad.Attempted / sessionSlugs().size();
  expect(Bad.Failed == Passes && Bad.Attempted > Bad.Failed &&
             Bad.EndToEnd.count("op_ms_p50"),
         strFormat("injected golden: %llu failed of %llu attempted",
                   static_cast<unsigned long long>(Bad.Failed),
                   static_cast<unsigned long long>(Bad.Attempted)));
}

int selfTest() {
  testTailRule();
  testSeededSchedules();
  testInjectedGolden();
  std::printf("self-test: %s\n", Failures ? "FAILED" : "ok");
  return Failures ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig Cfg;
  std::string Rev = "unknown", TraceOut;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (A == "--self-test" || A == "--print-golden" || A == "--list-metrics") {
      if (refuseModeEnvironment())
        return 2;
      setExplicitModes();
      if (A == "--self-test")
        return selfTest();
      if (A == "--print-golden")
        return printGolden();
      std::printf("[\n");
      const std::vector<LayerMetricSpec> &Tab = layerMetricTable();
      for (size_t K = 0; K != Tab.size(); ++K)
        std::printf("  {\"name\": \"%s\", \"unit\": \"%s\", \"better\": "
                    "\"%s\"}%s\n",
                    Tab[K].Name.c_str(), Tab[K].Unit.c_str(), Tab[K].Better,
                    K + 1 == Tab.size() ? "" : ",");
      std::printf("]\n");
      return 0;
    }
    const char *V = Value();
    if (!V)
      return usage();
    char *End = nullptr;
    if (A == "--workload") {
      Cfg.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      Cfg.Seed = std::strtoull(V, &End, 10);
      HaveSeed = End && *End == '\0' && *V;
    } else if (A == "--seconds") {
      Cfg.Seconds = std::strtod(V, &End);
      HaveSeconds = End && *End == '\0' && Cfg.Seconds > 0;
    } else if (A == "--trace") {
      HaveTrace = !std::strcmp(V, "0") || !std::strcmp(V, "1");
      Cfg.Trace = !std::strcmp(V, "1");
    } else if (A == "--rev") {
      Rev = V;
    } else if (A == "--trace-out") {
      TraceOut = V;
    } else {
      return usage();
    }
  }
  bool Known = false;
  for (const char *W : Workloads)
    Known |= Cfg.Workload == W;
  if (!HaveWorkload || !Known || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage();
  if (refuseModeEnvironment())
    return 2;
  setExplicitModes();

  // The metric slugs are fixed in BENCHMARK.json; the registry must still
  // produce them in the same order.
  std::vector<CaseEntry> Cases = allCaseStudies();
  if (Cases.size() != sessionSlugs().size()) {
    std::fprintf(stderr, "perfbench: %zu Table-1 sessions, expected %zu\n",
                 Cases.size(), sessionSlugs().size());
    return 1;
  }
  for (size_t I = 0; I != Cases.size(); ++I)
    if (slugOf(Cases[I].Name) != sessionSlugs()[I]) {
      std::fprintf(stderr, "perfbench: session %zu is '%s', expected %s\n", I,
                   Cases[I].Name.c_str(), sessionSlugs()[I].c_str());
      return 1;
    }

  Tracer T;
  Result R = runWorkload(Cfg, T);
  std::string Prov = provenanceJson(Cfg, Rev);

  std::vector<double> SetupS, RawSetupS;
  for (const Timed &S : R.Setup) {
    SetupS.push_back(R.Host.scaled(S.Ms, S.End) / 1000.0);
    RawSetupS.push_back(S.Ms / 1000.0);
  }

  Metrics Out;
  if (Cfg.Trace) {
    for (const LayerMetricSpec &S : layerMetricTable())
      Out[S.Name] = Metric{0.0, S.Unit};
    for (const auto &[Name, M] : R.Layers)
      Out[Name] = M;
    Out["host.reference_ms"] = {R.Host.medianMs(), "ms"};
    if (!TraceOut.empty() && !T.writeJson(TraceOut, Prov))
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   TraceOut.c_str());
  } else {
    Out = R.EndToEnd;
    Out["setup_s"] = {median(SetupS), "s"};
    Out["peak_rss_mb"] = {peakRssMb(), "MB"};
  }

  std::printf("provenance %s\n", Prov.c_str());
  for (const std::string &L : R.Lines)
    std::printf("%s\n", L.c_str());
  std::printf("setup_s reps:");
  for (size_t I = 0; I != SetupS.size(); ++I)
    std::printf(" %.4f (raw %.4f)", SetupS[I], RawSetupS[I]);
  std::printf("\nhost reference kernel: median %.3f ms over the run "
              "(nominal %.1f ms)\n",
              R.Host.medianMs(), HostSpeed::NominalMs);
  std::printf("failed_ratio = %.6f (%llu failed of %llu operations)\n",
              R.Attempted ? double(R.Failed) / double(R.Attempted) : 1.0,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  for (const std::string &F : R.FailureNotes)
    std::printf("failure: %s\n", F.c_str());
  for (const auto &[Name, M] : Out)
    std::printf("%s = %.6g %s\n", Name.c_str(), M.Value, M.Unit.c_str());

  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 && R.Attempted > 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : Out) {
    char Num[64];
    std::snprintf(Num, sizeof Num, "%.17g", M.Value);
    Json += (First ? "\"" : ", \"") + jsonEscape(Name) + "\": {\"value\": " +
            Num + ", \"unit\": \"" + jsonEscape(M.Unit) + "\"}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return 0;
}
