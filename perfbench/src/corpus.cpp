//===- perfbench/src/corpus.cpp - The Table-1 corpus workloads ------------===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `corpus`: the 11 Table-1 sessions, each run serially with every
/// reduction, the cache and sharding off, in a seeded order per pass.
/// `corpus_reduced`: the same passes under dynamic POR plus symmetry.
/// One operation is one session; the timed unit is one pass over all 11.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "cache/Store.h"
#include "structures/Suite.h"

#include <cstdio>

using namespace fcsl;
using namespace pb;

namespace {

/// Per-session golden values, measured at the commit that defined the
/// benchmark (`fcsl-perfbench --print-golden` regenerates the rows). A
/// full run must match its row exactly. Under dynamic POR plus symmetry
/// the verdict and obligation count must match too, while the check and
/// config counts (checks include explored configs) may only stay at or
/// below the full counts — a reduction that gets better, or declines
/// itself, must not read as a failure — and must be the same on every
/// pass of a run.
struct SessionGolden {
  const char *Program;
  uint64_t Obligations;
  uint64_t Checks;
  uint64_t Configs;
};

SessionGolden Golden[] = {
    {"CAS-lock", 9, 2085, 20},        // reduced: 2085 checks, 20 configs
    {"Ticketed lock", 9, 1204, 91},   // reduced: 1197 checks, 84 configs
    {"CG increment", 6, 571, 251},    // reduced: 469 checks, 149 configs
    {"CG allocator", 4, 535, 204},    // reduced: 529 checks, 198 configs
    {"Pair snapshot", 8, 518, 265},   // reduced: 518 checks, 265 configs
    {"Treiber stack", 11, 579, 123},  // reduced: 560 checks, 105 configs
    {"Spanning tree", 13, 4749, 1456},// reduced: 4218 checks, 925 configs
    {"Flat combiner", 11, 11584, 5040}, // reduced: 11154 checks, 4610 configs
    {"Seq. stack", 3, 26, 11},        // reduced: 26 checks, 11 configs
    {"FC-stack", 3, 160, 152},        // reduced: 160 checks, 152 configs
    {"Prod/Cons", 3, 44, 36},         // reduced: 44 checks, 36 configs
};

void setCorpusModes(bool Reduced) {
  setDefaultPorMode(Reduced ? PorMode::Dynamic : PorMode::Off);
  setDefaultSymmetryMode(Reduced ? SymMode::On : SymMode::Off);
}

struct SessionRun {
  SessionReport Report;
  uint64_t Configs = 0;
  double Ms = 0.0;
};

SessionRun runSession(const VerificationSession &S, Tracer &T, bool Traced,
                      uint64_t Parent, const std::string &Slug) {
  Span Sp(T, Traced, "session", Parent, Slug);
  SessionRun Out;
  uint64_t Configs0 = totalConfigsExplored();
  Clock::time_point T0 = Clock::now();
  Out.Report = S.run(/*Jobs=*/1);
  Out.Ms = msSince(T0);
  Out.Configs = totalConfigsExplored() - Configs0;
  return Out;
}

/// What a session's first run in this process produced; later runs of a
/// reduced session must repeat it exactly.
struct FirstRun {
  uint64_t Checks = 0;
  uint64_t Configs = 0;
};

/// Checks one session run against its golden row.
std::string checkSession(const SessionRun &Run, const SessionGolden &G,
                         bool Reduced, const FirstRun &First) {
  const SessionReport &R = Run.Report;
  if (R.Program != G.Program)
    return strFormat("expected %s, ran %s", G.Program, R.Program.c_str());
  if (!R.AllPassed || !R.Failures.empty())
    return strFormat("%s: verdict FAILED (%s)", G.Program,
                     R.Failures.empty() ? "" : R.Failures[0].c_str());
  uint64_t Checks = R.totalChecks();
  bool CountsOk =
      R.totalObligations() == G.Obligations &&
      (Reduced ? Checks <= G.Checks && Run.Configs <= G.Configs &&
                     Checks == First.Checks && Run.Configs == First.Configs
               : Checks == G.Checks && Run.Configs == G.Configs);
  if (!CountsOk)
    return strFormat(
        "%s: %llu obligations / %llu checks / %llu configs; golden %llu / "
        "%s%llu / %s%llu; first run %llu checks / %llu configs",
        G.Program, static_cast<unsigned long long>(R.totalObligations()),
        static_cast<unsigned long long>(Checks),
        static_cast<unsigned long long>(Run.Configs),
        static_cast<unsigned long long>(G.Obligations), Reduced ? "<=" : "",
        static_cast<unsigned long long>(G.Checks), Reduced ? "<=" : "",
        static_cast<unsigned long long>(G.Configs),
        static_cast<unsigned long long>(First.Checks),
        static_cast<unsigned long long>(First.Configs));
  return "";
}

/// The engine counters behind one pass, which the sessions do not report:
/// rerun the pass once into a throwaway store and sum the counters its
/// records persist. Returns false when some obligation is unkeyed (its
/// counters cannot be read back).
bool probeEngineCounters(const std::vector<VerificationSession> &Sessions,
                         EngineCounters &Out) {
  cache::setCacheDir("probe-store");
  cache::setDefaultCacheMode(cache::CacheMode::Rw);
  cache::resetActiveStore();
  for (const VerificationSession &S : Sessions)
    S.run(/*Jobs=*/1);
  bool AllKeyed = true;
  if (cache::Store *St = cache::activeStore()) {
    uint64_t Flags = engineFlagsFingerprint();
    for (const VerificationSession &S : Sessions)
      for (const ProofUnit &U : S.units()) {
        const cache::CacheRecord *Rec =
            U.keyed() ? St->lookup(U.key(Flags)) : nullptr;
        if (Rec)
          Out += Rec->Counters;
        else
          AllKeyed = false;
      }
  } else {
    AllKeyed = false;
  }
  cache::setDefaultCacheMode(cache::CacheMode::Off);
  cache::resetActiveStore();
  return AllKeyed;
}

} // namespace

Result pb::runCorpus(const RunConfig &Cfg, Tracer &T, bool Reduced) {
  Result R;
  std::vector<SessionGolden> Gold(std::begin(Golden), std::end(Golden));
  if (Cfg.InjectBadGolden)
    ++Gold[0].Obligations;
  const std::vector<std::string> &Slugs = sessionSlugs();
  const size_t N = Slugs.size();

  // Set-up: build the sessions and run one warm-up pass, which fills the
  // process-wide intern arenas. Repeated; the last repetition is kept.
  std::vector<VerificationSession> Sessions;
  std::vector<FirstRun> First(N);
  R.Host.sample();
  for (unsigned Rep = 0; Rep != Cfg.SetupReps; ++Rep) {
    Clock::time_point T0 = Clock::now();
    setCorpusModes(Reduced);
    Sessions.clear();
    for (const CaseEntry &Case : allCaseStudies())
      Sessions.push_back(Case.MakeSession());
    for (size_t I = 0; I != N; ++I) {
      SessionRun Run = runSession(Sessions[I], T, false, 0, Slugs[I]);
      if (Rep == 0)
        First[I] = FirstRun{Run.Report.totalChecks(), Run.Configs};
      std::string Why = checkSession(Run, Gold[I], Reduced, First[I]);
      R.op(Why.empty(), "set-up: " + Why);
    }
    R.setupDone(T0);
  }

  // Measured window: whole passes until the time is up.
  std::vector<Timed> Passes;
  std::map<std::string, std::vector<Timed>> SlugRuns;
  std::vector<SessionReport> Reports;
  OverheadProbe Probe;
  CounterSnapshot Before = CounterSnapshot::take();
  Clock::time_point Start = Clock::now();
  for (uint64_t Pass = 0; Pass == 0 || msSince(Start) < Cfg.Seconds * 1000;
       ++Pass) {
    bool Traced = Cfg.Trace && Pass % 2 == 0;
    std::vector<SessionRun> Runs(N);
    double Ms;
    {
      Span P(T, Traced, "pass", 0, Reduced ? "reduced" : "full");
      Clock::time_point T0 = Clock::now();
      for (size_t I : corpusOrder(Cfg.Seed, Pass))
        Runs[I] = runSession(Sessions[I], T, Traced, P.id(), Slugs[I]);
      Ms = msSince(T0);
    }
    Passes.push_back(Timed{Ms, Clock::now()});
    if (Cfg.Trace)
      Probe.add(Traced, Ms);
    for (size_t I = 0; I != N; ++I) {
      std::string Why = checkSession(Runs[I], Gold[I], Reduced, First[I]);
      R.op(Why.empty(), Why);
      SlugRuns[Slugs[I]].push_back(Timed{Runs[I].Ms, Clock::now()});
      Reports.push_back(std::move(Runs[I].Report));
    }
    R.Host.sampleEvery(1.0);
  }
  R.Host.sample();
  CounterSnapshot After = CounterSnapshot::take();

  R.latency("corpus_pass_ms", Passes, 1.0, "ms", true);
  double ScaledMs = 0;
  for (const Timed &P : Passes)
    ScaledMs += R.Host.scaled(P.Ms, P.End);
  R.EndToEnd["throughput_per_s"] = {
      double(N * Passes.size()) / (ScaledMs / 1000.0), "1/s"};
  // Raw per-session times feed the spec layer; the scaled medians are the
  // per-session figures compared across corpus and corpus_reduced.
  std::map<std::string, std::vector<double>> SlugMs;
  for (const auto &[Slug, Runs] : SlugRuns) {
    std::vector<double> Scaled;
    for (const Timed &Run : Runs) {
      SlugMs[Slug].push_back(Run.Ms);
      Scaled.push_back(R.Host.scaled(Run.Ms, Run.End));
    }
    R.line("session_ms_p50.%s = %.3f ms (raw %.3f ms)", Slug.c_str(),
           median(Scaled), median(SlugMs[Slug]));
  }

  if (!Cfg.Trace)
    return R;

  // Per-layer metrics, per pass.
  double NumPasses = double(Passes.size());
  setSpecLayers(R, Reports, NumPasses, SlugMs);
  setCounterLayers(R, Before, After, NumPasses);
  uint64_t FullConfigs = 0;
  for (const SessionGolden &G : Gold)
    FullConfigs += G.Configs;
  double Configs = double(After.Configs - Before.Configs) / NumPasses;
  R.setLayer("prog.configs", Configs);
  R.setLayer("por.configs_ratio", Configs / double(FullConfigs));
  R.line("por.configs_ratio base: %llu configs per full pass",
         static_cast<unsigned long long>(FullConfigs));
  R.setLayer("prog.peak_visited_bytes", double(peakVisitedBytes()));
  EngineCounters Probed;
  if (!probeEngineCounters(Sessions, Probed))
    R.line("note: some obligations are unkeyed; prog.action_steps, "
           "prog.env_steps and prog.dedup_hits omit them");
  R.setLayer("prog.action_steps", double(Probed.ActionSteps));
  R.setLayer("prog.env_steps", double(Probed.EnvSteps));
  R.setLayer("prog.dedup_hits", double(Probed.DedupHits));
  R.setLayer("prog.dedup_ratio",
             Probed.Configs + Probed.DedupHits
                 ? double(Probed.DedupHits) /
                       double(Probed.Configs + Probed.DedupHits)
                 : 0.0);
  std::vector<SessionReport> Last(Reports.end() - N, Reports.end());
  R.setLayer("codec.report_roundtrip_us",
             codecRoundtripUs(R, Last, 50, T));
  setTraceLayers(R, T, Probe, double(Probe.On.size()));
  return R;
}

int pb::printGolden() {
  std::vector<VerificationSession> Sessions;
  for (const CaseEntry &Case : allCaseStudies())
    Sessions.push_back(Case.MakeSession());
  Tracer T;
  for (const VerificationSession &S : Sessions) {
    setCorpusModes(false);
    SessionRun Full = runSession(S, T, false, 0, "");
    setCorpusModes(true);
    SessionRun Red = runSession(S, T, false, 0, "");
    std::printf("    {\"%s\", %llu, %llu, %llu}, // reduced: %llu checks, "
                "%llu configs%s\n",
                Full.Report.Program.c_str(),
                static_cast<unsigned long long>(Full.Report.totalObligations()),
                static_cast<unsigned long long>(Full.Report.totalChecks()),
                static_cast<unsigned long long>(Full.Configs),
                static_cast<unsigned long long>(Red.Report.totalChecks()),
                static_cast<unsigned long long>(Red.Configs),
                Full.Report.AllPassed && Red.Report.AllPassed ? ""
                                                              : " (FAILS)");
  }
  setCorpusModes(false);
  return 0;
}
