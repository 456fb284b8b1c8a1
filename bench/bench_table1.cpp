//===- bench/bench_table1.cpp - Regenerate Table 1 -------------------------===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
// Regenerates the paper's Table 1 ("Statistics for implemented programs").
// The paper reports lines of proof script per category and Coq build
// times; the mechanical counterpart here is the number of discharged
// proof obligations and elementary checks per category, plus wall-clock
// verification time. The *shape* to compare: which cells are `-` (no
// program-specific concurroid/actions/stability lemmas needed), and the
// relative cost ordering of the programs.
//
// Each suite is discharged six times — serially (Jobs=1), with parallel
// obligation discharge (Jobs=4), serially with partial-order reduction,
// serially under symmetry reduction, and finally cold + warm against a
// fresh obligation store (src/cache/)
// — and then twice more through the verification service (src/service/).
// Every cell but the two cold ones (a store is cold only once) runs five
// times and records its median time, so one preempted run on a shared
// host does not move a cell; a repeat whose verdicts, obligation and
// check counts, or explored configurations differ from the first run's
// fails the bench. The service round-trips follow:
// an engine-backed daemon round-trip and a warm store-backed one, so the
// client-observed request latency of both paths is tracked. All timings
// land in BENCH_table1.json so the speedup from the multi-worker engine,
// the state-space savings from the reductions, the replay win of the
// verdict cache, and the service round-trip overhead are tracked across
// PRs.
//
//===----------------------------------------------------------------------===//

#include "cache/Store.h"
#include "prog/Engine.h"
#include "service/Client.h"
#include "service/Server.h"
#include "structures/Suite.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <unistd.h>

using namespace fcsl;

namespace {

/// One Table-1 row. Times are medians over the cell's repeats (the cold
/// cells run once).
struct ProgramRow {
  std::string Program;
  uint64_t Obligations = 0;
  uint64_t Checks = 0;
  double SerialMs = 0.0;   ///< Jobs=1 discharge (the "before").
  double ParallelMs = 0.0; ///< Jobs=4 discharge (the "after").
  double PorMs = 0.0;      ///< Jobs=1 discharge under static reduction.
  double SymMs = 0.0;      ///< Jobs=1 discharge under symmetry reduction.
  double ColdMs = 0.0;     ///< Jobs=1 discharge into an empty store.
  double WarmMs = 0.0;     ///< Jobs=1 replay against the populated store.
  uint64_t CacheHits = 0;  ///< obligations the warm run served from it.
  double AllOnColdMs = 0.0; ///< POR + symmetry + rw store, cold.
  double AllOnWarmMs = 0.0; ///< same composed flags, fully-warm replay.
  uint64_t AllOnHits = 0;   ///< obligations the composed warm run replayed.
  uint64_t ConfigsFull = 0;    ///< configs explored by the serial run.
  uint64_t ConfigsReduced = 0; ///< configs explored under static POR.
  uint64_t ConfigsCanonical = 0; ///< configs explored under symmetry.
  /// Explorations per POR run that declined POR (no statically local
  /// action, DESIGN.md §9) and ran the plain engine.
  uint64_t PorDeclined = 0;
};

/// Runs per timed cell; the cell's time is their median.
constexpr unsigned Repeats = 5;

/// One (session, mode) cell: the first run's report and explored
/// configurations, and the median wall time over the repeats.
struct Cell {
  SessionReport Report;
  uint64_t Configs = 0;
  double Ms = 0.0;
};

/// Discharges \p Case's session \p N times at \p Jobs under the modes
/// the caller set. Any repeat whose counts differ from the first run's
/// is recorded in \p Failures under \p Mode.
Cell runCell(const CaseEntry &Case, unsigned Jobs, const char *Mode,
             std::vector<std::string> &Failures, unsigned N = Repeats) {
  Cell C;
  std::vector<double> Ms;
  for (unsigned I = 0; I != N; ++I) {
    uint64_t Configs0 = totalConfigsExplored();
    SessionReport R = Case.MakeSession().run(Jobs);
    uint64_t Configs = totalConfigsExplored() - Configs0;
    Ms.push_back(R.TotalMs);
    if (I == 0) {
      C.Report = std::move(R);
      C.Configs = Configs;
    } else if (R.AllPassed != C.Report.AllPassed ||
               R.totalObligations() != C.Report.totalObligations() ||
               R.totalChecks() != C.Report.totalChecks() ||
               Configs != C.Configs) {
      Failures.push_back(formatString(
          "%s (%s): repeat %u counts differ from the first run's",
          C.Report.Program.c_str(), Mode, I + 1));
    }
  }
  std::sort(Ms.begin(), Ms.end());
  C.Ms = Ms[N / 2];
  return C;
}

} // namespace

int main() {
  std::printf("Table 1: per-program verification statistics\n");
  std::printf("(obligations discharged per category; the paper's LOC "
              "columns become\n");
  std::printf(" obligation/check counts, its Coq build time becomes "
              "verification time)\n\n");

  TextTable Table;
  Table.setHeader({"Program", "Libs", "Conc", "Acts", "Stab", "Main",
                   "Total", "Checks", "Jobs=1", "Jobs=4", "POR", "Symm",
                   "Warm", "AllOn"});
  for (unsigned I = 1; I <= 13; ++I)
    Table.setRightAligned(I);

  bool AllPassed = true;
  std::vector<std::string> Failures;
  std::vector<ProgramRow> Rows;
  double SerialTotalMs = 0;
  double ParallelTotalMs = 0;
  double PorTotalMs = 0;
  double SymTotalMs = 0;
  uint64_t ConfigsFullTotal = 0;
  uint64_t ConfigsReducedTotal = 0;
  uint64_t ConfigsCanonicalTotal = 0;
  double ColdTotalMs = 0;
  double WarmTotalMs = 0;
  uint64_t CacheHitsTotal = 0;
  double AllOnColdTotalMs = 0;
  double AllOnWarmTotalMs = 0;
  const unsigned ParJobs = 4;

  // A throwaway store directory so the bench never reads a stale verdict
  // from a previous run — the cold/warm pair measures this binary only.
  char CacheDirTemplate[] = "/tmp/fcsl-bench-cache-XXXXXX";
  const char *CacheDir = mkdtemp(CacheDirTemplate);
  if (CacheDir)
    cache::setCacheDir(CacheDir);

  for (const CaseEntry &Case : allCaseStudies()) {
    Cell Serial = runCell(Case, /*Jobs=*/1, "serial", Failures);
    const SessionReport &Report = Serial.Report;
    AllPassed &= Report.AllPassed;
    for (const std::string &F : Report.Failures)
      Failures.push_back(F);
    SerialTotalMs += Serial.Ms;
    ConfigsFullTotal += Serial.Configs;

    // Parallel discharge of the same obligations must agree verdict for
    // verdict; its wall-clock is the "after" column.
    Cell Par = runCell(Case, ParJobs, "parallel", Failures);
    AllPassed &= Par.Report.AllPassed == Report.AllPassed &&
                 Par.Report.totalObligations() == Report.totalObligations() &&
                 Par.Report.totalChecks() == Report.totalChecks();
    ParallelTotalMs += Par.Ms;

    // Serial discharge again under partial-order reduction: same
    // verdicts, fewer explored configurations, or the plain engine's
    // where POR declines.
    setDefaultPorMode(PorMode::On);
    uint64_t Declined0 = porStats().Declined;
    Cell Por = runCell(Case, /*Jobs=*/1, "por", Failures);
    uint64_t PorDeclined = (porStats().Declined - Declined0) / Repeats;
    setDefaultPorMode(PorMode::Off);
    AllPassed &= Por.Report.AllPassed == Report.AllPassed &&
                 Por.Report.totalObligations() == Report.totalObligations();
    PorTotalMs += Por.Ms;
    ConfigsReducedTotal += Por.Configs;

    // Serial discharge under symmetry reduction: identical verdicts over
    // the orbit-canonicalized state space (DESIGN.md §11).
    setDefaultSymmetryMode(SymMode::On);
    Cell Sym = runCell(Case, /*Jobs=*/1, "symmetry", Failures);
    setDefaultSymmetryMode(SymMode::Off);
    AllPassed &= Sym.Report.AllPassed == Report.AllPassed &&
                 Sym.Report.totalObligations() == Report.totalObligations();
    SymTotalMs += Sym.Ms;
    ConfigsCanonicalTotal += Sym.Configs;

    // Cold + warm against the obligation store: the cold run discharges
    // and appends, every warm rerun must replay every verdict from disk.
    cache::setDefaultCacheMode(cache::CacheMode::Rw);
    Cell Cold = runCell(Case, /*Jobs=*/1, "cache cold", Failures, 1);
    cache::CacheStats Cache0 = cache::cacheStats();
    Cell Warm = runCell(Case, /*Jobs=*/1, "cache warm", Failures);
    cache::CacheStats Cache1 = cache::cacheStats();
    cache::setDefaultCacheMode(cache::CacheMode::Off);
    uint64_t WarmHits = (Cache1.Hits - Cache0.Hits) / Repeats;
    AllPassed &= Cold.Report.AllPassed == Report.AllPassed &&
                 Warm.Report.AllPassed == Report.AllPassed &&
                 Warm.Report.totalObligations() == Report.totalObligations() &&
                 Warm.Report.totalChecks() == Report.totalChecks() &&
                 Cache1.Hits - Cache0.Hits ==
                     Repeats * Warm.Report.totalObligations();
    ColdTotalMs += Cold.Ms;
    WarmTotalMs += Warm.Ms;
    CacheHitsTotal += WarmHits;

    // Everything composed at once — POR, symmetry reduction and
    // the rw verdict store, the flags a user stacks in practice. The
    // store key includes the engine-flags fingerprint, so the first pass
    // discharges (and records) under the composed flags and the repeats
    // after it must replay every verdict warm.
    setDefaultPorMode(PorMode::On);
    setDefaultSymmetryMode(SymMode::On);
    cache::setDefaultCacheMode(cache::CacheMode::Rw);
    Cell AllOnCold = runCell(Case, /*Jobs=*/1, "all-on cold", Failures, 1);
    cache::CacheStats AllOn0 = cache::cacheStats();
    Cell AllOn = runCell(Case, /*Jobs=*/1, "all-on warm", Failures);
    cache::CacheStats AllOn1 = cache::cacheStats();
    cache::setDefaultCacheMode(cache::CacheMode::Off);
    setDefaultSymmetryMode(SymMode::Off);
    setDefaultPorMode(PorMode::Off);
    uint64_t AllOnHits = (AllOn1.Hits - AllOn0.Hits) / Repeats;
    AllPassed &= AllOnCold.Report.AllPassed == Report.AllPassed &&
                 AllOn.Report.AllPassed == Report.AllPassed &&
                 AllOn.Report.totalObligations() ==
                     Report.totalObligations() &&
                 AllOn1.Hits - AllOn0.Hits ==
                     Repeats * AllOn.Report.totalObligations();
    AllOnColdTotalMs += AllOnCold.Ms;
    AllOnWarmTotalMs += AllOn.Ms;

    auto CatCell = [&](ObCategory C) -> std::string {
      uint64_t N = Report.PerCategory[size_t(C)].Obligations;
      return N == 0 ? "-" : std::to_string(N);
    };
    Table.addRow({Report.Program, CatCell(ObCategory::Libs),
                  CatCell(ObCategory::Conc), CatCell(ObCategory::Acts),
                  CatCell(ObCategory::Stab), CatCell(ObCategory::Main),
                  std::to_string(Report.totalObligations()),
                  std::to_string(Report.totalChecks()),
                  formatString("%.0f ms", Serial.Ms),
                  formatString("%.0f ms", Par.Ms),
                  formatString("%.0f ms", Por.Ms),
                  formatString("%.0f ms", Sym.Ms),
                  formatString("%.0f ms", Warm.Ms),
                  formatString("%.0f ms", AllOn.Ms)});
    Rows.push_back(ProgramRow{Report.Program, Report.totalObligations(),
                              Report.totalChecks(), Serial.Ms, Par.Ms,
                              Por.Ms, Sym.Ms, Cold.Ms, Warm.Ms, WarmHits,
                              AllOnCold.Ms, AllOn.Ms, AllOnHits,
                              Serial.Configs, Por.Configs, Sym.Configs,
                              PorDeclined});
  }

  // Reduction floors the symmetry layer must hold (DESIGN.md §11): the
  // CG increment session's 3-ary par spine keeps folding its 3!
  // schedules, and at least two sessions beyond the baseline reducers
  // benefit from the terminal pointer abstraction.
  for (const ProgramRow &R : Rows)
    if (R.Program == "CG increment") {
      double Ratio = R.ConfigsFull
                         ? double(R.ConfigsCanonical) / double(R.ConfigsFull)
                         : 1.0;
      if (Ratio > 0.70) {
        AllPassed = false;
        Failures.push_back(formatString(
            "CG increment orbit ratio %.3f above the 0.70 floor", Ratio));
      }
    }

  std::printf("%s\n", Table.render().c_str());
  std::printf("total verification time: %.1f ms serial, %.1f ms at "
              "%u jobs, %.1f ms serial with partial-order reduction, "
              "%.1f ms under symmetry reduction "
              "(paper: 27m31s of Coq compilation on a 2.7 GHz Core i7)\n",
              SerialTotalMs, ParallelTotalMs, ParJobs, PorTotalMs,
              SymTotalMs);
  std::printf("obligation cache: %.1f ms cold (discharge + store), "
              "%.1f ms warm (%llu verdicts replayed from the store)\n",
              ColdTotalMs, WarmTotalMs,
              static_cast<unsigned long long>(CacheHitsTotal));
  std::printf("all reductions composed (--por=on --symmetry=on "
              "--cache=rw): %.1f ms cold, %.1f ms warm\n",
              AllOnColdTotalMs, AllOnWarmTotalMs);
  std::printf("state space: %llu configs full, %llu reduced (ratio "
              "%.3f), %llu canonical (orbit ratio %.3f)\n\n",
              static_cast<unsigned long long>(ConfigsFullTotal),
              static_cast<unsigned long long>(ConfigsReducedTotal),
              ConfigsFullTotal
                  ? double(ConfigsReducedTotal) / double(ConfigsFullTotal)
                  : 1.0,
              static_cast<unsigned long long>(ConfigsCanonicalTotal),
              ConfigsFullTotal
                  ? double(ConfigsCanonicalTotal) / double(ConfigsFullTotal)
                  : 1.0);

  // Verification-service round-trips over the store populated above: an
  // engine-backed request (--cache=off daemon-side, the "cold" path) and
  // a warm store-backed request the daemon answers from its in-memory
  // index without invoking the engine.
  double SvcEngineMs = 0.0, SvcWarmMs = 0.0;
  uint64_t SvcWarmServes = 0;
  double SvcWarmSessionsPerSec = 0.0;
  {
    using Clock = std::chrono::steady_clock;
    auto MsSince = [](Clock::time_point T0) {
      return std::chrono::duration<double, std::milli>(Clock::now() - T0)
          .count();
    };
    cache::setDefaultCacheMode(cache::CacheMode::Rw);
    cache::resetActiveStore(); // reopen the warm store for the daemon.
    service::ServerOptions SOpts;
    SOpts.SocketPath =
        std::string(CacheDir ? CacheDir : "/tmp") + "/bench.sock";
    service::Server Daemon(SOpts);
    if (Daemon.start()) {
      service::ServiceClient Client(SOpts.SocketPath);
      if (Client.ok()) {
        for (const CaseEntry &Case : allCaseStudies()) {
          Clock::time_point T0 = Clock::now();
          auto Engine = Client.submit(Case.Name, /*Por=*/1, /*Symmetry=*/1,
                                      /*Cache=*/1); // cache off: engine runs.
          SvcEngineMs += MsSince(T0);
          T0 = Clock::now();
          auto Warm = Client.submit(Case.Name, /*Por=*/1, /*Symmetry=*/1,
                                    /*Cache=*/2); // cache rw: warm serve.
          SvcWarmMs += MsSince(T0);
          AllPassed &= Engine && Engine->Ok && !Engine->ServedFromCache &&
                       Warm && Warm->Ok && Warm->ServedFromCache;
        }
        // Warm throughput: hammer the daemon with store-served requests.
        Clock::time_point T0 = Clock::now();
        for (int Round = 0; Round != 3; ++Round)
          for (const CaseEntry &Case : allCaseStudies()) {
            auto R = Client.submit(Case.Name, 1, 1, 2);
            AllPassed &= R && R->Ok && R->ServedFromCache;
            ++SvcWarmServes;
          }
        double Secs = MsSince(T0) / 1000.0;
        SvcWarmSessionsPerSec = Secs > 0 ? SvcWarmServes / Secs : 0.0;
        Client.shutdown();
      }
      Daemon.wait();
    }
    cache::setDefaultCacheMode(cache::CacheMode::Off);
  }
  std::printf("service: %.1f ms engine-backed round-trips, %.1f ms warm "
              "store-backed (%.0f us/request), %.0f warm sessions/sec\n\n",
              SvcEngineMs, SvcWarmMs,
              1000.0 * SvcWarmMs / double(allCaseStudies().size()),
              SvcWarmSessionsPerSec);

  std::printf("shape checks against the paper's table:\n");
  std::printf("  - CG increment/CG allocator/Seq. stack/FC-stack/Prod/Cons "
              "have '-' Conc/Acts/Stab cells: %s\n",
              AllPassed ? "see rows above" : "n/a");
  std::printf("  - every lock/stack/snapshot/span/FC row populates all "
              "categories\n");

  // Machine-readable before/after for cross-PR perf tracking.
  if (std::FILE *F = std::fopen("BENCH_table1.json", "w")) {
    std::fprintf(F, "{\n  \"bench\": \"table1\",\n");
    std::fprintf(F, "  \"hardware_concurrency\": %u,\n", hardwareJobs());
    std::fprintf(F, "  \"parallel_jobs\": %u,\n", ParJobs);
    std::fprintf(F, "  \"repeats\": %u,\n", Repeats);
    std::fprintf(F, "  \"programs\": [\n");
    for (size_t I = 0; I != Rows.size(); ++I) {
      const ProgramRow &R = Rows[I];
      double Speedup = R.ParallelMs > 0 ? R.SerialMs / R.ParallelMs : 1.0;
      std::fprintf(F,
                   "    {\"program\": \"%s\", \"obligations\": %llu, "
                   "\"checks\": %llu, \"serial_ms\": %.2f, "
                   "\"parallel_ms\": %.2f, \"speedup\": %.3f, "
                   "\"por_ms\": %.2f, \"configs_full\": %llu, "
                   "\"configs_reduced\": %llu, \"por_ratio\": %.3f, "
                   "\"por_declined\": %llu, "
                   "\"symmetry_ms\": %.2f, \"configs_canonical\": %llu, "
                   "\"orbit_ratio\": %.3f, "
                   "\"cache_cold_ms\": %.2f, \"cache_warm_ms\": %.2f, "
                   "\"cache_hits\": %llu, "
                   "\"allon_cold_ms\": %.2f, \"allon_warm_ms\": %.2f, "
                   "\"allon_cache_hits\": %llu}%s\n",
                   R.Program.c_str(),
                   static_cast<unsigned long long>(R.Obligations),
                   static_cast<unsigned long long>(R.Checks), R.SerialMs,
                   R.ParallelMs, Speedup, R.PorMs,
                   static_cast<unsigned long long>(R.ConfigsFull),
                   static_cast<unsigned long long>(R.ConfigsReduced),
                   R.ConfigsFull
                       ? double(R.ConfigsReduced) / double(R.ConfigsFull)
                       : 1.0,
                   static_cast<unsigned long long>(R.PorDeclined), R.SymMs,
                   static_cast<unsigned long long>(R.ConfigsCanonical),
                   R.ConfigsFull
                       ? double(R.ConfigsCanonical) / double(R.ConfigsFull)
                       : 1.0,
                   R.ColdMs, R.WarmMs,
                   static_cast<unsigned long long>(R.CacheHits),
                   R.AllOnColdMs, R.AllOnWarmMs,
                   static_cast<unsigned long long>(R.AllOnHits),
                   I + 1 == Rows.size() ? "" : ",");
    }
    std::fprintf(F, "  ],\n");
    SymmetryStats Orbit = symmetryStats();
    std::fprintf(F,
                 "  \"symmetry\": {\"ms\": %.2f, \"configs_full\": %llu, "
                 "\"configs_canonical\": %llu, \"orbit_ratio\": %.3f, "
                 "\"orbit_lookups\": %llu, "
                 "\"orbit_canonicalized\": %llu},\n",
                 SymTotalMs,
                 static_cast<unsigned long long>(ConfigsFullTotal),
                 static_cast<unsigned long long>(ConfigsCanonicalTotal),
                 ConfigsFullTotal
                     ? double(ConfigsCanonicalTotal) /
                           double(ConfigsFullTotal)
                     : 1.0,
                 static_cast<unsigned long long>(Orbit.Lookups),
                 static_cast<unsigned long long>(Orbit.Changed));
    uint64_t StoreRecords = 0, StoreBytes = 0;
    cache::setDefaultCacheMode(cache::CacheMode::Ro);
    if (cache::Store *S = cache::activeStore()) {
      StoreRecords = S->records();
      StoreBytes = S->fileBytes();
    }
    cache::setDefaultCacheMode(cache::CacheMode::Off);
    std::fprintf(F,
                 "  \"cache\": {\"cold_ms\": %.2f, \"warm_ms\": %.2f, "
                 "\"replay_speedup\": %.3f, \"hits\": %llu, "
                 "\"store_records\": %llu, \"store_bytes\": %llu},\n",
                 ColdTotalMs, WarmTotalMs,
                 WarmTotalMs > 0 ? ColdTotalMs / WarmTotalMs : 1.0,
                 static_cast<unsigned long long>(CacheHitsTotal),
                 static_cast<unsigned long long>(StoreRecords),
                 static_cast<unsigned long long>(StoreBytes));
    std::fprintf(F,
                 "  \"allon\": {\"cold_ms\": %.2f, \"warm_ms\": %.2f},\n",
                 AllOnColdTotalMs, AllOnWarmTotalMs);
    std::fprintf(F,
                 "  \"service\": {\"engine_roundtrip_ms\": %.2f, "
                 "\"warm_roundtrip_ms\": %.2f, "
                 "\"warm_roundtrip_us_mean\": %.1f, "
                 "\"warm_serves\": %llu, "
                 "\"warm_sessions_per_sec\": %.1f},\n",
                 SvcEngineMs, SvcWarmMs,
                 1000.0 * SvcWarmMs / double(allCaseStudies().size()),
                 static_cast<unsigned long long>(SvcWarmServes),
                 SvcWarmSessionsPerSec);
    std::fprintf(F,
                 "  \"total\": {\"serial_ms\": %.2f, \"parallel_ms\": "
                 "%.2f, \"speedup\": %.3f, \"por_ms\": %.2f, "
                 "\"symmetry_ms\": %.2f, "
                 "\"configs_full\": %llu, \"configs_reduced\": %llu, "
                 "\"por_ratio\": %.3f}\n}\n",
                 SerialTotalMs, ParallelTotalMs,
                 ParallelTotalMs > 0 ? SerialTotalMs / ParallelTotalMs
                                     : 1.0,
                 PorTotalMs, SymTotalMs,
                 static_cast<unsigned long long>(ConfigsFullTotal),
                 static_cast<unsigned long long>(ConfigsReducedTotal),
                 ConfigsFullTotal
                     ? double(ConfigsReducedTotal) /
                           double(ConfigsFullTotal)
                     : 1.0);
    std::fclose(F);
    std::printf("wrote BENCH_table1.json\n");
  }

  if (CacheDir) {
    cache::resetActiveStore();
    std::remove((std::string(CacheDir) + "/obligations.fcslcache").c_str());
    ::rmdir(CacheDir);
  }

  if (!AllPassed) {
    std::printf("\nFAILURES:\n");
    for (const std::string &F : Failures)
      std::printf("  %s\n", F.c_str());
    return 1;
  }
  std::printf("\nall %zu case studies verified.\n",
              allCaseStudies().size());
  return 0;
}
