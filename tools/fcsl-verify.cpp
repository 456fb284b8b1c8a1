//===- tools/fcsl-verify.cpp - Command-line verification driver ------------===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
// The command-line entry point to the verification suite:
//
//   fcsl-verify list                 list the case studies
//   fcsl-verify verify <name|all>    discharge one (or every) session
//   fcsl-verify table1               regenerate Table 1
//   fcsl-verify table2               regenerate Table 2
//   fcsl-verify fig5 [--dot]         regenerate Figure 5
//
//===----------------------------------------------------------------------===//

#include "cache/Store.h"
#include "concurroid/Registry.h"
#include "prog/Engine.h"
#include "structures/StackIface.h"
#include "structures/Suite.h"
#include "support/Format.h"
#include "support/Intern.h"
#include "support/ThreadPool.h"
#include "ModeFlags.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

using namespace fcsl;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fcsl-verify [--jobs N] [--por MODE] [--symmetry MODE] "
               "[--cache MODE] <command>\n"
               "  list                 list the verifiable case studies\n"
               "  verify <name|all>    run one (or every) verification "
               "session\n"
               "  table1               regenerate the paper's Table 1\n"
               "  table2               regenerate the paper's Table 2\n"
               "  fig5 [--dot]         regenerate the paper's Figure 5\n"
               "\n"
               "  --jobs N             discharge obligations over N worker "
               "threads\n"
               "                       (0 = all hardware threads; default "
               "from FCSL_JOBS, else 1)\n"
               "  --por off|on|dynamic|check|check-dynamic\n"
               "                       partial-order reduction for every "
               "exploration:\n"
               "                       off = full interleaving (default), on "
               "= ample+sleep\n"
               "                       reduction, check = on cross-checked "
               "against the\n"
               "                       plain engine; on declines, running "
               "the plain\n"
               "                       engine, where no action is a "
               "local move; dynamic\n"
               "                       and check-dynamic are spellings of "
               "on and check\n"
               "                       (default from FCSL_POR, else off)\n"
               "  --symmetry off|on|check\n"
               "                       orbit canonicalization of "
               "interchangeable sibling\n"
               "                       threads: off = explore raw configs "
               "(default), on =\n"
               "                       rewrite each config to its orbit "
               "representative,\n"
               "                       check = on cross-checked against "
               "the plain engine\n"
               "                       (default from FCSL_SYMMETRY, else "
               "off); composes\n"
               "                       with --por: with either check mode, "
               "one oracle\n"
               "                       checks both reductions together\n"
               "  --cache off|rw|ro|check\n"
               "                       persistent obligation-verdict cache "
               "(content-addressed\n"
               "                       store in FCSL_CACHE_DIR, default "
               ".fcsl-cache): off =\n"
               "                       discharge everything (default), rw = "
               "serve hits and\n"
               "                       record misses, ro = serve hits, never "
               "write, check =\n"
               "                       re-discharge hits and fail loudly on "
               "any divergence\n"
               "                       (default from FCSL_CACHE, else off)\n"
               "  --stats              after the command, print intern-arena "
               "and visited-set\n"
               "                       statistics (node counts, dedup ratio, "
               "peak bytes)\n");
  return 2;
}

/// Per-structure symmetry accounting, filled by runVerify/runTable1 when
/// both --stats and a non-off symmetry mode are active.
struct CaseSymRecord {
  std::string Name;
  uint64_t Configs = 0; ///< configs explored by this session's runs.
  uint64_t Lookups = 0; ///< canonicalize calls.
  uint64_t Changed = 0; ///< calls whose config was rewritten.
  uint64_t Renames = 0; ///< rewrites that renamed fresh pointers.
  uint64_t Groups = 0;  ///< k-ary orbit groups formed at forks.
};
std::vector<CaseSymRecord> SymPerCase;
bool CollectSymPerCase = false;

/// Per-session obligation-cache traffic (each session report's own cache
/// counters), filled when both --stats and a non-off cache mode are active.
std::vector<std::pair<std::string, cache::CacheStats>> CachePerCase;
bool CollectCachePerCase = false;

/// Runs one session, recording its symmetry deltas and its cache traffic
/// when asked.
SessionReport runCase(const CaseEntry &Case) {
  if (!CollectSymPerCase && !CollectCachePerCase)
    return Case.MakeSession().run();
  SymmetryStats SymBefore = symmetryStats();
  uint64_t ConfigsBefore = totalConfigsExplored();
  SessionReport Report = Case.MakeSession().run();
  if (CollectSymPerCase) {
    SymmetryStats After = symmetryStats();
    SymPerCase.push_back(CaseSymRecord{
        Case.Name, totalConfigsExplored() - ConfigsBefore,
        After.Lookups - SymBefore.Lookups, After.Changed - SymBefore.Changed,
        After.Renames - SymBefore.Renames,
        After.Groups - SymBefore.Groups});
  }
  if (CollectCachePerCase)
    CachePerCase.emplace_back(Case.Name, Report.Cache);
  return Report;
}

/// Prints the canonical-state-layer statistics: per-arena interning
/// counters, the overall dedup ratio, and the engine's visited-set peaks.
void printStats() {
  InternStats Stats = internStats();
  TextTable Table;
  Table.setHeader({"arena", "requests", "nodes", "dedup"});
  for (unsigned I = 1; I <= 3; ++I)
    Table.setRightAligned(I);
  for (const InternTypeStats &S : Stats.PerType) {
    double Ratio = S.Nodes == 0 ? 1.0
                                : static_cast<double>(S.Requests) /
                                      static_cast<double>(S.Nodes);
    Table.addRow({S.Name, std::to_string(S.Requests),
                  std::to_string(S.Nodes), formatString("%.2f", Ratio)});
  }
  Table.addRow({"total", std::to_string(Stats.totalRequests()),
                std::to_string(Stats.totalNodes()),
                formatString("%.2f", Stats.dedupRatio())});
  std::printf("\nintern arenas:\n%s", Table.render().c_str());
  TextTable Cached;
  Cached.setHeader({"computed table", "probes", "hits", "hit rate"});
  for (unsigned I = 1; I <= 3; ++I)
    Cached.setRightAligned(I);
  for (const ComputedTableStats &S : computedTableStats())
    Cached.addRow({S.Name, std::to_string(S.Probes), std::to_string(S.Hits),
                   formatString("%.2f", S.Probes == 0
                                            ? 0.0
                                            : static_cast<double>(S.Hits) /
                                                  static_cast<double>(
                                                      S.Probes))});
  std::printf("computed tables (hits skip the arenas):\n%s",
              Cached.render().c_str());
  std::printf("peak visited set: %llu configs, %llu bytes\n",
              static_cast<unsigned long long>(peakVisitedNodes()),
              static_cast<unsigned long long>(peakVisitedBytes()));

  SymmetryStats Sym = symmetryStats();
  if (Sym.Lookups > 0) {
    std::printf("orbit lookups: %llu, %llu canonicalized, %llu "
                "pointer-renamed; %llu k-ary groups (peak size %llu)\n",
                static_cast<unsigned long long>(Sym.Lookups),
                static_cast<unsigned long long>(Sym.Changed),
                static_cast<unsigned long long>(Sym.Renames),
                static_cast<unsigned long long>(Sym.Groups),
                static_cast<unsigned long long>(Sym.GroupPeak));
    if (!SymPerCase.empty()) {
      TextTable Orbits;
      Orbits.setHeader({"structure", "configs", "lookups", "canonicalized",
                        "renamed", "groups", "est. orbit size"});
      for (unsigned I = 1; I <= 6; ++I)
        Orbits.setRightAligned(I);
      for (const CaseSymRecord &R : SymPerCase) {
        // With orbits of mean size k, k-1 of every k probed raw configs
        // rewrite to the representative, so lookups/(lookups-changed)
        // estimates k. Exact only under the oracle (plain vs reduced).
        double Est = R.Lookups > R.Changed
                         ? static_cast<double>(R.Lookups) /
                               static_cast<double>(R.Lookups - R.Changed)
                         : 1.0;
        Orbits.addRow({R.Name, std::to_string(R.Configs),
                       std::to_string(R.Lookups),
                       std::to_string(R.Changed), std::to_string(R.Renames),
                       std::to_string(R.Groups),
                       formatString("%.2f", Est)});
      }
      std::printf("per-structure orbits:\n%s", Orbits.render().c_str());
    }
  }

  PorStats Por = porStats();
  if (Por.WakeupReplays + Por.SleepHits + Por.FullExpansions +
          Por.Declined >
      0)
    std::printf("por: %llu wakeup replays (peak %llu), %llu sleep-set hits, "
                "%llu full expansions, %llu explorations declined\n",
                static_cast<unsigned long long>(Por.WakeupReplays),
                static_cast<unsigned long long>(Por.WakeupPeak),
                static_cast<unsigned long long>(Por.SleepHits),
                static_cast<unsigned long long>(Por.FullExpansions),
                static_cast<unsigned long long>(Por.Declined));

  cache::CacheStats Cache = cache::cacheStats();
  if (Cache.Hits + Cache.Misses + Cache.Unkeyed > 0) {
    std::printf("obligation cache (%s): %llu hits, %llu misses (%llu stale "
                "by flag), %llu stored, %llu unkeyed\n",
                cache::cacheModeName(cache::defaultCacheMode()),
                static_cast<unsigned long long>(Cache.Hits),
                static_cast<unsigned long long>(Cache.Misses),
                static_cast<unsigned long long>(Cache.StaleFlags),
                static_cast<unsigned long long>(Cache.Stores),
                static_cast<unsigned long long>(Cache.Unkeyed));
    if (Cache.Hits > 0)
      std::printf("  replayed from store: %llu checks, %llu configs, "
                  "%.1f ms of cold discharge avoided\n",
                  static_cast<unsigned long long>(Cache.ReplayedChecks),
                  static_cast<unsigned long long>(Cache.ReplayedConfigs),
                  static_cast<double>(Cache.ReplayedUs) / 1000.0);
    if (Cache.CheckRuns > 0)
      std::printf("  cache cross-check: %llu hits re-discharged, %llu "
                  "divergences\n",
                  static_cast<unsigned long long>(Cache.CheckRuns),
                  static_cast<unsigned long long>(Cache.Divergences));
    if (const cache::Store *S = cache::activeStore())
      std::printf("  store: %s (%zu records, %llu bytes)\n",
                  S->path().c_str(), S->records(),
                  static_cast<unsigned long long>(S->fileBytes()));
    if (!CachePerCase.empty()) {
      TextTable Tbl;
      Tbl.setHeader({"structure", "hits", "misses", "stale-flag", "stored",
                     "unkeyed"});
      for (unsigned I = 1; I <= 5; ++I)
        Tbl.setRightAligned(I);
      for (const auto &[Name, R] : CachePerCase)
        Tbl.addRow({Name, std::to_string(R.Hits), std::to_string(R.Misses),
                    std::to_string(R.StaleFlags), std::to_string(R.Stores),
                    std::to_string(R.Unkeyed)});
      std::printf("per-structure cache traffic:\n%s", Tbl.render().c_str());
    }
  }

}

/// All sessions: the paper's eleven plus the abstract-stack extension.
std::vector<CaseEntry> allSessions() { return allVerifiableSessions(); }

int runList() {
  for (const CaseEntry &Case : allSessions())
    std::printf("%s\n", Case.Name.c_str());
  return 0;
}

int reportSession(const SessionReport &Report) {
  // Shared with fcsl-client (spec/Session.h) so a daemon round-trip
  // prints byte-identically to a direct run.
  std::fputs(renderSessionReport(Report).c_str(), stdout);
  return Report.AllPassed ? 0 : 1;
}

int runVerify(const char *Name) {
  bool All = std::strcmp(Name, "all") == 0;
  bool Found = false;
  int Status = 0;
  for (const CaseEntry &Case : allSessions()) {
    if (!All && Case.Name != Name)
      continue;
    Found = true;
    Status |= reportSession(runCase(Case));
    std::printf("\n");
  }
  if (!Found) {
    std::fprintf(stderr, "error: unknown case study '%s'; try 'list'\n",
                 Name);
    return 2;
  }
  return Status;
}

int runTable1() {
  TextTable Table;
  Table.setHeader({"Program", "Libs", "Conc", "Acts", "Stab", "Main",
                   "Total", "Checks", "ms"});
  for (unsigned I = 1; I <= 8; ++I)
    Table.setRightAligned(I);
  bool AllPassed = true;
  for (const CaseEntry &Case : allCaseStudies()) {
    SessionReport Report = runCase(Case);
    AllPassed &= Report.AllPassed;
    auto Cell = [&](ObCategory C) -> std::string {
      uint64_t N = Report.PerCategory[size_t(C)].Obligations;
      return N == 0 ? "-" : std::to_string(N);
    };
    Table.addRow({Report.Program, Cell(ObCategory::Libs),
                  Cell(ObCategory::Conc), Cell(ObCategory::Acts),
                  Cell(ObCategory::Stab), Cell(ObCategory::Main),
                  std::to_string(Report.totalObligations()),
                  std::to_string(Report.totalChecks()),
                  formatString("%.0f", Report.TotalMs)});
  }
  std::printf("%s", Table.render().c_str());
  return AllPassed ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  // Strip the option flags (anywhere on the line) before command
  // dispatch; --jobs sets the process-default job count picked up by every
  // session and engine invocation with Jobs = 0, and --stats prints the
  // canonical-state-layer counters after the command finishes.
  std::vector<char *> Args;
  bool Stats = false;
  if (int Bad = validateEnv())
    return Bad;
  // Flags taking a value, spelled `--flag VALUE` or `--flag=VALUE`.
  const std::pair<const char *, bool (*)(const char *)> ValueFlags[] = {
      {"--por",
       [](const char *T) {
         return applyMode(T, parsePorMode, setDefaultPorMode);
       }},
      {"--symmetry",
       [](const char *T) {
         return applyMode(T, parseSymMode, setDefaultSymmetryMode);
       }},
      {"--cache",
       [](const char *T) {
         return applyMode(T, cache::parseCacheMode,
                          cache::setDefaultCacheMode);
       }},
  };
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--jobs") == 0) {
      if (I + 1 >= Argc)
        return usage();
      char *End = nullptr;
      long N = std::strtol(Argv[++I], &End, 10);
      if (End == Argv[I] || *End != '\0' || N < 0)
        return usage();
      setDefaultJobs(static_cast<unsigned>(N));
      continue;
    }
    if (std::strcmp(Argv[I], "--stats") == 0) {
      Stats = true;
      continue;
    }
    bool Matched = false;
    for (const auto &[Flag, Apply] : ValueFlags) {
      size_t Len = std::strlen(Flag);
      if (std::strncmp(Argv[I], Flag, Len) != 0 ||
          (Argv[I][Len] != '=' && Argv[I][Len] != '\0'))
        continue;
      const char *Value = Argv[I] + Len + 1;
      if (Argv[I][Len] == '\0') {
        if (I + 1 >= Argc)
          return usage();
        Value = Argv[++I];
      }
      if (!Apply(Value))
        return usage();
      Matched = true;
      break;
    }
    if (!Matched)
      Args.push_back(Argv[I]);
  }
  // A mode may come from the flag or from FCSL_POR / FCSL_SYMMETRY;
  // resolve once so the oracle summary and the per-structure tables
  // follow either spelling.
  ReductionModes Modes =
      resolveModes(defaultPorMode(), defaultSymmetryMode());
  CollectSymPerCase = Stats && Modes.Sym == SymMode::On;
  CollectCachePerCase =
      Stats && cache::defaultCacheMode() != cache::CacheMode::Off;
  Argc = static_cast<int>(Args.size()) + 1;
  if (Argc < 2)
    return usage();
  const char *Cmd = Args[0];
  int Status = 2;
  if (std::strcmp(Cmd, "list") == 0) {
    Status = runList();
  } else if (std::strcmp(Cmd, "verify") == 0) {
    Status = Argc >= 3 ? runVerify(Args[1]) : usage();
  } else if (std::strcmp(Cmd, "table1") == 0) {
    Status = runTable1();
  } else if (std::strcmp(Cmd, "table2") == 0) {
    registerAllLibraries();
    std::printf("%s", globalRegistry().renderTable2().c_str());
    Status = 0;
  } else if (std::strcmp(Cmd, "fig5") == 0) {
    registerAllLibraries();
    DotGraph G = globalRegistry().dependencyGraph();
    bool Dot = Argc >= 3 && std::strcmp(Args[1], "--dot") == 0;
    std::printf("%s", Dot ? G.render().c_str() : G.renderAscii().c_str());
    Status = 0;
  } else {
    return usage();
  }
  OracleTotals Oracle = oracleTotals();
  if (Modes.Oracle && Oracle.Runs > 0)
    std::printf("\nreduction oracle (por=%s symmetry=%s): %llu runs, %llu "
                "plain configs vs %llu reduced (ratio %.3f), %llu "
                "mismatches\n",
                porModeName(Modes.Por), symModeName(Modes.Sym),
                static_cast<unsigned long long>(Oracle.Runs),
                static_cast<unsigned long long>(Oracle.PlainConfigs),
                static_cast<unsigned long long>(Oracle.ReducedConfigs),
                Oracle.PlainConfigs
                    ? static_cast<double>(Oracle.ReducedConfigs) /
                          static_cast<double>(Oracle.PlainConfigs)
                    : 1.0,
                static_cast<unsigned long long>(Oracle.Mismatches));
  if (Stats)
    printStats();
  return Status;
}
