//===- spec/Session.cpp - Content-addressed proof-unit scheduler -----------===//
//
// Part of fcsl-cpp. See Session.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "spec/Session.h"

#include "prog/Engine.h"

#include "support/Format.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <mutex>

using namespace fcsl;

const char *fcsl::obCategoryName(ObCategory C) {
  switch (C) {
  case ObCategory::Libs:
    return "Libs";
  case ObCategory::Conc:
    return "Conc";
  case ObCategory::Acts:
    return "Acts";
  case ObCategory::Stab:
    return "Stab";
  case ObCategory::Main:
    return "Main";
  }
  assert(false && "unknown obligation category");
  return "<?>";
}

uint64_t fcsl::engineFlagsFingerprintFor(PorMode Por, SymMode Sym) {
  // The aliases hash as what they spell, so a `dynamic` run shares store
  // records with `on` (and `check-dynamic` with `check`).
  Por = canonicalPorMode(Por);
  uint64_t Fp = fpString("fcsl-engine-flags");
  Fp = fpCombine(Fp, static_cast<uint64_t>(Por));
  Fp = fpCombine(Fp, static_cast<uint64_t>(Sym));
  // Oracle modes return the plain run's counters, where the earlier
  // per-reduction harnesses returned a partly reduced run's: salted so
  // their old records go stale instead of tripping --cache=check. Every
  // other mode keeps its fingerprint (and its warm store records).
  if (Por == PorMode::Check || Sym == SymMode::Check)
    Fp = fpCombine(Fp, fpString("single-oracle"));
  return Fp;
}

uint64_t fcsl::engineFlagsFingerprint() {
  return engineFlagsFingerprintFor(defaultPorMode(), defaultSymmetryMode());
}

ResolvedModes ResolvedModes::defaults() {
  return {defaultPorMode(), defaultSymmetryMode(), cache::defaultCacheMode()};
}

std::string fcsl::renderSessionReport(const SessionReport &R) {
  TextTable Table;
  Table.setHeader({"category", "obligations", "checks", "ms"});
  for (unsigned I = 1; I <= 3; ++I)
    Table.setRightAligned(I);
  for (ObCategory C : {ObCategory::Libs, ObCategory::Conc, ObCategory::Acts,
                       ObCategory::Stab, ObCategory::Main}) {
    const CategoryStats &S = R.PerCategory[static_cast<size_t>(C)];
    Table.addRow({obCategoryName(C), std::to_string(S.Obligations),
                  std::to_string(S.Checks),
                  formatString("%.1f", S.ElapsedMs)});
  }
  std::string Out = formatString(
      "%s: %s (%.1f ms)\n", R.Program.c_str(),
      R.AllPassed ? "all obligations discharged" : "FAILED", R.TotalMs);
  Out += Table.render();
  for (const std::string &F : R.Failures)
    Out += formatString("  failure: %s\n", F.c_str());
  return Out;
}

uint64_t SessionReport::totalObligations() const {
  uint64_t Total = 0;
  for (const CategoryStats &S : PerCategory)
    Total += S.Obligations;
  return Total;
}

uint64_t SessionReport::totalChecks() const {
  uint64_t Total = 0;
  for (const CategoryStats &S : PerCategory)
    Total += S.Checks;
  return Total;
}

void VerificationSession::addObligation(ObCategory Category, std::string Name,
                                        const ObligationInputs &Inputs,
                                        DischargeFn Run) {
  assert(Run && "obligation needs a discharge function");
  Units.push_back(
      ProofUnit{Category, std::move(Name), Inputs.fp(), std::move(Run)});
}

void VerificationSession::addObligation(ObCategory Category, std::string Name,
                                        DischargeFn Run) {
  assert(Run && "obligation needs a discharge function");
  Units.push_back(ProofUnit{Category, std::move(Name), 0, std::move(Run)});
}

namespace {

/// Replays a stored verdict as an ObligationResult.
ObligationResult replay(const cache::CacheRecord &R) {
  ObligationResult O;
  O.Passed = R.Passed;
  O.Checks = R.Checks;
  O.Note = R.Note;
  O.Counters = R.Counters;
  O.FromCache = true;
  return O;
}

/// A fresh verdict as the record the store persists.
cache::CacheRecord toRecord(const cache::ObligationKey &Key,
                            const ObligationResult &O, double ElapsedMs) {
  cache::CacheRecord R;
  R.Key = Key;
  R.Passed = O.Passed;
  R.Checks = O.Checks;
  R.Counters = O.Counters;
  R.ElapsedUs = static_cast<uint64_t>(ElapsedMs * 1000.0);
  R.Note = O.Note;
  return R;
}

/// Serializes progress callbacks and numbers them with a completion
/// ordinal; discharge workers call report() concurrently.
class ProgressEmitter {
public:
  ProgressEmitter(const ProgressFn &Fn, size_t Total) : Fn(Fn), Total(Total) {}

  void report(const ProofUnit &U, const ObligationResult &R, double Ms) {
    if (!Fn)
      return;
    std::lock_guard<std::mutex> Lock(M);
    ObligationProgress P;
    P.Completed = ++Completed;
    P.Total = Total;
    P.Category = U.Category;
    P.Name = U.Name;
    P.Passed = R.Passed;
    P.FromCache = R.FromCache;
    P.ElapsedMs = Ms;
    Fn(P);
  }

private:
  const ProgressFn &Fn;
  size_t Total;
  std::mutex M;
  size_t Completed = 0;
};

/// The registration-order aggregation every report goes through — shared
/// by run() and serveFromStore() so the fast path cannot drift from a
/// genuinely warm run.
void aggregateReport(SessionReport &Report,
                     const std::vector<ProofUnit> &Units,
                     const std::vector<ObligationResult> &Results,
                     const std::vector<double> &ElapsedMs) {
  for (size_t I = 0, N = Units.size(); I != N; ++I) {
    const ProofUnit &U = Units[I];
    CategoryStats &Stats = Report.PerCategory[static_cast<size_t>(U.Category)];
    ++Stats.Obligations;
    Stats.Checks += Results[I].Checks;
    Stats.ElapsedMs += ElapsedMs[I];
    if (!Results[I].Passed) {
      Report.AllPassed = false;
      Report.Failures.push_back(Report.Program + "/" + U.Name + ": " +
                                Results[I].Note);
    }
  }
}

} // namespace

SessionReport VerificationSession::run(const ResolvedModes &Modes,
                                       unsigned Jobs,
                                       const ProgressFn &Progress) const {
  SessionReport Report;
  Report.Program = Program;
  Timer Total;
  size_t N = Units.size();
  ProgressEmitter Emit(Progress, N);

  // Every unit sees the one store and flags fingerprint of Modes.
  cache::Store *S = cache::activeStore(Modes.Cache);
  const uint64_t FlagsFp = engineFlagsFingerprintFor(Modes.Por, Modes.Sym);
  const bool Writes = S && (Modes.Cache == cache::CacheMode::Rw ||
                            Modes.Cache == cache::CacheMode::Check);

  // Phase 1 (serial): probe the store. A hit is replayed; under Check it
  // is *also* dispatched, and the fresh result must agree. Misses and
  // unkeyed units are always dispatched.
  std::vector<ObligationResult> Results(N);
  std::vector<double> ElapsedMs(N, 0.0);
  std::vector<const cache::CacheRecord *> Hit(N, nullptr);
  std::vector<size_t> ToRun;
  ToRun.reserve(N);
  for (size_t I = 0; I != N; ++I) {
    const ProofUnit &U = Units[I];
    if (!U.keyed()) {
      ++Report.Cache.Unkeyed;
      ToRun.push_back(I);
      continue;
    }
    if (!S) {
      ToRun.push_back(I);
      continue;
    }
    if (const cache::CacheRecord *R = S->lookup(U.key(FlagsFp))) {
      ++Report.Cache.Hits;
      Report.Cache.ReplayedChecks += R->Checks;
      Report.Cache.ReplayedConfigs += R->Counters.Configs;
      Report.Cache.ReplayedUs += R->ElapsedUs;
      Results[I] = replay(*R);
      Emit.report(U, Results[I], 0.0);
      if (Modes.Cache == cache::CacheMode::Check) {
        Hit[I] = R;
        ++Report.Cache.CheckRuns;
        ToRun.push_back(I);
      }
      continue;
    }
    ++Report.Cache.Misses;
    if (S->hasContent(U.ContentFp))
      ++Report.Cache.StaleFlags;
    ToRun.push_back(I);
  }

  // Phase 2: discharge the dispatch list concurrently (units are
  // independent), then fold the ledger in registration order so tallies
  // and the failure list do not depend on scheduling.
  unsigned J = effectiveJobs(Jobs, ToRun.size());
  std::vector<ObligationResult> Fresh(ToRun.size());
  std::vector<double> FreshMs(ToRun.size(), 0.0);
  parallelFor(ToRun.size(), J, [&](size_t K) {
    Timer One;
    Fresh[K] = Units[ToRun[K]].Run(Modes);
    FreshMs[K] = One.elapsedMs();
    // Check-mode re-runs were already reported at probe time (as the
    // replayed hit); only genuinely fresh discharges stream here.
    if (!Hit[ToRun[K]])
      Emit.report(Units[ToRun[K]], Fresh[K], FreshMs[K]);
  });

  // Phase 3 (serial, registration order): reconcile check-mode re-runs,
  // install fresh results, and append new verdicts to the store.
  for (size_t K = 0; K != ToRun.size(); ++K) {
    size_t I = ToRun[K];
    const ProofUnit &U = Units[I];
    if (const cache::CacheRecord *R = Hit[I]) {
      // Check mode: the stored verdict must match the fresh discharge in
      // verdict, check count, and engine counters (all bit-identical
      // across job counts).
      if (Fresh[K].Passed != R->Passed || Fresh[K].Checks != R->Checks ||
          Fresh[K].Counters != R->Counters) {
        ++Report.Cache.Divergences;
        ObligationResult Diverged = Fresh[K];
        Diverged.Passed = false;
        Diverged.Note = "cache-check divergence: stored verdict " +
                        std::string(R->Passed ? "pass" : "fail") + "/" +
                        std::to_string(R->Checks) + " checks vs fresh " +
                        std::string(Fresh[K].Passed ? "pass" : "fail") + "/" +
                        std::to_string(Fresh[K].Checks) + " checks";
        Results[I] = Diverged;
      }
      // Agreement: keep the replayed result so the report stays
      // bit-identical to a plain warm run.
      ElapsedMs[I] = FreshMs[K];
      continue;
    }
    Results[I] = Fresh[K];
    ElapsedMs[I] = FreshMs[K];
    if (Writes && U.keyed()) {
      S->append(toRecord(U.key(FlagsFp), Fresh[K], FreshMs[K]));
      ++Report.Cache.Stores;
    }
  }

  aggregateReport(Report, Units, Results, ElapsedMs);
  Report.TotalMs = Total.elapsedMs();
  cache::accumulateCacheStats(Report.Cache);
  return Report;
}

std::optional<SessionReport>
VerificationSession::serveFromStore(cache::Store &S, uint64_t FlagsFp,
                                    const ProgressFn &Progress) const {
  size_t N = Units.size();
  // First pass: the fast path answers only when the store already holds a
  // verdict for *every* unit. Bail before touching any report state so a
  // partial corpus leaves no trace.
  std::vector<const cache::CacheRecord *> Recs(N, nullptr);
  for (size_t I = 0; I != N; ++I) {
    const ProofUnit &U = Units[I];
    if (!U.keyed())
      return std::nullopt;
    Recs[I] = S.lookup(U.key(FlagsFp));
    if (!Recs[I])
      return std::nullopt;
  }

  SessionReport Report;
  Report.Program = Program;
  Timer Total;
  ProgressEmitter Emit(Progress, N);
  std::vector<ObligationResult> Results(N);
  std::vector<double> ElapsedMs(N, 0.0);
  for (size_t I = 0; I != N; ++I) {
    const cache::CacheRecord *R = Recs[I];
    ++Report.Cache.Hits;
    Report.Cache.ReplayedChecks += R->Checks;
    Report.Cache.ReplayedConfigs += R->Counters.Configs;
    Report.Cache.ReplayedUs += R->ElapsedUs;
    Results[I] = replay(*R);
    Emit.report(Units[I], Results[I], 0.0);
  }
  aggregateReport(Report, Units, Results, ElapsedMs);
  Report.TotalMs = Total.elapsedMs();
  cache::accumulateCacheStats(Report.Cache);
  return Report;
}
