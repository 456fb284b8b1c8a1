//===- tests/por_dynamic_test.cpp - The dynamic POR spellings --------------===//
//
// Part of fcsl-cpp. `--por=dynamic` and `--por=check-dynamic` are
// spellings of `on` and `check` (the dynamic ample licence is retired,
// DESIGN.md §12). Pins the alias, and the static reduction on the
// workloads that licence used to serve: the flat combiner's counters and
// env rows, an env transition with no dynamic footprint (the row-head
// Unknown path sleep sets read), a pair snapshot that must never exceed
// the full state space, bit-identity across job counts, the check-dynamic
// oracle over every Table-1 session, composition with symmetry, and the
// reduced corpus.
//
//===----------------------------------------------------------------------===//

#include "action/AtomicAction.h"
#include "concurroid/Concurroid.h"
#include "prog/Engine.h"
#include "structures/FlatCombiner.h"
#include "structures/PairSnapshot.h"
#include "structures/Suite.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <array>

using namespace fcsl;

namespace {

constexpr Label Rp = 3;
constexpr Label Fc = 4;

bool sameTerminals(const RunResult &A, const RunResult &B) {
  if (A.Terminals.size() != B.Terminals.size())
    return false;
  for (size_t I = 0; I != A.Terminals.size(); ++I)
    if (A.Terminals[I] < B.Terminals[I] || B.Terminals[I] < A.Terminals[I])
      return false;
  return true;
}

// The flat-combiner Table 1 session's exploration: one thread runs
// flat_combine(push 4) on its own slot while the environment publishes,
// combines, and collects on the other, capped at 4 history entries.
struct FcSetup {
  FlatCombinerCase Case;
  ProgRef Main;
  GlobalState Initial;
  EngineOptions Opts;
};

FcSetup makeFcSetup() {
  FcSetup S{makeFlatCombinerCase(Fc, /*EnvHistCap=*/4), nullptr, {}, {}};
  S.Main = Prog::call("flat_combine",
                      {Expr::litPtr(S.Case.Slot1), Expr::litInt(FcPush),
                       Expr::litInt(4)});
  S.Initial = flatCombinerState(S.Case, 1);
  S.Opts.Ambient = S.Case.C;
  S.Opts.EnvInterference = true;
  S.Opts.Defs = &S.Case.Defs;
  S.Opts.Jobs = 1;
  return S;
}

// A ticker world: the environment steps a counter in cell 1 through
// 0..Period-1 (tick, plus a reset to 0) while the program bumps cell 2
// twice. Statically the two clash (tick may write any cell), so no bump
// is an ample singleton and every expansion is a full one with sleep
// sets. With \p UnknownAtOne, an extra env transition enabled at counter
// 1 has no dynamic footprint, so that state's row head is Unknown.
constexpr Label Tk = 5;

struct TickerWorld {
  ProgRef Main;
  GlobalState Initial;
  EngineOptions Opts;
};

View withCell(const View &Pre, Ptr P, int64_t V) {
  View Post = Pre;
  Heap Joint = Pre.joint(Tk);
  Joint.update(P, Val::ofInt(V));
  Post.setJoint(Tk, std::move(Joint));
  return Post;
}

/// With \p UnknownAtOne an env transition "wild" with no dynamic footprint
/// is enabled whenever cell 1 reads 1. It resets the cell, or, with
/// \p WildIncoherent, drops cell 2, so its only post is incoherent.
TickerWorld makeTickerWorld(int64_t Period, bool UnknownAtOne,
                            bool WildIncoherent = false) {
  auto Coh = [](const View &S) {
    return S.hasLabel(Tk) && S.joint(Tk).contains(Ptr(1)) &&
           S.joint(Tk).contains(Ptr(2));
  };
  auto C = makeConcurroid("Ticker", {OwnedLabel{Tk, "tk", PCMType::nat()}},
                          Coh);
  Footprint AnyCell = Footprint::none().readWrite(FpAtom::joint(Tk));
  C->addTransition(
      Transition("tick", TransitionKind::Internal,
                 [Period](const View &Pre) {
                   int64_t V = Pre.joint(Tk).lookup(Ptr(1)).getInt();
                   std::vector<View> Posts;
                   if (V + 1 < Period)
                     Posts.push_back(withCell(Pre, Ptr(1), V + 1));
                   if (V != 0)
                     Posts.push_back(withCell(Pre, Ptr(1), 0));
                   return Posts;
                 })
          .withFootprint(AnyCell, [](const View &) {
            return Footprint::none().readWrite(FpAtom::jointCell(Tk, Ptr(1)));
          }));
  if (UnknownAtOne)
    C->addTransition(
        Transition("wild", TransitionKind::Internal,
                   [WildIncoherent](const View &Pre) {
                     std::vector<View> Posts;
                     if (Pre.joint(Tk).lookup(Ptr(1)).getInt() != 1)
                       return Posts;
                     if (!WildIncoherent) {
                       Posts.push_back(withCell(Pre, Ptr(1), 0));
                       return Posts;
                     }
                     View Post = Pre;
                     Heap Joint = Pre.joint(Tk);
                     Joint.remove(Ptr(2));
                     Post.setJoint(Tk, std::move(Joint));
                     Posts.push_back(std::move(Post));
                     return Posts;
                   })
            .withFootprint(AnyCell,
                           [](const View &) { return Footprint(); }));
  TickerWorld W;
  ActionRef Bump = makeAction(
      "bump2", C, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        Val Old = Pre.joint(Tk).lookup(Ptr(2));
        return std::vector<ActOutcome>{
            {Old, withCell(Pre, Ptr(2), Old.getInt() + 1)}};
      },
      Footprint::none().readWrite(FpAtom::jointCell(Tk, Ptr(2))));
  W.Main = Prog::bind(Prog::act(Bump, {}), "_", Prog::act(Bump, {}));
  Heap Joint = Heap::singleton(Ptr(1), Val::ofInt(0));
  Joint.insert(Ptr(2), Val::ofInt(0));
  W.Initial.addLabel(Tk, PCMType::nat(), std::move(Joint), PCMVal::ofNat(0),
                     false);
  W.Opts.Ambient = C;
  W.Opts.EnvInterference = true;
  W.Opts.Jobs = 1;
  W.Opts.Por = PorMode::On;
  return W;
}

// The exact work counters of one run, with the POR counters it added.
struct PinnedCounts {
  uint64_t Configs, ActionSteps, EnvSteps, DedupHits;
  uint64_t FullExpansions, SleepHits, WakeupReplays;

  friend bool operator==(const PinnedCounts &A, const PinnedCounts &B) {
    return A.Configs == B.Configs && A.ActionSteps == B.ActionSteps &&
           A.EnvSteps == B.EnvSteps && A.DedupHits == B.DedupHits &&
           A.FullExpansions == B.FullExpansions &&
           A.SleepHits == B.SleepHits && A.WakeupReplays == B.WakeupReplays;
  }
  friend std::ostream &operator<<(std::ostream &OS, const PinnedCounts &C) {
    return OS << "{" << C.Configs << ", " << C.ActionSteps << ", "
              << C.EnvSteps << ", " << C.DedupHits << ", "
              << C.FullExpansions << ", " << C.SleepHits << ", "
              << C.WakeupReplays << "}";
  }
};

PinnedCounts countsOf(const ProgRef &Main, const GlobalState &Initial,
                      const EngineOptions &Opts) {
  PorStats Before = porStats();
  RunResult R = explore(Main, Initial, Opts);
  PorStats After = porStats();
  EXPECT_TRUE(R.complete()) << R.FailureNote;
  return {R.ConfigsExplored,
          R.ActionSteps,
          R.EnvSteps,
          R.DedupHits,
          After.FullExpansions - Before.FullExpansions,
          After.SleepHits - Before.SleepHits,
          After.WakeupReplays - Before.WakeupReplays};
}

// Restores the process-default POR mode on scope exit (tests in this
// binary flip it to exercise session-level defaults).
struct PorDefaultGuard {
  ~PorDefaultGuard() { setDefaultPorMode(PorMode::Default); }
};

} // namespace

//===----------------------------------------------------------------------===//
// The alias: dynamic spells on, check-dynamic spells check.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, DynamicIsASpellingOfOn) {
  PorMode Dyn = PorMode::Off, CheckDyn = PorMode::Off;
  ASSERT_TRUE(parsePorMode("dynamic", Dyn));
  ASSERT_TRUE(parsePorMode("check-dynamic", CheckDyn));
  ReductionModes M = resolveModes(Dyn, SymMode::Off);
  EXPECT_EQ(M.Por, PorMode::On);
  EXPECT_FALSE(M.Oracle);
  M = resolveModes(CheckDyn, SymMode::Off);
  ReductionModes Check = resolveModes(PorMode::Check, SymMode::Off);
  EXPECT_EQ(M.Por, Check.Por);
  EXPECT_EQ(M.Oracle, Check.Oracle);
  EXPECT_TRUE(M.Oracle);

  // An exploration under the spelling is the exploration under On.
  FcSetup S = makeFcSetup();
  S.Opts.Por = PorMode::On;
  RunResult On = explore(S.Main, S.Initial, S.Opts);
  S.Opts.Por = PorMode::Dynamic;
  RunResult Dynamic = explore(S.Main, S.Initial, S.Opts);
  ASSERT_TRUE(On.complete()) << On.FailureNote;
  EXPECT_EQ(Dynamic.Reduction.Por, PorMode::On);
  EXPECT_EQ(Dynamic.Safe, On.Safe);
  EXPECT_TRUE(sameTerminals(Dynamic, On));
  EXPECT_EQ(Dynamic.counters(), On.counters());
}

//===----------------------------------------------------------------------===//
// The reduction never explores more than the full state space.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, PairSnapshotNeverExceedsFull) {
  // Regression pin for the sleep-set identity bug: the reduced mode must
  // never *grow* the state space, even where no reduction exists.
  PairSnapCase Case = makePairSnapCase(Rp, /*EnvHistCap=*/2);
  EngineOptions Opts;
  Opts.Ambient = Case.C;
  Opts.EnvInterference = true;
  Opts.Defs = &Case.Defs;
  Opts.Jobs = 1;
  Opts.Por = PorMode::Off;
  RunResult Full = explore(Prog::call("readPair", {}), pairSnapState(Case),
                           Opts);
  ASSERT_TRUE(Full.complete()) << Full.FailureNote;
  Opts.Por = PorMode::On;
  RunResult Red = explore(Prog::call("readPair", {}), pairSnapState(Case),
                          Opts);
  ASSERT_TRUE(Red.complete()) << Red.FailureNote;
  EXPECT_TRUE(sameTerminals(Full, Red));
  EXPECT_LE(Red.ConfigsExplored, Full.ConfigsExplored);
}

//===----------------------------------------------------------------------===//
// Exact counters: the reduced expansion takes its env candidates and their
// footprints from the env rows.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, ReducedExpansionReadsTheEnvRows) {
  // {configs, action steps, env steps, dedup hits, full expansions, sleep
  //  hits, wakeup replays} at Jobs = 1, the counters static POR had when
  // it enumerated env steps per configuration.
  FcSetup S = makeFcSetup();
  S.Opts.Por = PorMode::On;
  const PinnedCounts Static{2520, 1773, 3630, 2884, 3131, 936, 611};
  EXPECT_EQ(countsOf(S.Main, S.Initial, S.Opts), Static);
  RunResult R = explore(S.Main, S.Initial, S.Opts);
  EXPECT_GT(R.EnvRowEntries, 0u);
  EXPECT_GT(R.EnvRowHits, 0u);
}

TEST(PorDynamicTest, UnknownEnvFootprintReadsTheRowHead) {
  // "wild" has no dynamic footprint, so the row head of every state at
  // counter 1 is Unknown and the reduced expansion computes the env
  // footprints there directly. Its extra steps revisit states the known
  // world reaches anyway. Only counters are pinned: the reduced run keeps
  // one of the plain engine's four terminals in both worlds (ROADMAP
  // item 14 records that defect of the trailing-env close mask).
  TickerWorld Known = makeTickerWorld(/*Period=*/4, /*UnknownAtOne=*/false);
  TickerWorld Wild = makeTickerWorld(/*Period=*/4, /*UnknownAtOne=*/true);
  const PinnedCounts KnownCounts{9, 2, 12, 6, 8, 6, 0};
  const PinnedCounts WildCounts{9, 2, 14, 8, 8, 6, 0};
  EXPECT_EQ(countsOf(Known.Main, Known.Initial, Known.Opts), KnownCounts);
  EXPECT_EQ(countsOf(Wild.Main, Wild.Initial, Wild.Opts), WildCounts);
  // A transition whose posts are all incoherent never fires, and the
  // state it is enabled in has an Unknown head all the same.
  TickerWorld Dead = makeTickerWorld(/*Period=*/4, /*UnknownAtOne=*/true,
                                     /*WildIncoherent=*/true);
  EXPECT_EQ(countsOf(Dead.Main, Dead.Initial, Dead.Opts), KnownCounts);
}

//===----------------------------------------------------------------------===//
// Determinism: bit-identical counters across job counts.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, BitIdenticalAcrossJobCounts) {
  FcSetup S = makeFcSetup();
  S.Opts.Por = PorMode::On;
  S.Opts.Jobs = 1;
  RunResult Serial = explore(S.Main, S.Initial, S.Opts);
  ASSERT_TRUE(Serial.complete()) << Serial.FailureNote;
  for (unsigned Jobs : {2u, 8u}) {
    S.Opts.Jobs = Jobs;
    RunResult Par = explore(S.Main, S.Initial, S.Opts);
    EXPECT_EQ(Serial.Safe, Par.Safe) << Jobs << " jobs";
    EXPECT_TRUE(sameTerminals(Serial, Par)) << Jobs << " jobs";
    EXPECT_EQ(Serial.ConfigsExplored, Par.ConfigsExplored) << Jobs
                                                           << " jobs";
    EXPECT_EQ(Serial.ActionSteps, Par.ActionSteps) << Jobs << " jobs";
    EXPECT_EQ(Serial.EnvSteps, Par.EnvSteps) << Jobs << " jobs";
  }
}

//===----------------------------------------------------------------------===//
// The soundness oracle under the check-dynamic spelling, and composition.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, CheckDynamicModeReportsBothRuns) {
  FcSetup S = makeFcSetup();
  S.Opts.Por = PorMode::CheckDynamic;
  RunResult R = explore(S.Main, S.Initial, S.Opts);
  EXPECT_TRUE(R.Safe);
  EXPECT_TRUE(R.Reduction.Oracle.Ran);
  EXPECT_FALSE(R.Reduction.Oracle.Mismatch);
  EXPECT_GT(R.Reduction.Oracle.PlainConfigs, 0u);
  EXPECT_GT(R.Reduction.Oracle.ReducedConfigs, 0u);
  EXPECT_LE(R.Reduction.Oracle.ReducedConfigs,
            R.Reduction.Oracle.PlainConfigs);
  // Like Check, CheckDynamic reports the plain (ground-truth) run, checked
  // against the On reduction it spells.
  EXPECT_EQ(R.Reduction.Por, PorMode::On);
  EXPECT_EQ(R.ConfigsExplored, R.Reduction.Oracle.PlainConfigs);
}

TEST(PorDynamicTest, CheckDynamicCrossValidatesAllSessions) {
  // Every Table-1 session discharged with the oracle's check-dynamic
  // spelling as the process default: any verdict or terminal-set
  // divergence anywhere in a session's obligations fails it.
  PorDefaultGuard Guard;
  setDefaultPorMode(PorMode::CheckDynamic);
  for (const CaseEntry &Case : allCaseStudies()) {
    SessionReport Report = Case.MakeSession().run();
    EXPECT_TRUE(Report.AllPassed)
        << Case.Name << ": "
        << (Report.Failures.empty() ? "" : Report.Failures.front());
  }
}

TEST(PorDynamicTest, ComposesWithSymmetry) {
  FcSetup S = makeFcSetup();
  S.Opts.Por = PorMode::Off;
  S.Opts.Symmetry = SymMode::Off;
  RunResult Full = explore(S.Main, S.Initial, S.Opts);
  ASSERT_TRUE(Full.complete()) << Full.FailureNote;
  S.Opts.Por = PorMode::On;
  S.Opts.Symmetry = SymMode::On;
  RunResult Local = explore(S.Main, S.Initial, S.Opts);
  EXPECT_EQ(Full.Safe, Local.Safe);
  EXPECT_TRUE(sameTerminals(Full, Local));
}

//===----------------------------------------------------------------------===//
// The reduced corpus: every `fcsl-verify verify all` session at one job.
// Exploration work, POR effort and symmetry effort are all pinned, so a
// change to how the reduced expansion is computed cannot move any of them
// unnoticed.
//===----------------------------------------------------------------------===//

namespace {

// {configs, action steps, env steps, dedup hits, wakeup replays, sleep
//  hits, full expansions, orbit lookups, canonicalized, pointer-renamed},
// summed over every obligation.
using CorpusCounts = std::array<uint64_t, 10>;

CorpusCounts corpusCounts(PorMode Por, SymMode Sym) {
  // The effort counters vary with the schedule at more than one job.
  setDefaultJobs(1);
  const ResolvedModes Modes{Por, Sym, cache::CacheMode::Off};
  PorStats P0 = porStats();
  SymmetryStats S0 = symmetryStats();
  EngineCounters Work;
  for (const CaseEntry &Case : allVerifiableSessions()) {
    VerificationSession Session = Case.MakeSession();
    for (const ProofUnit &U : Session.units()) {
      ObligationResult R = U.Run(Modes);
      EXPECT_TRUE(R.Passed) << Case.Name << ": " << U.Name << ": " << R.Note;
      Work += R.Counters;
    }
  }
  PorStats P1 = porStats();
  SymmetryStats S1 = symmetryStats();
  return {Work.Configs,
          Work.ActionSteps,
          Work.EnvSteps,
          Work.DedupHits,
          P1.WakeupReplays - P0.WakeupReplays,
          P1.SleepHits - P0.SleepHits,
          P1.FullExpansions - P0.FullExpansions,
          S1.Lookups - S0.Lookups,
          S1.Changed - S0.Changed,
          S1.Renames - S0.Renames};
}

} // namespace

TEST(PorDynamicTest, PinsTheReducedCorpus) {
  const CorpusCounts StaticSym{9905, 5444, 13119, 6828, 1247,
                               2180, 7889, 16293, 27,   4};
  EXPECT_EQ(corpusCounts(PorMode::On, SymMode::On), StaticSym);
  const CorpusCounts Static{10038, 5618, 13119, 6869, 1247,
                            2181,  7962, 0,     0,    0};
  EXPECT_EQ(corpusCounts(PorMode::On, SymMode::Off), Static);
}
