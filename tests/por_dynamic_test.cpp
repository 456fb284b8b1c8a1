//===- tests/por_dynamic_test.cpp - Dynamic partial-order reduction --------===//
//
// Part of fcsl-cpp. The dynamic POR mode (DESIGN.md §12): ample sets
// licensed by observed footprints and the env-future closure, on top of
// the static reduction. Pins where the reduction genuinely bites
// (spanning tree, flat combiner), that it never explores more than the
// full state space, that it is bit-identical across job counts and shard
// counts, that check-dynamic cross-validates every Table-1 session, and
// that it composes with symmetry reduction and sharding. Exact counter
// pins and two closure refusals (a future past the state cap, an unknown
// env footprint) guard the closure walks over the env rows.
//
//===----------------------------------------------------------------------===//

#include "action/AtomicAction.h"
#include "concurroid/Concurroid.h"
#include "dist/Coordinator.h"
#include "graph/GraphGen.h"
#include "prog/Engine.h"
#include "structures/FlatCombiner.h"
#include "structures/PairSnapshot.h"
#include "structures/SpanTree.h"
#include "structures/Suite.h"

#include <gtest/gtest.h>

using namespace fcsl;

namespace {

constexpr Label Pv = 1;
constexpr Label Sp = 2;
constexpr Label Rp = 3;
constexpr Label Fc = 4;

// The fork/join diamond stack from por_independence_test: wide commuting
// parallelism, the reduction's best case.
Heap diamondOf(unsigned Layers) {
  std::vector<GraphNode> Nodes;
  uint32_t Id = 1;
  for (unsigned L = 0; L < Layers; ++L) {
    Nodes.push_back(GraphNode{Ptr(Id), Ptr(Id + 1), Ptr(Id + 2)});
    Nodes.push_back(GraphNode{Ptr(Id + 1), Ptr(Id + 3), Ptr::null()});
    Nodes.push_back(GraphNode{Ptr(Id + 2), Ptr(Id + 3), Ptr::null()});
    Id += 3;
  }
  Nodes.push_back(GraphNode{Ptr(Id), Ptr::null(), Ptr::null()});
  return buildGraph(Nodes);
}

bool sameTerminals(const RunResult &A, const RunResult &B) {
  if (A.Terminals.size() != B.Terminals.size())
    return false;
  for (size_t I = 0; I != A.Terminals.size(); ++I)
    if (A.Terminals[I] < B.Terminals[I] || B.Terminals[I] < A.Terminals[I])
      return false;
  return true;
}

EngineOptions spanClosedOpts(const SpanTreeCase &Case) {
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  Opts.Jobs = 1;
  return Opts;
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

// A ticker world for the env-future closure: the environment steps a
// counter in cell 1 through 0..Period-1 (tick, plus a reset to 0), so
// every state's env-only future is all Period states; the program bumps
// cell 2 twice. Statically the two clash (tick may write any cell), so
// the static reduction finds nothing; dynamically tick touches cell 1
// only, so the first bump is a dynamic ample whenever the closure is
// certified. With \p UnknownAtOne, an extra env transition enabled at
// counter 1 has no dynamic footprint.
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
  return W;
}

// The exact work counters of one run, with the POR counters it added.
struct PinnedCounts {
  uint64_t Configs, ActionSteps, EnvSteps, DedupHits;
  uint64_t Races, Backtracks, FullExpansions, SleepHits, WakeupReplays;

  friend bool operator==(const PinnedCounts &A, const PinnedCounts &B) {
    return A.Configs == B.Configs && A.ActionSteps == B.ActionSteps &&
           A.EnvSteps == B.EnvSteps && A.DedupHits == B.DedupHits &&
           A.Races == B.Races && A.Backtracks == B.Backtracks &&
           A.FullExpansions == B.FullExpansions &&
           A.SleepHits == B.SleepHits && A.WakeupReplays == B.WakeupReplays;
  }
  friend std::ostream &operator<<(std::ostream &OS, const PinnedCounts &C) {
    return OS << "{" << C.Configs << ", " << C.ActionSteps << ", "
              << C.EnvSteps << ", " << C.DedupHits << ", " << C.Races << ", "
              << C.Backtracks << ", " << C.FullExpansions << ", "
              << C.SleepHits << ", " << C.WakeupReplays << "}";
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
          After.RacesDetected - Before.RacesDetected,
          After.BacktrackPoints - Before.BacktrackPoints,
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
// Where the dynamic reduction bites, it must bite strictly — and never
// explore more than the full state space anywhere.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, SpanningTreeDynamicBeatsStatic) {
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  GlobalState GS = spanRootState(Case, diamondOf(2));
  ProgRef Main = makeSpanRootProg(Case, Ptr(1));
  EngineOptions Opts = spanClosedOpts(Case);
  Opts.Por = PorMode::Off;
  RunResult Full = explore(Main, GS, Opts);
  Opts.Por = PorMode::On;
  RunResult Static = explore(Main, GS, Opts);
  Opts.Por = PorMode::Dynamic;
  RunResult Dyn = explore(Main, GS, Opts);
  ASSERT_TRUE(Full.complete()) << Full.FailureNote;
  ASSERT_TRUE(Dyn.complete()) << Dyn.FailureNote;
  EXPECT_EQ(Dyn.Reduction.Por, PorMode::Dynamic);
  EXPECT_EQ(Static.Reduction.Por, PorMode::On);
  EXPECT_TRUE(sameTerminals(Full, Dyn));
  // Strict pins: dynamic never beats full by less than static does, and
  // both modes genuinely reduce this commuting-heavy program.
  EXPECT_LT(Static.ConfigsExplored, Full.ConfigsExplored);
  EXPECT_LE(Dyn.ConfigsExplored, Static.ConfigsExplored);
  EXPECT_LT(Dyn.ConfigsExplored, Full.ConfigsExplored);
}

TEST(PorDynamicTest, FlatCombinerDynamicStrictlyReduces) {
  // The flat combiner is where the static reduction finds nothing (every
  // pair of static footprints clashes through the slots); the dynamic
  // mode must strictly beat the full count via observed footprints.
  FcSetup S = makeFcSetup();
  S.Opts.Por = PorMode::Off;
  RunResult Full = explore(S.Main, S.Initial, S.Opts);
  S.Opts.Por = PorMode::Dynamic;
  PorStats Before = porStats();
  RunResult Dyn = explore(S.Main, S.Initial, S.Opts);
  PorStats After = porStats();
  ASSERT_TRUE(Full.complete()) << Full.FailureNote;
  ASSERT_TRUE(Dyn.complete()) << Dyn.FailureNote;
  EXPECT_EQ(Dyn.Reduction.Por, PorMode::Dynamic);
  EXPECT_TRUE(sameTerminals(Full, Dyn));
  EXPECT_LT(Dyn.ConfigsExplored, Full.ConfigsExplored)
      << Dyn.ConfigsExplored << " dynamic vs " << Full.ConfigsExplored
      << " full configurations";
  // The --stats POR section draws from these counters; a run that
  // reduced must have detected races and fallen back somewhere.
  EXPECT_GT(After.RacesDetected, Before.RacesDetected);
  EXPECT_GT(After.FullExpansions, Before.FullExpansions);
}

TEST(PorDynamicTest, PairSnapshotNeverExceedsFull) {
  // Regression pin for the sleep-set identity bug: reduced modes must
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
  for (PorMode Mode : {PorMode::On, PorMode::Dynamic}) {
    Opts.Por = Mode;
    RunResult Red = explore(Prog::call("readPair", {}),
                            pairSnapState(Case), Opts);
    ASSERT_TRUE(Red.complete()) << Red.FailureNote;
    EXPECT_TRUE(sameTerminals(Full, Red));
    EXPECT_LE(Red.ConfigsExplored, Full.ConfigsExplored)
        << "mode=" << static_cast<int>(Mode);
  }
}

//===----------------------------------------------------------------------===//
// Exact counters: the closure walks over the env rows and pointer sleep
// entries must leave every counter where the per-root closure search put
// it.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, PinsExactDynamicCounters) {
  // {configs, action steps, env steps, dedup hits, races, backtracks,
  //  full expansions, sleep hits, wakeup replays} at Jobs = 1; the POR
  // counters of a parallel run vary with the schedule, the rest do not.
  const PinnedCounts FlatCombiner{2305, 1743, 3054, 2493, 1423,
                                  1895, 2317, 701,  561};
  const PinnedCounts SpanningTree{391, 447, 0, 57, 0, 0, 52, 0, 0};
  for (SymMode Sym : {SymMode::Off, SymMode::On}) {
    FcSetup S = makeFcSetup();
    S.Opts.Por = PorMode::Dynamic;
    S.Opts.Symmetry = Sym;
    EXPECT_EQ(countsOf(S.Main, S.Initial, S.Opts), FlatCombiner)
        << "symmetry=" << symModeName(Sym);
    SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
    EngineOptions Opts = spanClosedOpts(Case);
    Opts.Por = PorMode::Dynamic;
    Opts.Symmetry = Sym;
    EXPECT_EQ(countsOf(makeSpanRootProg(Case, Ptr(1)),
                       spanRootState(Case, diamondOf(2)), Opts),
              SpanningTree)
        << "symmetry=" << symModeName(Sym);
  }
}

TEST(PorDynamicTest, ClosureWalksReadTheEnvRows) {
  // A closure walks from each state's env row to the rows of its posts,
  // the table plain expansion reads; only plain expansion counts row hits,
  // and it never runs under POR.
  FcSetup S = makeFcSetup();
  S.Opts.Por = PorMode::Dynamic;
  PorStats Before = porStats();
  RunResult R = explore(S.Main, S.Initial, S.Opts);
  PorStats After = porStats();
  ASSERT_TRUE(R.complete()) << R.FailureNote;
  EXPECT_GT(R.EnvRowEntries, 0u);
  EXPECT_EQ(R.EnvRowHits, 0u);
  // The walks must license exactly the ample singletons the closures
  // always licensed: every ample decision shows in these counters.
  EXPECT_EQ(After.RacesDetected - Before.RacesDetected, 1423u);
  EXPECT_EQ(After.BacktrackPoints - Before.BacktrackPoints, 1895u);
  EXPECT_EQ(After.SleepHits - Before.SleepHits, 701u);
  EXPECT_EQ(After.FullExpansions - Before.FullExpansions, 2317u);
  S.Opts.Por = PorMode::On;
  EXPECT_EQ(explore(S.Main, S.Initial, S.Opts).EnvRowEntries, 0u);
}

//===----------------------------------------------------------------------===//
// Closure refusal: a future the closure cannot certify licenses no
// dynamic ample, so the dynamic run is exactly the static one.
//===----------------------------------------------------------------------===//

namespace {

// Static and dynamic counts of one ticker world.
std::pair<PinnedCounts, PinnedCounts>
tickerCounts(int64_t Period, bool UnknownAtOne, bool WildIncoherent = false) {
  TickerWorld W = makeTickerWorld(Period, UnknownAtOne, WildIncoherent);
  W.Opts.Por = PorMode::On;
  PinnedCounts Static = countsOf(W.Main, W.Initial, W.Opts);
  W.Opts.Por = PorMode::Dynamic;
  PinnedCounts Dyn = countsOf(W.Main, W.Initial, W.Opts);
  return {Static, Dyn};
}

} // namespace

TEST(PorDynamicTest, CertifiedTickerClosureLicensesDynamicAmple) {
  // The control for the two refusals below: with a small certified
  // future the first bump explores alone.
  auto [Static, Dyn] = tickerCounts(/*Period=*/4, /*UnknownAtOne=*/false);
  EXPECT_LT(Dyn.Configs, Static.Configs);
  EXPECT_EQ(Dyn.Races, 0u);
}

TEST(PorDynamicTest, ClosurePastTheStateCapLicensesNoDynamicAmple) {
  // 4,097 states in every env-only future: one more than the cap.
  auto [Static, Dyn] = tickerCounts(/*Period=*/4097, /*UnknownAtOne=*/false);
  EXPECT_EQ(Dyn, Static);
  EXPECT_EQ(Dyn.Configs, 2u * 4097 + 1);
}

TEST(PorDynamicTest, UnknownEnvFootprintLicensesNoDynamicAmple) {
  auto [Static, Dyn] = tickerCounts(/*Period=*/4, /*UnknownAtOne=*/true);
  EXPECT_EQ(Dyn, Static);
  auto [Known, KnownDyn] = tickerCounts(/*Period=*/4, /*UnknownAtOne=*/false);
  EXPECT_EQ(Static.Configs, Known.Configs);
  EXPECT_LT(KnownDyn.Configs, Known.Configs);
  // A transition whose posts are all incoherent never fires, but it is
  // enabled, and its missing footprint still refuses the closure.
  auto [Dead, DeadDyn] = tickerCounts(/*Period=*/4, /*UnknownAtOne=*/true,
                                      /*WildIncoherent=*/true);
  EXPECT_EQ(DeadDyn, Dead);
  EXPECT_EQ(Dead, Known);
}

//===----------------------------------------------------------------------===//
// Determinism: bit-identical counters across job counts and shard counts.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, BitIdenticalAcrossJobCounts) {
  FcSetup S = makeFcSetup();
  S.Opts.Por = PorMode::Dynamic;
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

TEST(PorDynamicTest, BitIdenticalAcrossShardCounts) {
  FcSetup S = makeFcSetup();
  S.Opts.Por = PorMode::Dynamic;
  S.Opts.Shards = 1;
  RunResult Base = explore(S.Main, S.Initial, S.Opts);
  ASSERT_TRUE(Base.complete()) << Base.FailureNote;
  for (unsigned Shards : {2u, 4u}) {
    RunResult R = dist::distributedExplore(S.Main, S.Initial, S.Opts, {},
                                     Shards);
    EXPECT_EQ(R.Safe, Base.Safe) << "shards=" << Shards;
    EXPECT_TRUE(sameTerminals(R, Base)) << "shards=" << Shards;
    EXPECT_EQ(R.ConfigsExplored, Base.ConfigsExplored)
        << "shards=" << Shards;
    EXPECT_EQ(R.ActionSteps, Base.ActionSteps) << "shards=" << Shards;
    EXPECT_EQ(R.EnvSteps, Base.EnvSteps) << "shards=" << Shards;
  }
}

//===----------------------------------------------------------------------===//
// The soundness oracle, alone and composed.
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
  EXPECT_LT(R.Reduction.Oracle.ReducedConfigs,
            R.Reduction.Oracle.PlainConfigs);
  // Like Check, CheckDynamic reports the plain (ground-truth) run.
  EXPECT_EQ(R.Reduction.Por, PorMode::Dynamic);
  EXPECT_EQ(R.ConfigsExplored, R.Reduction.Oracle.PlainConfigs);
}

TEST(PorDynamicTest, CheckDynamicCrossValidatesAllSessions) {
  // Every Table-1 session discharged with the full-vs-dynamic oracle as
  // the process default: any verdict or terminal-set divergence anywhere
  // in a session's obligations fails it.
  PorDefaultGuard Guard;
  setDefaultPorMode(PorMode::CheckDynamic);
  for (const CaseEntry &Case : allCaseStudies()) {
    SessionReport Report = Case.MakeSession().run();
    EXPECT_TRUE(Report.AllPassed)
        << Case.Name << ": "
        << (Report.Failures.empty() ? "" : Report.Failures.front());
  }
}

TEST(PorDynamicTest, ComposesWithSymmetryAndShards) {
  FcSetup S = makeFcSetup();
  S.Opts.Por = PorMode::Off;
  S.Opts.Symmetry = SymMode::Off;
  RunResult Full = explore(S.Main, S.Initial, S.Opts);
  ASSERT_TRUE(Full.complete()) << Full.FailureNote;
  S.Opts.Por = PorMode::Dynamic;
  S.Opts.Symmetry = SymMode::On;
  RunResult Local = explore(S.Main, S.Initial, S.Opts);
  EXPECT_EQ(Full.Safe, Local.Safe);
  EXPECT_TRUE(sameTerminals(Full, Local));
  RunResult Sharded = dist::distributedExplore(S.Main, S.Initial, S.Opts, {},
                                         2);
  EXPECT_EQ(Local.Safe, Sharded.Safe);
  EXPECT_TRUE(sameTerminals(Local, Sharded));
  EXPECT_EQ(Local.ConfigsExplored, Sharded.ConfigsExplored);
}
