//===- tests/parallel_engine_test.cpp - Parallel exploration tests ---------===//
//
// Part of fcsl-cpp. Checks the multi-worker interleaving engine: explore()
// must return bit-identical terminals, verdicts and counters for any job
// count on the Treiber-stack and spanning-tree case studies (diamond-3
// with thread steps served from the thread-step memo, and diamond-2 over
// three shard processes), a seeded unsafe program must still produce a
// non-empty counterexample schedule under parallel exploration, and the
// spec layer's instance fan-out must agree with its serial run. Part of
// the TSan stage of scripts/verify.sh.
//
//===----------------------------------------------------------------------===//

#include "concurroid/Entangle.h"
#include "concurroid/Priv.h"
#include "dist/Coordinator.h"
#include "spec/Verifier.h"
#include "structures/SpanTree.h"
#include "structures/TreiberStack.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace fcsl;

namespace {

const unsigned JobCounts[] = {1, 2, 8};

bool sameTerminals(const std::vector<Terminal> &A,
                   const std::vector<Terminal> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0, N = A.size(); I != N; ++I)
    if (A[I] < B[I] || B[I] < A[I])
      return false;
  return true;
}

/// Runs the same exploration at every job count and checks the results
/// against the serial baseline: identical terminals, verdicts and (for
/// complete explorations) identical counters.
void expectDeterministic(const ProgRef &P, const GlobalState &Initial,
                         EngineOptions Opts) {
  Opts.Jobs = 1;
  RunResult Base = explore(P, Initial, Opts);
  ASSERT_TRUE(Base.complete()) << Base.FailureNote;
  EXPECT_FALSE(Base.Terminals.empty());
  for (unsigned Jobs : JobCounts) {
    Opts.Jobs = Jobs;
    RunResult R = explore(P, Initial, Opts);
    EXPECT_EQ(R.Safe, Base.Safe) << "jobs=" << Jobs;
    EXPECT_EQ(R.Exhausted, Base.Exhausted) << "jobs=" << Jobs;
    EXPECT_TRUE(sameTerminals(R.Terminals, Base.Terminals))
        << "jobs=" << Jobs;
    EXPECT_EQ(R.ConfigsExplored, Base.ConfigsExplored) << "jobs=" << Jobs;
    EXPECT_EQ(R.ActionSteps, Base.ActionSteps) << "jobs=" << Jobs;
    EXPECT_EQ(R.EnvSteps, Base.EnvSteps) << "jobs=" << Jobs;
    EXPECT_EQ(R.DedupHits, Base.DedupHits) << "jobs=" << Jobs;
  }
}

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

} // namespace

TEST(ParallelEngineTest, SpanTreeClosedWorldDeterministic) {
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  expectDeterministic(makeSpanRootProg(Case, Ptr(1)),
                      spanRootState(Case, diamondOf(1)), Opts);
  expectDeterministic(makeSpanRootProg(Case, Ptr(1)),
                      spanRootState(Case, figure2Graph()), Opts);
}

TEST(ParallelEngineTest, SpanTreeOpenWorldDeterministic) {
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  std::vector<GraphNode> Nodes = {
      GraphNode{Ptr(1), Ptr(2), Ptr(3)},
      GraphNode{Ptr(2), Ptr::null(), Ptr::null()},
      GraphNode{Ptr(3), Ptr::null(), Ptr::null()}};
  EngineOptions Opts;
  Opts.Ambient = Case.Open;
  Opts.EnvInterference = true;
  Opts.Defs = &Case.Defs;
  expectDeterministic(Prog::call("span", {Expr::litPtr(Ptr(1))}),
                      spanOpenState(Case, buildGraph(Nodes), {}), Opts);
}

TEST(ParallelEngineTest, DiamondThreeGoldenWithTheStepMemo) {
  // The largest closed-world space: repeated thread steps are served from
  // the exploration's thread-step memo, and at jobs 1 and 4 the counters
  // still match the golden values the engine produced before the memo.
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  Opts.Por = PorMode::Off;
  Opts.Symmetry = SymMode::Off;
  ProgRef Main = makeSpanRootProg(Case, Ptr(1));
  GlobalState S0 = spanRootState(Case, diamondOf(3));
  Opts.Jobs = 1;
  RunResult Base = explore(Main, S0, Opts);
  for (unsigned Jobs : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "jobs=" << Jobs);
    Opts.Jobs = Jobs;
    RunResult R = Jobs == 1 ? Base : explore(Main, S0, Opts);
    ASSERT_TRUE(R.complete()) << R.FailureNote;
    EXPECT_EQ(R.ConfigsExplored, 20711u);
    EXPECT_EQ(R.ActionSteps, 70663u);
    EXPECT_EQ(R.Terminals.size(), 8u);
    EXPECT_TRUE(sameTerminals(R.Terminals, Base.Terminals));
    EXPECT_EQ(R.counters(), Base.counters());
    EXPECT_GT(R.StepMemoHits, 0u);
  }
}

TEST(ParallelEngineTest, DiamondTwoOverThreeShardsMatchesSerial) {
  // With three shards one owner receives from two senders, so duplicate
  // configs reach it along two paths; the owner's dedup alone must keep
  // every counter equal to the serial run.
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  Opts.Por = PorMode::Off;
  Opts.Symmetry = SymMode::Off;
  Opts.Jobs = 1;
  Opts.Shards = 1;
  ProgRef Main = makeSpanRootProg(Case, Ptr(1));
  GlobalState S0 = spanRootState(Case, diamondOf(2));
  RunResult Base = explore(Main, S0, Opts);
  ASSERT_TRUE(Base.complete()) << Base.FailureNote;
  RunResult R = dist::distributedExplore(Main, S0, Opts, {}, 3);
  ASSERT_TRUE(R.complete()) << R.FailureNote;
  EXPECT_TRUE(sameTerminals(R.Terminals, Base.Terminals));
  EXPECT_EQ(R.counters(), Base.counters());
}

TEST(ParallelEngineTest, TreiberPopUnderInterferenceDeterministic) {
  TreiberCase Case = makeTreiberCase(1, 2, /*EnvHistCap=*/2);
  EngineOptions Opts;
  Opts.Ambient = Case.C;
  Opts.EnvInterference = true;
  Opts.Defs = &Case.Defs;
  expectDeterministic(Prog::call("pop", {}),
                      treiberState(Case, {7, 5}, 0, 1), Opts);
}

TEST(ParallelEngineTest, TreiberPushUnderInterferenceDeterministic) {
  TreiberCase Case = makeTreiberCase(1, 2, /*EnvHistCap=*/2);
  EngineOptions Opts;
  Opts.Ambient = Case.C;
  Opts.EnvInterference = true;
  Opts.Defs = &Case.Defs;
  expectDeterministic(
      Prog::call("push", {Expr::litPtr(Ptr(20)), Expr::litInt(4)}),
      treiberState(Case, {}, 1, 1), Opts);
}

namespace {

constexpr Label Pv = 1;
constexpr Label Ct = 2;
const Ptr Cell = Ptr(1);

/// A counter world whose `probe` action is only safe while the counter is
/// below 2: running it after two increments is a seeded safety violation
/// reached mid-exploration, not at the initial configuration.
struct SeededWorld {
  ConcurroidRef C;
  ActionRef Incr;
  ActionRef Probe;
  DefTable Defs;
};

SeededWorld makeSeededWorld() {
  auto Coh = [](const View &S) {
    if (!S.hasLabel(Ct))
      return false;
    const Val *V = S.joint(Ct).tryLookup(Cell);
    if (!V || !V->isInt())
      return false;
    return V->getInt() == static_cast<int64_t>(S.self(Ct).getNat() +
                                               S.other(Ct).getNat());
  };
  auto C = makeConcurroid("SeededCounter",
                          {OwnedLabel{Ct, "ct", PCMType::nat()}}, Coh);
  SeededWorld World;
  World.C = entangle(makePriv(Pv), C);
  World.Incr = makeAction(
      "incr", World.C, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        const Val *V = Pre.joint(Ct).tryLookup(Cell);
        if (!V)
          return std::nullopt;
        View Post = Pre;
        Heap Joint = Pre.joint(Ct);
        Joint.update(Cell, Val::ofInt(V->getInt() + 1));
        Post.setJoint(Ct, std::move(Joint));
        Post.setSelf(Ct, PCMVal::ofNat(Pre.self(Ct).getNat() + 1));
        return std::vector<ActOutcome>{{*V, std::move(Post)}};
      });
  World.Probe = makeAction(
      "probe", World.C, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        const Val *V = Pre.joint(Ct).tryLookup(Cell);
        if (!V || V->getInt() >= 2)
          return std::nullopt; // Unsafe once both increments landed.
        return std::vector<ActOutcome>{{*V, Pre}};
      });
  return World;
}

GlobalState seededState() {
  GlobalState GS;
  GS.addLabel(Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()), false);
  GS.addLabel(Ct, PCMType::nat(), Heap::singleton(Cell, Val::ofInt(0)),
              PCMVal::ofNat(0), false);
  return GS;
}

} // namespace

TEST(ParallelEngineTest, SeededUnsafeProgramKeepsFailureTrace) {
  SeededWorld W = makeSeededWorld();
  // Both increments run in parallel, then the probe fires in a state
  // where it is unsafe; every worker count must find the violation and
  // reconstruct a schedule from the winning worker's parent chain.
  ProgRef P = Prog::seq(Prog::par(Prog::act(W.Incr, {}),
                                  Prog::act(W.Incr, {})),
                        Prog::act(W.Probe, {}));
  for (unsigned Jobs : JobCounts) {
    EngineOptions Opts;
    Opts.Ambient = W.C;
    Opts.EnvInterference = false;
    Opts.Defs = &W.Defs;
    Opts.Jobs = Jobs;
    RunResult R = explore(P, seededState(), Opts);
    EXPECT_FALSE(R.Safe) << "jobs=" << Jobs;
    EXPECT_NE(R.FailureNote.find("probe"), std::string::npos)
        << "jobs=" << Jobs;
    ASSERT_FALSE(R.FailureTrace.empty()) << "jobs=" << Jobs;
    // The failing step closes the schedule, and the two increments that
    // seeded the unsafe state appear before it.
    EXPECT_NE(R.FailureTrace.back().find("UNSAFE"), std::string::npos)
        << "jobs=" << Jobs;
    EXPECT_GE(R.FailureTrace.size(), 3u) << "jobs=" << Jobs;
  }
}

TEST(ParallelEngineTest, ExhaustionReportedFromAnyWorker) {
  SeededWorld W = makeSeededWorld();
  W.Defs.define(
      "count_up",
      FuncDef{{},
              Prog::bind(Prog::act(W.Incr, {}), "v",
                         Prog::ifThenElse(
                             Expr::lt(Expr::litInt(1000), Expr::var("v")),
                             Prog::retUnit(),
                             Prog::call("count_up", {})))});
  for (unsigned Jobs : JobCounts) {
    EngineOptions Opts;
    Opts.Ambient = W.C;
    Opts.EnvInterference = false;
    Opts.Defs = &W.Defs;
    Opts.MaxConfigs = 50;
    Opts.Jobs = Jobs;
    RunResult R = explore(Prog::call("count_up", {}), seededState(), Opts);
    EXPECT_TRUE(R.Exhausted) << "jobs=" << Jobs;
    EXPECT_FALSE(R.complete()) << "jobs=" << Jobs;
    EXPECT_LE(R.ConfigsExplored, 50u) << "jobs=" << Jobs;
  }
}

TEST(ParallelEngineTest, VerifyTripleInstanceFanoutMatchesSerial) {
  TreiberCase Case = makeTreiberCase(1, 2, /*EnvHistCap=*/2);
  Spec S;
  S.Name = "pop_total";
  S.C = Case.C;
  S.Pre = assertTrue();
  S.PostName = "pop returns a (flag, value) pair";
  S.Post = [](const Val &R, const View &, const View &) {
    return R.isPair() && R.first().isBool();
  };
  ProgRef Main = Prog::call("pop", {});
  std::vector<VerifyInstance> Instances = {
      VerifyInstance{treiberState(Case, {}, 0, 1), {}},
      VerifyInstance{treiberState(Case, {5}, 0, 1), {}},
      VerifyInstance{treiberState(Case, {7, 5}, 0, 1), {}}};

  EngineOptions Opts;
  Opts.Ambient = Case.C;
  Opts.EnvInterference = true;
  Opts.Defs = &Case.Defs;
  Opts.Jobs = 1;
  VerifyResult Serial = verifyTriple(Main, S, Instances, Opts);
  ASSERT_TRUE(Serial.Holds) << Serial.FailureNote;
  for (unsigned Jobs : {2u, 8u}) {
    Opts.Jobs = Jobs;
    VerifyResult R = verifyTriple(Main, S, Instances, Opts);
    EXPECT_EQ(R.Holds, Serial.Holds) << "jobs=" << Jobs;
    EXPECT_EQ(R.InstancesChecked, Serial.InstancesChecked);
    EXPECT_EQ(R.ConfigsExplored, Serial.ConfigsExplored);
    EXPECT_EQ(R.ActionSteps, Serial.ActionSteps);
    EXPECT_EQ(R.EnvSteps, Serial.EnvSteps);
    EXPECT_EQ(R.TerminalsChecked, Serial.TerminalsChecked);
  }

  Opts.Jobs = 2;
  std::vector<size_t> Pre =
      inferPre(Main, S.Post, Instances, Opts);
  Opts.Jobs = 1;
  EXPECT_EQ(Pre, inferPre(Main, S.Post, Instances, Opts));
}
