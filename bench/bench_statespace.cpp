//===- bench/bench_statespace.cpp - Exploration-cost ablation --------------===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
// An ablation unique to the model-checking substitution: how the explored
// state space grows with instance size, how much the closed-world `hide`
// (no interference) saves over open-world verification — the quantitative
// counterpart of the paper's point that hiding removes the need to
// consider external interference — and how the multi-worker engine scales
// with the job count. Emits BENCH_statespace.json (machine-readable
// wall-clock, states/sec and speedup per job count) so the perf
// trajectory is tracked across PRs.
//
//===----------------------------------------------------------------------===//

#include "concurroid/Entangle.h"
#include "concurroid/Priv.h"
#include "structures/SpanTree.h"
#include "support/Format.h"
#include "support/Intern.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>

#include <sys/resource.h>

using namespace fcsl;

namespace {

Heap chainOf(unsigned N) {
  std::vector<GraphNode> Nodes;
  for (unsigned I = 1; I <= N; ++I)
    Nodes.push_back(GraphNode{Ptr(I),
                              I < N ? Ptr(I + 1) : Ptr::null(),
                              Ptr::null()});
  return buildGraph(Nodes);
}

Heap diamondOf(unsigned Layers) {
  // 1 -> (2, 3); 2 -> 4; 3 -> 4; 4 -> (5, 6); ... a chain of diamonds.
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

struct GrowthRow {
  std::string Graph;
  size_t Nodes = 0;
  uint64_t Configs = 0;
  uint64_t ActionSteps = 0;
  size_t Terminals = 0;
  double Ms = 0.0;
  uint64_t VisitedBytes = 0;
};

/// Peak resident set size of this process in kilobytes (ru_maxrss is KB
/// on Linux).
uint64_t peakRssKb() {
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0;
  return static_cast<uint64_t>(Usage.ru_maxrss);
}

struct PorRow {
  std::string Graph;
  uint64_t ConfigsFull = 0;
  uint64_t ConfigsReduced = 0;
  double MsFull = 0.0;
  double MsReduced = 0.0;
  bool Identical = true; ///< reduced terminals + verdict match the full run.
};

struct SweepRow {
  unsigned Jobs = 0;      ///< requested worker count.
  unsigned Effective = 0; ///< what effectiveJobs() resolved it to.
  double Ms = 0.0;
  uint64_t Configs = 0;
  double StatesPerSec = 0.0;
  double Speedup = 1.0;
  bool Identical = true; ///< terminals + verdict match the Jobs=1 run.
  uint64_t MemoHits = 0;    ///< thread steps served from the step memo.
  uint64_t MemoEntries = 0; ///< (thread, context, state) keys recorded.
};

struct SymRow {
  std::string Suite;
  uint64_t ConfigsFull = 0;
  uint64_t ConfigsCanonical = 0;
  double MsFull = 0.0;
  double MsCanonical = 0.0;
  uint64_t OrbitLookups = 0;
  bool Identical = true; ///< canonical terminals + verdict match the full run.
};

//===----------------------------------------------------------------------===//
// A tiny counter world with interchangeable incrementing siblings: the
// symmetric workload for the symmetry-reduction section. (span_root's par
// subtrees take different arguments, so its orbits are singletons.)
//===----------------------------------------------------------------------===//

constexpr Label CtPv = 1;
constexpr Label Ct = 2;
const Ptr CtCell = Ptr(1);

struct CounterWorld {
  ConcurroidRef C;
  ActionRef Incr;
  DefTable Defs;
};

CounterWorld makeCounterWorld() {
  auto Coh = [](const View &S) {
    if (!S.hasLabel(Ct))
      return false;
    const Val *V = S.joint(Ct).tryLookup(CtCell);
    if (!V || !V->isInt())
      return false;
    return V->getInt() == static_cast<int64_t>(S.self(Ct).getNat() +
                                               S.other(Ct).getNat());
  };
  auto C =
      makeConcurroid("Counter", {OwnedLabel{Ct, "ct", PCMType::nat()}}, Coh);
  C->addTransition(Transition(
      "bump", TransitionKind::Internal,
      [](const View &) -> std::vector<View> { return {}; },
      [](const View &Pre, const View &Post) {
        if (!Pre.hasLabel(Ct) || !Post.hasLabel(Ct))
          return false;
        for (Label L : Pre.labels())
          if (L != Ct && !(Pre.slice(L) == Post.slice(L)))
            return false;
        return Post.joint(Ct).lookup(CtCell).getInt() ==
                   Pre.joint(Ct).lookup(CtCell).getInt() + 1 &&
               Post.self(Ct).getNat() == Pre.self(Ct).getNat() + 1 &&
               Pre.other(Ct) == Post.other(Ct);
      }));

  CounterWorld World;
  World.C = entangle(makePriv(CtPv), C);
  World.Incr = makeAction(
      "incr", World.C, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        const Val *V = Pre.joint(Ct).tryLookup(CtCell);
        if (!V)
          return std::nullopt;
        View Post = Pre;
        Heap Joint = Pre.joint(Ct);
        Joint.update(CtCell, Val::ofInt(V->getInt() + 1));
        Post.setJoint(Ct, std::move(Joint));
        Post.setSelf(Ct, PCMVal::ofNat(Pre.self(Ct).getNat() + 1));
        return std::vector<ActOutcome>{{*V, std::move(Post)}};
      });
  return World;
}

GlobalState counterState() {
  GlobalState GS;
  GS.addLabel(CtPv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()), false);
  GS.addLabel(Ct, PCMType::nat(), Heap::singleton(CtCell, Val::ofInt(0)),
              PCMVal::ofNat(0), false);
  return GS;
}

/// A balanced symmetric par tree of 2^Depth interchangeable incrementing
/// leaves. Subtrees are shared nodes: par children are opaque to
/// structural comparison, so sharing is how nested symmetry is expressed.
ProgRef symmetricIncrTree(const CounterWorld &W, unsigned Depth) {
  ProgRef P = Prog::act(W.Incr, {});
  for (unsigned D = 0; D < Depth; ++D)
    P = Prog::par(P, P);
  return P;
}

bool sameTerminals(const std::vector<Terminal> &A,
                   const std::vector<Terminal> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0, N = A.size(); I != N; ++I)
    if (A[I] < B[I] || B[I] < A[I])
      return false;
  return true;
}

/// Runs per timed exploration of the jobs sweep and the POR table; the
/// time reported is their median, as in bench_table1, so one preempted
/// run on a shared host does not move it.
constexpr unsigned Repeats = 5;

/// Explores \p Main from \p S0 Repeats times under \p Opts and returns
/// the first run, with the median wall time in \p Ms. A repeat whose
/// verdict, terminals or config count differ from the first run's
/// clears \p Ok.
RunResult timedExplore(const ProgRef &Main, const GlobalState &S0,
                       const EngineOptions &Opts, double &Ms, bool &Ok) {
  RunResult First;
  std::vector<double> Times;
  for (unsigned I = 0; I != Repeats; ++I) {
    Timer T;
    RunResult R = explore(Main, S0, Opts);
    Times.push_back(T.elapsedMs());
    if (I == 0)
      First = std::move(R);
    else
      Ok &= R.Safe == First.Safe &&
            R.ConfigsExplored == First.ConfigsExplored &&
            sameTerminals(R.Terminals, First.Terminals);
  }
  std::sort(Times.begin(), Times.end());
  Ms = Times[Repeats / 2];
  return First;
}

} // namespace

int main() {
  std::printf("state-space growth of exhaustive span_root verification\n");
  std::printf("=======================================================\n\n");

  TextTable Table;
  Table.setHeader({"graph", "nodes", "configs", "action steps",
                   "outcomes", "time (ms)", "visited KB"});
  for (unsigned I = 1; I <= 6; ++I)
    Table.setRightAligned(I);

  std::vector<GrowthRow> Rows;
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  auto RunOne = [&](const char *Name, const Heap &G) {
    Timer T;
    ProgRef Main = makeSpanRootProg(Case, Ptr(1));
    EngineOptions Opts;
    Opts.Ambient = Case.PrivOnly;
    Opts.EnvInterference = false;
    Opts.Defs = &Case.Defs;
    RunResult R = explore(Main, spanRootState(Case, G), Opts);
    double Ms = T.elapsedMs();
    Table.addRow({Name, std::to_string(G.size()),
                  std::to_string(R.ConfigsExplored),
                  std::to_string(R.ActionSteps),
                  std::to_string(R.Terminals.size()),
                  formatString("%.1f", Ms),
                  std::to_string(R.VisitedBytes / 1024)});
    Rows.push_back(GrowthRow{Name, G.size(), R.ConfigsExplored,
                             R.ActionSteps, R.Terminals.size(), Ms,
                             R.VisitedBytes});
    return R.complete();
  };

  bool Ok = true;
  Ok &= RunOne("chain-2", chainOf(2));
  Ok &= RunOne("chain-4", chainOf(4));
  Ok &= RunOne("chain-6", chainOf(6));
  Ok &= RunOne("diamond-1", diamondOf(1));
  Ok &= RunOne("diamond-2", diamondOf(2));
  Ok &= RunOne("figure-2", figure2Graph());
  std::printf("%s\n", Table.render().c_str());

  // Multi-worker scaling on the largest instance: sweep the job count
  // from 1 to hardware_concurrency (at least 4 so the sweep is
  // informative on small machines) and verify the results are
  // bit-identical at every job count. Each time is a median of Repeats.
  std::printf("parallel exploration sweep, diamond-3 (largest "
              "instance):\n");
  std::vector<SweepRow> Sweep;
  {
    Heap G = diamondOf(3);
    ProgRef Main = makeSpanRootProg(Case, Ptr(1));
    GlobalState S0 = spanRootState(Case, G);
    std::vector<unsigned> JobList;
    unsigned MaxJobs = std::max(4u, hardwareJobs());
    for (unsigned J = 1; J <= MaxJobs; J *= 2)
      JobList.push_back(J);
    if (JobList.back() != MaxJobs)
      JobList.push_back(MaxJobs);

    TextTable SweepTable;
    SweepTable.setHeader({"jobs", "effective", "configs", "time (ms)",
                          "states/sec", "speedup", "memo hits",
                          "memo entries", "identical"});
    for (unsigned I = 0; I <= 7; ++I)
      SweepTable.setRightAligned(I);

    RunResult Base;
    double BaseMs = 0.0;
    for (unsigned Jobs : JobList) {
      EngineOptions Opts;
      Opts.Ambient = Case.PrivOnly;
      Opts.EnvInterference = false;
      Opts.Defs = &Case.Defs;
      // Route the requested count through the oversubscription guard: on
      // a single-core host (or for a tiny instance) the sweep degrades to
      // serial instead of paying for idle workers. The Jobs=1 baseline
      // runs first, so its config count sizes the work estimate.
      unsigned Effective = effectiveJobs(Jobs, Base.ConfigsExplored);
      if (Jobs == 1)
        Effective = 1;
      Opts.Jobs = Effective;
      double Ms = 0.0;
      RunResult R = timedExplore(Main, S0, Opts, Ms, Ok);
      Ok &= R.complete();
      if (Jobs == 1) {
        Base = R;
        BaseMs = Ms;
      }
      SweepRow Row;
      Row.Jobs = Jobs;
      Row.Effective = Effective;
      Row.Ms = Ms;
      Row.Configs = R.ConfigsExplored;
      Row.StatesPerSec = Ms > 0 ? R.ConfigsExplored * 1000.0 / Ms : 0;
      Row.Speedup = Ms > 0 ? BaseMs / Ms : 1.0;
      Row.MemoHits = R.StepMemoHits;
      Row.MemoEntries = R.StepMemoEntries;
      Row.Identical = R.Safe == Base.Safe &&
                      R.Exhausted == Base.Exhausted &&
                      R.ConfigsExplored == Base.ConfigsExplored &&
                      sameTerminals(R.Terminals, Base.Terminals);
      Ok &= Row.Identical;
      Sweep.push_back(Row);
      SweepTable.addRow({std::to_string(Jobs),
                         std::to_string(Row.Effective),
                         std::to_string(Row.Configs),
                         formatString("%.1f", Row.Ms),
                         formatString("%.0f", Row.StatesPerSec),
                         formatString("%.2fx", Row.Speedup),
                         std::to_string(Row.MemoHits),
                         std::to_string(Row.MemoEntries),
                         Row.Identical ? "yes" : "NO"});
    }
    std::printf("%s\n", SweepTable.render().c_str());
  }

  // Partial-order reduction: full vs reduced exploration per instance.
  // The reduction must preserve verdict and terminals exactly; the ratio
  // column is the headline number (diamonds are the commuting-heavy best
  // case, chains the adversarial worst case). Times are medians of
  // Repeats.
  std::printf("partial-order reduction, full vs reduced exploration:\n");
  std::vector<PorRow> PorRows;
  {
    TextTable PorTable;
    PorTable.setHeader({"graph", "full cfgs", "reduced cfgs", "ratio",
                        "full ms", "reduced ms", "identical"});
    for (unsigned I = 1; I <= 5; ++I)
      PorTable.setRightAligned(I);
    auto RunPor = [&](const char *Name, const Heap &G) {
      ProgRef Main = makeSpanRootProg(Case, Ptr(1));
      EngineOptions Opts;
      Opts.Ambient = Case.PrivOnly;
      Opts.EnvInterference = false;
      Opts.Defs = &Case.Defs;
      GlobalState S0 = spanRootState(Case, G);
      Opts.Por = PorMode::Off;
      double MsFull = 0.0;
      RunResult Full = timedExplore(Main, S0, Opts, MsFull, Ok);
      Opts.Por = PorMode::On;
      double MsRed = 0.0;
      RunResult Red = timedExplore(Main, S0, Opts, MsRed, Ok);
      PorRow Row;
      Row.Graph = Name;
      Row.ConfigsFull = Full.ConfigsExplored;
      Row.ConfigsReduced = Red.ConfigsExplored;
      Row.MsFull = MsFull;
      Row.MsReduced = MsRed;
      Row.Identical = Full.Safe == Red.Safe &&
                      Full.Exhausted == Red.Exhausted &&
                      sameTerminals(Full.Terminals, Red.Terminals);
      PorRows.push_back(Row);
      PorTable.addRow(
          {Name, std::to_string(Row.ConfigsFull),
           std::to_string(Row.ConfigsReduced),
           formatString("%.3f", Row.ConfigsFull
                                    ? double(Row.ConfigsReduced) /
                                          double(Row.ConfigsFull)
                                    : 1.0),
           formatString("%.1f", MsFull), formatString("%.1f", MsRed),
           Row.Identical ? "yes" : "NO"});
      return Full.complete() && Red.complete() && Row.Identical;
    };
    Ok &= RunPor("chain-4", chainOf(4));
    Ok &= RunPor("chain-6", chainOf(6));
    Ok &= RunPor("diamond-1", diamondOf(1));
    Ok &= RunPor("diamond-2", diamondOf(2));
    Ok &= RunPor("diamond-3", diamondOf(3));
    Ok &= RunPor("figure-2", figure2Graph());
    std::printf("%s\n", PorTable.render().c_str());
  }

  // Symmetry reduction (DESIGN.md §11): orbit canonicalization of
  // interchangeable incrementing siblings, full vs canonical exploration.
  // span_root rides along as the no-symmetry control.
  std::printf("symmetry reduction, full vs canonical exploration:\n");
  std::vector<SymRow> SymRows;
  struct {
    uint64_t Configs = 0;
    double Ms = 0.0;
    bool Identical = true;
  } AllOnRow; ///< counter-quad under POR + symmetry composed.
  {
    CounterWorld W = makeCounterWorld();
    EngineOptions CtOpts;
    CtOpts.Ambient = W.C;
    CtOpts.EnvInterference = false;
    CtOpts.Defs = &W.Defs;
    CtOpts.Jobs = 1;

    TextTable SymTable;
    SymTable.setHeader({"suite", "full cfgs", "canonical cfgs", "ratio",
                        "lookups", "identical"});
    for (unsigned I = 1; I <= 4; ++I)
      SymTable.setRightAligned(I);

    auto RunSym = [&](const char *Name, const ProgRef &Main,
                      const GlobalState &S0, EngineOptions Opts) {
      Opts.Symmetry = SymMode::Off;
      Timer TF;
      RunResult Full = explore(Main, S0, Opts);
      double MsF = TF.elapsedMs();
      SymmetryStats Before = symmetryStats();
      Opts.Symmetry = SymMode::On;
      Timer TC;
      RunResult Canon = explore(Main, S0, Opts);
      double MsC = TC.elapsedMs();
      SymmetryStats After = symmetryStats();
      SymRow Row;
      Row.Suite = Name;
      Row.ConfigsFull = Full.ConfigsExplored;
      Row.ConfigsCanonical = Canon.ConfigsExplored;
      Row.MsFull = MsF;
      Row.MsCanonical = MsC;
      Row.OrbitLookups = After.Lookups - Before.Lookups;
      Row.Identical = Full.Safe == Canon.Safe &&
                      Full.Exhausted == Canon.Exhausted &&
                      sameTerminals(Full.Terminals, Canon.Terminals);
      Ok &= Full.complete() && Canon.complete() && Row.Identical;
      SymRows.push_back(Row);
      SymTable.addRow(
          {Name, std::to_string(Row.ConfigsFull),
           std::to_string(Row.ConfigsCanonical),
           formatString("%.3f", Row.ConfigsFull
                                    ? double(Row.ConfigsCanonical) /
                                          double(Row.ConfigsFull)
                                    : 1.0),
           std::to_string(Row.OrbitLookups), Row.Identical ? "yes" : "NO"});
    };

    RunSym("counter-pair", symmetricIncrTree(W, 1), counterState(), CtOpts);
    RunSym("counter-quad", symmetricIncrTree(W, 2), counterState(), CtOpts);
    {
      EngineOptions SpanOpts;
      SpanOpts.Ambient = Case.PrivOnly;
      SpanOpts.EnvInterference = false;
      SpanOpts.Defs = &Case.Defs;
      SpanOpts.Jobs = 1;
      RunSym("span-diamond-1", makeSpanRootProg(Case, Ptr(1)),
             spanRootState(Case, diamondOf(1)), SpanOpts);
    }
    std::printf("%s\n", SymTable.render().c_str());

    // Reduction floor: the quad's 4-leaf spine collapses its 4!-per-step
    // schedules into a handful of representatives; regressing past 20
    // canonical configs means the k-ary group machinery stopped folding.
    if (SymRows[1].ConfigsCanonical > 20) {
      std::printf("  FAIL: counter-quad canonical configs %llu above the "
                  "20-config floor\n",
                  static_cast<unsigned long long>(
                      SymRows[1].ConfigsCanonical));
      Ok = false;
    }

    // All reductions composed: POR exploring the canonical
    // space. Must agree with the plain full run on verdict + terminals
    // and must not explore more configs than symmetry alone.
    std::printf("all reductions composed on counter-quad "
                "(--por=on --symmetry=on):\n");
    {
      ProgRef Quad = symmetricIncrTree(W, 2);
      EngineOptions FullOpts = CtOpts;
      FullOpts.Symmetry = SymMode::Off;
      RunResult Full = explore(Quad, counterState(), FullOpts);
      EngineOptions AllOnOpts = CtOpts;
      AllOnOpts.Por = PorMode::On;
      AllOnOpts.Symmetry = SymMode::On;
      Timer TA;
      RunResult AllOn = explore(Quad, counterState(), AllOnOpts);
      AllOnRow.Ms = TA.elapsedMs();
      AllOnRow.Configs = AllOn.ConfigsExplored;
      AllOnRow.Identical = Full.Safe == AllOn.Safe &&
                           Full.Exhausted == AllOn.Exhausted &&
                           sameTerminals(Full.Terminals, AllOn.Terminals);
      Ok &= Full.complete() && AllOn.complete() && AllOnRow.Identical &&
            AllOnRow.Configs <= SymRows[1].ConfigsCanonical;
      std::printf("  %llu configs (symmetry alone: %llu), %.1f ms, "
                  "identical: %s\n\n",
                  static_cast<unsigned long long>(AllOnRow.Configs),
                  static_cast<unsigned long long>(
                      SymRows[1].ConfigsCanonical),
                  AllOnRow.Ms, AllOnRow.Identical ? "yes" : "NO");
    }
  }

  // Randomized simulation past the exhaustive frontier: the same model
  // program, sampled schedules, instances exploration cannot touch.
  std::printf("randomized simulation of span_root beyond the exhaustive "
              "frontier:\n");
  {
    TextTable SimTable;
    SimTable.setHeader({"nodes", "seeds", "spanning trees", "avg steps",
                        "time (ms)"});
    for (unsigned I = 0; I <= 4; ++I)
      SimTable.setRightAligned(I);
    Rng GraphRng(0x600d);
    for (unsigned N : {8u, 16u, 32u, 64u}) {
      Heap G = randomGraph(N, GraphRng, /*ConnectedFromRoot=*/true);
      Timer T;
      unsigned Spanning = 0;
      uint64_t TotalSteps = 0;
      const unsigned Seeds = 20;
      for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
        EngineOptions Opts;
        Opts.Ambient = Case.PrivOnly;
        Opts.EnvInterference = false;
        Opts.Defs = &Case.Defs;
        SimResult Sim = simulate(makeSpanRootProg(Case, Ptr(1)),
                                 spanRootState(Case, G), Opts, Seed);
        TotalSteps += Sim.Steps;
        if (!Sim.Safe || !Sim.Terminated)
          continue;
        const Heap &G2 = Sim.FinalView.self(1).getHeap();
        PtrSet All;
        for (const auto &Cell : G2)
          All.insert(Cell.first);
        Spanning += isTreeIn(G2, Ptr(1), All);
      }
      SimTable.addRow({std::to_string(N), std::to_string(Seeds),
                       std::to_string(Spanning),
                       std::to_string(TotalSteps / Seeds),
                       formatString("%.1f", T.elapsedMs())});
      Ok &= Spanning == Seeds;
    }
    std::printf("%s\n", SimTable.render().c_str());
  }

  // Open vs closed world on a 3-node instance.
  std::printf("open-world (interference) vs closed-world (hide) cost, "
              "3-node graph:\n");
  Heap G3 = chainOf(3);
  {
    Timer T;
    EngineOptions Opts;
    Opts.Ambient = Case.Open;
    Opts.EnvInterference = true;
    Opts.Defs = &Case.Defs;
    RunResult R = explore(Prog::call("span", {Expr::litPtr(Ptr(1))}),
                          spanOpenState(Case, G3, {}), Opts);
    std::printf("  open:   %8llu configs  %7.1f ms\n",
                static_cast<unsigned long long>(R.ConfigsExplored),
                T.elapsedMs());
    Ok &= R.complete();
  }
  {
    Timer T;
    EngineOptions Opts;
    Opts.Ambient = Case.PrivOnly;
    Opts.EnvInterference = false;
    Opts.Defs = &Case.Defs;
    RunResult R = explore(makeSpanRootProg(Case, Ptr(1)),
                          spanRootState(Case, G3), Opts);
    std::printf("  hidden: %8llu configs  %7.1f ms\n",
                static_cast<unsigned long long>(R.ConfigsExplored),
                T.elapsedMs());
    Ok &= R.complete();
  }

  // Machine-readable trajectory for cross-PR tracking.
  if (std::FILE *F = std::fopen("BENCH_statespace.json", "w")) {
    std::fprintf(F, "{\n  \"bench\": \"statespace\",\n");
    std::fprintf(F, "  \"hardware_concurrency\": %u,\n", hardwareJobs());
    std::fprintf(F, "  \"repeats\": %u,\n", Repeats);
    std::fprintf(F, "  \"growth\": [\n");
    for (size_t I = 0; I != Rows.size(); ++I) {
      const GrowthRow &R = Rows[I];
      std::fprintf(F,
                   "    {\"graph\": \"%s\", \"nodes\": %zu, \"configs\": "
                   "%llu, \"action_steps\": %llu, \"terminals\": %zu, "
                   "\"ms\": %.2f, \"visited_bytes\": %llu}%s\n",
                   R.Graph.c_str(), R.Nodes,
                   static_cast<unsigned long long>(R.Configs),
                   static_cast<unsigned long long>(R.ActionSteps),
                   R.Terminals, R.Ms,
                   static_cast<unsigned long long>(R.VisitedBytes),
                   I + 1 == Rows.size() ? "" : ",");
    }
    std::fprintf(F, "  ],\n");
    std::fprintf(F, "  \"jobs_sweep\": {\"graph\": \"diamond-3\", "
                    "\"runs\": [\n");
    for (size_t I = 0; I != Sweep.size(); ++I) {
      const SweepRow &R = Sweep[I];
      std::fprintf(F,
                   "    {\"jobs\": %u, \"effective_jobs\": %u, "
                   "\"ms\": %.2f, \"configs\": %llu, "
                   "\"states_per_sec\": %.0f, \"speedup\": %.3f, "
                   "\"step_memo_hits\": %llu, "
                   "\"step_memo_entries\": %llu, \"identical\": %s}%s\n",
                   R.Jobs, R.Effective, R.Ms,
                   static_cast<unsigned long long>(R.Configs),
                   R.StatesPerSec, R.Speedup,
                   static_cast<unsigned long long>(R.MemoHits),
                   static_cast<unsigned long long>(R.MemoEntries),
                   R.Identical ? "true" : "false",
                   I + 1 == Sweep.size() ? "" : ",");
    }
    std::fprintf(F, "  ]},\n");
    std::fprintf(F, "  \"por\": [\n");
    for (size_t I = 0; I != PorRows.size(); ++I) {
      const PorRow &R = PorRows[I];
      std::fprintf(F,
                   "    {\"graph\": \"%s\", \"configs_full\": %llu, "
                   "\"configs_reduced\": %llu, \"ratio\": %.3f, "
                   "\"ms_full\": %.2f, \"ms_reduced\": %.2f, "
                   "\"identical\": %s}%s\n",
                   R.Graph.c_str(),
                   static_cast<unsigned long long>(R.ConfigsFull),
                   static_cast<unsigned long long>(R.ConfigsReduced),
                   R.ConfigsFull
                       ? double(R.ConfigsReduced) / double(R.ConfigsFull)
                       : 1.0,
                   R.MsFull, R.MsReduced, R.Identical ? "true" : "false",
                   I + 1 == PorRows.size() ? "" : ",");
    }
    std::fprintf(F, "  ],\n");
    std::fprintf(F, "  \"symmetry\": {\"suites\": [\n");
    for (size_t I = 0; I != SymRows.size(); ++I) {
      const SymRow &R = SymRows[I];
      std::fprintf(F,
                   "    {\"suite\": \"%s\", \"configs_full\": %llu, "
                   "\"configs_canonical\": %llu, \"ratio\": %.3f, "
                   "\"orbit_lookups\": %llu, "
                   "\"ms_full\": %.2f, \"ms_canonical\": %.2f, "
                   "\"identical\": %s}%s\n",
                   R.Suite.c_str(),
                   static_cast<unsigned long long>(R.ConfigsFull),
                   static_cast<unsigned long long>(R.ConfigsCanonical),
                   R.ConfigsFull ? double(R.ConfigsCanonical) /
                                       double(R.ConfigsFull)
                                 : 1.0,
                   static_cast<unsigned long long>(R.OrbitLookups),
                   R.MsFull, R.MsCanonical,
                   R.Identical ? "true" : "false",
                   I + 1 == SymRows.size() ? "" : ",");
    }
    std::fprintf(F,
                 "  ], \"all_on\": {\"suite\": \"counter-quad\", "
                 "\"configs\": %llu, \"ms\": %.2f, \"identical\": %s}},\n",
                 static_cast<unsigned long long>(AllOnRow.Configs),
                 AllOnRow.Ms, AllOnRow.Identical ? "true" : "false");
    InternStats IS = internStats();
    std::fprintf(F,
                 "  \"memory\": {\"peak_rss_kb\": %llu, "
                 "\"peak_visited_configs\": %llu, "
                 "\"peak_visited_bytes\": %llu, "
                 "\"intern_requests\": %llu, \"intern_nodes\": %llu, "
                 "\"dedup_ratio\": %.3f}\n",
                 static_cast<unsigned long long>(peakRssKb()),
                 static_cast<unsigned long long>(peakVisitedNodes()),
                 static_cast<unsigned long long>(peakVisitedBytes()),
                 static_cast<unsigned long long>(IS.totalRequests()),
                 static_cast<unsigned long long>(IS.totalNodes()),
                 IS.dedupRatio());
    std::fprintf(F, "}\n");
    std::fclose(F);
    std::printf("wrote BENCH_statespace.json\n");
    std::printf("peak RSS: %llu KB; peak visited set: %llu configs, "
                "%llu bytes; intern dedup %.2fx\n",
                static_cast<unsigned long long>(peakRssKb()),
                static_cast<unsigned long long>(peakVisitedNodes()),
                static_cast<unsigned long long>(peakVisitedBytes()),
                IS.dedupRatio());
  }
  return Ok ? 0 : 1;
}
