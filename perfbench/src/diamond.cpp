//===- perfbench/src/diamond.cpp - The diamond-3 exploration workload -----===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `diamond3`: closed-world span_root on a chain of three diamonds, the
/// largest exhaustive exploration the repository runs. Each sample
/// explores it, in a seeded order, serially (j1) and across two shard
/// processes (sh2); traced runs add a two-worker exploration (j2), which
/// varies too much from run to run (0.64-1.59 s on a 4-core host) to sit
/// under an end-to-end bound. One operation is one exploration; the timed
/// unit is the j1 exploration.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "graph/GraphGen.h"
#include "structures/SpanTree.h"

#include <memory>

using namespace fcsl;
using namespace pb;

namespace {

/// Golden values of the full diamond-3 exploration; every way of
/// exploring it must reproduce them exactly.
constexpr uint64_t GoldenConfigs = 20711;
constexpr uint64_t GoldenActionSteps = 70663;
constexpr uint64_t GoldenTerminals = 8;

enum class Way { J1, J2, Sh2 };
const char *wayName(Way W) {
  return W == Way::J1 ? "j1" : W == Way::J2 ? "j2" : "sh2";
}

/// 1 -> (2, 3); 2 -> 4; 3 -> 4; 4 -> (5, 6); ... a chain of diamonds.
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

/// The program, state and options of one diamond-3 exploration. Opts
/// points into Case, so a World stays where it was built.
struct World {
  World()
      : Case(makeSpanTreeCase(1, 2)), Main(makeSpanRootProg(Case, Ptr(1))),
        Initial(spanRootState(Case, diamondOf(3))) {
    Opts.Ambient = Case.PrivOnly;
    Opts.EnvInterference = false;
    Opts.Defs = &Case.Defs;
    Opts.Jobs = 1;
    Opts.Shards = 1;
    Opts.Por = PorMode::Off;
    Opts.Symmetry = SymMode::Off;
  }
  World(const World &) = delete;
  World &operator=(const World &) = delete;

  SpanTreeCase Case;
  ProgRef Main;
  GlobalState Initial;
  EngineOptions Opts;
};

RunResult exploreWay(const World &W, Way How, Tracer &T, bool Traced,
                     uint64_t Parent) {
  if (How == Way::Sh2) {
    Span S(T, Traced, "dist_explore", Parent, "sh2");
    return dist::distributedExplore(W.Main, W.Initial, W.Opts, {}, 2);
  }
  Span S(T, Traced, "explore", Parent, wayName(How));
  EngineOptions Opts = W.Opts;
  Opts.Jobs = How == Way::J2 ? 2 : 1;
  return explore(W.Main, W.Initial, Opts);
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

std::string check(const RunResult &Got, const RunResult &Ref, Way How,
                  uint64_t Configs) {
  if (!Got.complete())
    return strFormat("%s: exploration incomplete (safe=%d exhausted=%d)",
                     wayName(How), Got.Safe, Got.Exhausted);
  if (Got.ConfigsExplored != Configs || Got.ActionSteps != GoldenActionSteps ||
      Got.Terminals.size() != GoldenTerminals)
    return strFormat(
        "%s: %llu configs / %llu action steps / %zu terminals, golden "
        "%llu / %llu / %llu",
        wayName(How), static_cast<unsigned long long>(Got.ConfigsExplored),
        static_cast<unsigned long long>(Got.ActionSteps),
        Got.Terminals.size(), static_cast<unsigned long long>(Configs),
        static_cast<unsigned long long>(GoldenActionSteps),
        static_cast<unsigned long long>(GoldenTerminals));
  if (!sameTerminals(Got.Terminals, Ref.Terminals) ||
      Got.counters() != Ref.counters())
    return strFormat("%s: terminals or counters differ from the "
                     "serial exploration",
                     wayName(How));
  return "";
}

} // namespace

Result pb::runDiamond(const RunConfig &Cfg, Tracer &T) {
  Result R;
  uint64_t Configs = GoldenConfigs + (Cfg.InjectBadGolden ? 1 : 0);

  // Set-up: build the graph, program and state, and explore once serially
  // (the reference run; it also fills the intern arenas).
  std::unique_ptr<World> W;
  RunResult Ref;
  R.Host.sample();
  for (unsigned Rep = 0; Rep != Cfg.SetupReps; ++Rep) {
    Clock::time_point T0 = Clock::now();
    W = std::make_unique<World>();
    Ref = exploreWay(*W, Way::J1, T, false, 0);
    R.setupDone(T0);
    std::string Why = check(Ref, Ref, Way::J1, Configs);
    R.op(Why.empty(), "set-up: " + Why);
  }

  std::map<Way, std::vector<Timed>> Runs;
  std::map<Way, RunResult> LastRun;
  uint64_t ExploredConfigs = 0, Suppressed = 0;
  OverheadProbe Probe;
  CounterSnapshot Before = CounterSnapshot::take();
  Clock::time_point Start = Clock::now();
  Rng Order(Cfg.Seed, 1);
  for (uint64_t Sample = 0;
       Sample == 0 || msSince(Start) < Cfg.Seconds * 1000; ++Sample) {
    bool Traced = Cfg.Trace && Sample % 2 == 0;
    std::vector<Way> Ways = {Way::J1, Way::Sh2};
    if (Cfg.Trace)
      Ways.push_back(Way::J2);
    Order.shuffle(Ways);
    Span S(T, Traced, "sample", 0);
    Clock::time_point S0 = Clock::now();
    for (Way How : Ways) {
      R.Host.sampleEvery(0.5);
      Clock::time_point T0 = Clock::now();
      RunResult Got = exploreWay(*W, How, T, Traced, S.id());
      Runs[How].push_back(Timed{msSince(T0), Clock::now()});
      ExploredConfigs += Got.ConfigsExplored;
      if (How == Way::Sh2)
        for (const dist::ShardExchange &X : dist::fleetTotals().LastRun)
          Suppressed += X.SuppressedSends;
      std::string Why = check(Got, Ref, How, Configs);
      R.op(Why.empty(), Why);
      LastRun[How] = std::move(Got);
    }
    if (Cfg.Trace)
      Probe.add(Traced, msSince(S0));
  }
  R.Host.sample();
  CounterSnapshot After = CounterSnapshot::take();

  double ScaledMs = 0;
  std::map<Way, std::vector<double>> Ms; // raw, for the per-layer figures.
  for (const auto &[How, Timings] : Runs) {
    double P50 = R.latency(std::string("explore_") + wayName(How) + "_ms",
                           Timings, 1.0, "ms", How == Way::J1);
    R.line("explore_%s_states_per_s = %.1f 1/s (%llu configs)", wayName(How),
           double(GoldenConfigs) / (P50 / 1000.0),
           static_cast<unsigned long long>(GoldenConfigs));
    for (const Timed &X : Timings) {
      Ms[How].push_back(X.Ms);
      ScaledMs += R.Host.scaled(X.Ms, X.End);
    }
  }
  R.EndToEnd["throughput_per_s"] = {double(ExploredConfigs) /
                                        (ScaledMs / 1000.0),
                                    "1/s"};

  if (!Cfg.Trace)
    return R;

  // Per-layer metrics, per exploration.
  const RunResult &J1 = LastRun[Way::J1];
  double Explorations = double(Ms[Way::J1].size() + Ms[Way::J2].size() +
                               Ms[Way::Sh2].size());
  R.setLayer("prog.configs", double(J1.ConfigsExplored));
  R.setLayer("prog.action_steps", double(J1.ActionSteps));
  R.setLayer("prog.env_steps", double(J1.EnvSteps));
  R.setLayer("prog.dedup_hits", double(J1.DedupHits));
  R.setLayer("prog.dedup_ratio",
             double(J1.DedupHits) / double(J1.DedupHits + J1.ConfigsExplored));
  R.setLayer("prog.explore_ms.j1", median(Ms[Way::J1]));
  R.setLayer("prog.explore_ms.j2", median(Ms[Way::J2]));
  R.setLayer("prog.visited_bytes_per_config",
             double(J1.VisitedBytes) / double(J1.ConfigsExplored));
  R.setLayer("prog.peak_visited_bytes", double(peakVisitedBytes()));
  R.setLayer("por.configs_ratio", 1.0);
  setCounterLayers(R, Before, After, Explorations);

  double Sh2 = double(Ms[Way::Sh2].size());
  R.setLayer("dist.explore_ms", median(Ms[Way::Sh2]));
  R.setLayer("dist.exchanged_configs",
             double(After.Fleet.Configs - Before.Fleet.Configs) / Sh2);
  R.setLayer("dist.batches",
             double(After.Fleet.Messages - Before.Fleet.Messages) / Sh2);
  R.setLayer("dist.bytes", double(After.Fleet.Bytes - Before.Fleet.Bytes) / Sh2);
  R.setLayer("dist.suppressed_sends", double(Suppressed) / Sh2);
  R.setLayer("dist.child_rss_mb", double(After.Fleet.ChildRssKbMax) / 1024.0);
  setTraceLayers(R, T, Probe, double(Probe.On.size()));
  return R;
}
