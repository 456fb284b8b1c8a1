//===- perfbench/src/common.cpp - Helpers shared by the workloads ---------===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "structures/Suite.h"

#include <cctype>
#include <numeric>

using namespace fcsl;
using namespace pb;

std::string pb::slugOf(const std::string &Program) {
  std::string Slug;
  for (char C : Program) {
    if (std::isalnum(static_cast<unsigned char>(C)))
      Slug += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    else if (!Slug.empty() && Slug.back() != '_')
      Slug += '_';
  }
  while (!Slug.empty() && Slug.back() == '_')
    Slug.pop_back();
  return Slug;
}

std::vector<size_t> pb::corpusOrder(uint64_t Seed, uint64_t Pass) {
  std::vector<size_t> Order(sessionSlugs().size());
  std::iota(Order.begin(), Order.end(), 0);
  Rng R(Seed, 1000 + Pass);
  R.shuffle(Order);
  return Order;
}

//===----------------------------------------------------------------------===//
// Daemon schedule
//===----------------------------------------------------------------------===//

PorMode pb::daemonPor(unsigned Mode) {
  return Mode & 1 ? PorMode::Dynamic : PorMode::Off;
}
SymMode pb::daemonSym(unsigned Mode) {
  return Mode & 2 ? SymMode::On : SymMode::Off;
}
const char *pb::daemonModeName(unsigned Mode) {
  static const char *Names[NumDaemonModes] = {"off", "por", "sym", "por+sym"};
  return Names[Mode % NumDaemonModes];
}

DaemonSchedule::DaemonSchedule(uint64_t Seed, unsigned Client)
    : R(Seed, 2000 + Client) {
  size_t N = sessionSlugs().size();
  WarmCycle.resize(N);
  std::iota(WarmCycle.begin(), WarmCycle.end(), 0);
  EngineCycle.resize(N * NumDaemonModes);
  std::iota(EngineCycle.begin(), EngineCycle.end(), 0);
  R.shuffle(WarmCycle);
  R.shuffle(EngineCycle);
}

DaemonRequest DaemonSchedule::next() {
  if (I % 10 == 0)
    EngineSlot = R.below(10);
  DaemonRequest Q;
  Q.Engine = I % 10 == EngineSlot;
  ++I;
  if (Q.Engine) {
    size_t Pair = EngineCycle[EnginePos++];
    if (EnginePos == EngineCycle.size()) {
      EnginePos = 0;
      R.shuffle(EngineCycle);
    }
    Q.Session = Pair / NumDaemonModes;
    Q.Mode = static_cast<unsigned>(Pair % NumDaemonModes);
  } else {
    Q.Session = WarmCycle[WarmPos++];
    if (WarmPos == WarmCycle.size()) {
      WarmPos = 0;
      R.shuffle(WarmCycle);
    }
  }
  return Q;
}

//===----------------------------------------------------------------------===//
// Per-layer counters
//===----------------------------------------------------------------------===//

CounterSnapshot CounterSnapshot::take() {
  CounterSnapshot S;
  S.Configs = totalConfigsExplored();
  S.Por = porStats();
  S.Sym = symmetryStats();
  InternStats I = internStats();
  S.InternRequests = I.totalRequests();
  S.InternNodes = I.totalNodes();
  S.Fleet = dist::fleetTotals();
  return S;
}

void pb::setCounterLayers(Result &R, const CounterSnapshot &A,
                          const CounterSnapshot &B, double Ops) {
  auto Per = [Ops](uint64_t From, uint64_t To) {
    return Ops > 0 ? double(To - From) / Ops : 0.0;
  };
  R.setLayer("por.races", Per(A.Por.RacesDetected, B.Por.RacesDetected));
  R.setLayer("por.backtracks",
             Per(A.Por.BacktrackPoints, B.Por.BacktrackPoints));
  R.setLayer("por.wakeup_replays",
             Per(A.Por.WakeupReplays, B.Por.WakeupReplays));
  R.setLayer("por.sleep_hits", Per(A.Por.SleepHits, B.Por.SleepHits));
  R.setLayer("por.full_expansions",
             Per(A.Por.FullExpansions, B.Por.FullExpansions));
  uint64_t Lookups = B.Sym.Lookups - A.Sym.Lookups;
  uint64_t Changed = B.Sym.Changed - A.Sym.Changed;
  R.setLayer("sym.orbit_lookups", Per(A.Sym.Lookups, B.Sym.Lookups));
  R.setLayer("sym.orbit_hits", Per(A.Sym.Hits, B.Sym.Hits));
  R.setLayer("sym.canonicalized", Per(A.Sym.Changed, B.Sym.Changed));
  R.setLayer("sym.renames", Per(A.Sym.Renames, B.Sym.Renames));
  R.setLayer("sym.canonicalized_ratio",
             Lookups ? double(Changed) / double(Lookups) : 0.0);
  R.setLayer("intern.requests", Per(A.InternRequests, B.InternRequests));
  R.setLayer("intern.new_nodes", Per(A.InternNodes, B.InternNodes));
  // Requests per materialized node over the whole process (set-up
  // included): the window alone creates no nodes once the arenas are warm.
  R.setLayer("intern.dedup_ratio", internStats().dedupRatio());
}

void pb::setSpecLayers(Result &R, const std::vector<SessionReport> &Reports,
                       double Ops,
                       const std::map<std::string, std::vector<double>> &SlugMs) {
  static const char *CatNames[5] = {"spec.libs_ms", "spec.conc_ms",
                                    "spec.acts_ms", "spec.stab_ms",
                                    "spec.main_ms"};
  double CatMs[5] = {0, 0, 0, 0, 0};
  double Obligations = 0, Checks = 0;
  for (const SessionReport &Rep : Reports) {
    for (size_t C = 0; C != 5; ++C)
      CatMs[C] += Rep.PerCategory[C].ElapsedMs;
    Obligations += double(Rep.totalObligations());
    Checks += double(Rep.totalChecks());
  }
  for (size_t C = 0; C != 5; ++C)
    R.setLayer(CatNames[C], Ops > 0 ? CatMs[C] / Ops : 0.0);
  R.setLayer("spec.obligations", Ops > 0 ? Obligations / Ops : 0.0);
  R.setLayer("spec.checks", Ops > 0 ? Checks / Ops : 0.0);
  for (const auto &[Slug, Ms] : SlugMs)
    R.setLayer("spec.session_ms." + Slug, median(Ms));
}

//===----------------------------------------------------------------------===//
// Reports and codec
//===----------------------------------------------------------------------===//

namespace {

std::vector<uint8_t> encodeWithoutTimings(SessionReport R) {
  for (CategoryStats &C : R.PerCategory)
    C.ElapsedMs = 0.0;
  R.TotalMs = 0.0;
  R.Cache.ReplayedUs = 0;
  Encoder E;
  encode(E, R);
  return E.take();
}

} // namespace

bool pb::sameReportIgnoringTimings(const SessionReport &A,
                                   const SessionReport &B) {
  return encodeWithoutTimings(A) == encodeWithoutTimings(B);
}

double pb::codecRoundtripUs(Result &R, const std::vector<SessionReport> &Reports,
                            unsigned Reps, Tracer &T) {
  std::vector<double> Us;
  for (const SessionReport &Rep : Reports) {
    Span S(T, true, "codec", 0, slugOf(Rep.Program));
    bool Ok = true;
    for (unsigned I = 0; I != Reps; ++I) {
      Clock::time_point T0 = Clock::now();
      Encoder E;
      encode(E, Rep);
      std::vector<uint8_t> Bytes = E.take();
      Decoder D(Bytes.data(), Bytes.size());
      SessionReport Back = decodeSessionReport(D);
      Us.push_back(msSince(T0) * 1000.0);
      Encoder Again;
      encode(Again, Back);
      Ok &= !D.failed() && D.atEnd() && Again.take() == Bytes;
    }
    R.op(Ok, strFormat("%s: codec round-trip changed the report",
                       Rep.Program.c_str()));
  }
  return median(Us);
}

void pb::setTraceLayers(Result &R, const Tracer &T,
                        const OverheadProbe &Probe, double TracedOps) {
  for (const auto &[Layer, Ms] : T.selfMs())
    R.setLayer("trace.self_ms." + Layer, TracedOps > 0 ? Ms / TracedOps : 0);
  R.setLayer("trace.overhead_ratio", Probe.ratio());
}
