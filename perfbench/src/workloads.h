//===- perfbench/src/workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four closed-loop workloads and the helpers they share on top of
/// the fcsl libraries: process-counter snapshots turned into per-layer
/// deltas, timing-blind report comparison, and codec round-trips.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_PERFBENCH_WORKLOADS_H
#define FCSL_PERFBENCH_WORKLOADS_H

#include "harness.h"

#include "dist/Coordinator.h"
#include "prog/Engine.h"
#include "spec/Session.h"
#include "support/Intern.h"

namespace pb {

/// corpus (Reduced = false) and corpus_reduced (Reduced = true).
Result runCorpus(const RunConfig &Cfg, Tracer &T, bool Reduced);
Result runDiamond(const RunConfig &Cfg, Tracer &T);
Result runDaemon(const RunConfig &Cfg, Tracer &T);

/// Prints the golden table of corpus.cpp as observed at this build.
int printGolden();

/// The order in which pass \p Pass of a corpus run visits the sessions.
std::vector<size_t> corpusOrder(uint64_t Seed, uint64_t Pass);

/// One request of a daemon client's closed-loop schedule.
struct DaemonRequest {
  bool Engine = false;  ///< engine-backed (cache off) vs warm (cache rw).
  size_t Session = 0;   ///< index into allCaseStudies().
  unsigned Mode = 0;    ///< engine mode index, see daemonModeName().
};

/// The seeded, endless request schedule of one daemon client: one
/// engine-backed request at a seeded slot of every ten, engine requests
/// cycling through shuffled (session, mode) pairs and warm ones through
/// shuffled sessions.
class DaemonSchedule {
public:
  DaemonSchedule(uint64_t Seed, unsigned Client);
  DaemonRequest next();

private:
  Rng R;
  uint64_t I = 0;
  uint64_t EngineSlot = 0;
  std::vector<size_t> WarmCycle, EngineCycle;
  size_t WarmPos = 0, EnginePos = 0;
};

/// The rotating engine modes: POR off/dynamic x symmetry off/on.
constexpr unsigned NumDaemonModes = 4;
fcsl::PorMode daemonPor(unsigned Mode);
fcsl::SymMode daemonSym(unsigned Mode);
const char *daemonModeName(unsigned Mode);

/// Process-wide counters read before and after a measured window.
struct CounterSnapshot {
  uint64_t Configs = 0;
  fcsl::PorStats Por;
  fcsl::SymmetryStats Sym;
  uint64_t InternRequests = 0;
  uint64_t InternNodes = 0;
  fcsl::dist::FleetStats Fleet;

  static CounterSnapshot take();
};

/// Sets the por.*, sym.* and intern.* layer metrics from the counters
/// gained between \p A and \p B, per operation (\p Ops of them).
void setCounterLayers(Result &R, const CounterSnapshot &A,
                      const CounterSnapshot &B, double Ops);

/// Sets spec.* from session reports: category times, obligations and
/// checks per operation, and the median wall time of each program.
void setSpecLayers(Result &R, const std::vector<fcsl::SessionReport> &Reports,
                   double Ops,
                   const std::map<std::string, std::vector<double>> &SlugMs);

/// Equal on every field except the timings (category and total ms, and
/// the replayed cold time), compared through the codec.
bool sameReportIgnoringTimings(const fcsl::SessionReport &A,
                               const fcsl::SessionReport &B);

/// Encodes and decodes each report \p Reps times; books one operation per
/// report (failed when the decoded report differs) and returns the median
/// round-trip time in microseconds.
double codecRoundtripUs(Result &R,
                        const std::vector<fcsl::SessionReport> &Reports,
                        unsigned Reps, Tracer &T);

/// Sets trace.self_ms.* (per traced operation, \p TracedOps of them) and
/// trace.overhead_ratio.
void setTraceLayers(Result &R, const Tracer &T, const OverheadProbe &Probe,
                    double TracedOps);

/// The slug of a Table-1 program name ("CAS-lock" -> "cas_lock").
std::string slugOf(const std::string &Program);

} // namespace pb

#endif // FCSL_PERFBENCH_WORKLOADS_H
