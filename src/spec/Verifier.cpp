//===- spec/Verifier.cpp - Hoare-triple verification ------------------------===//
//
// Part of fcsl-cpp. See Verifier.h for the interface.
//
// Instance-level parallelism: the logical-variable quantification of a
// triple yields many independent explorations, so with Jobs > 1 the
// instances fan out across a thread pool (each inner exploration forced
// serial — the parallelism budget is spent at one level, not
// multiplicatively). Results are aggregated in instance order, so the
// outcome — including which instance's failure is reported and every
// counter — is bit-identical to the serial run.
//
//===----------------------------------------------------------------------===//

#include "spec/Verifier.h"

#include "support/Format.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace fcsl;

namespace {

/// Runs `explore` over instances [0, N) with the triple's options,
/// fanning out over up to `Opts.Jobs` threads; \p Skip marks instances
/// outside the domain (not explored). Inner explorations run with
/// Jobs = 1 when the fan-out itself is parallel.
std::vector<RunResult>
exploreInstances(const ProgRef &Prog,
                 const std::vector<VerifyInstance> &Instances,
                 const std::vector<bool> &Skip, const EngineOptions &Opts) {
  unsigned Jobs = effectiveJobs(Opts.Jobs, Instances.size());
  EngineOptions Inner = Opts;
  if (Jobs > 1)
    Inner.Jobs = 1;
  std::vector<RunResult> Runs(Instances.size());
  parallelFor(Instances.size(), Jobs, [&](size_t I) {
    if (I < Skip.size() && Skip[I])
      return;
    Runs[I] = explore(Prog, Instances[I].Initial, Inner,
                      Instances[I].InitialEnv);
  });
  return Runs;
}

} // namespace

std::optional<std::vector<Terminal>>
fcsl::strongestPost(const ProgRef &Prog, const VerifyInstance &Instance,
                    const EngineOptions &Opts) {
  RunResult Run = explore(Prog, Instance.Initial, Opts,
                          Instance.InitialEnv);
  if (!Run.complete())
    return std::nullopt;
  return Run.Terminals;
}

std::vector<size_t>
fcsl::inferPre(const ProgRef &Prog, const PostFn &Post,
               const std::vector<VerifyInstance> &Candidates,
               const EngineOptions &Opts) {
  std::vector<RunResult> Runs = exploreInstances(Prog, Candidates, {}, Opts);
  std::vector<size_t> Good;
  for (size_t I = 0, N = Candidates.size(); I != N; ++I) {
    if (!Runs[I].complete())
      continue;
    View Initial = Candidates[I].Initial.viewFor(rootThread());
    bool AllHold = true;
    for (const Terminal &T : Runs[I].Terminals)
      AllHold &= Post(T.Result, Initial, T.FinalView);
    if (AllHold)
      Good.push_back(I);
  }
  return Good;
}

VerifyResult fcsl::verifyTriple(const ProgRef &Prog, const Spec &S,
                                const std::vector<VerifyInstance> &Instances,
                                const EngineOptions &Opts) {
  // Domain filtering first: instances failing the precondition are
  // outside the triple and never explored.
  std::vector<bool> Skip(Instances.size(), false);
  for (size_t I = 0, N = Instances.size(); I != N; ++I)
    if (S.Pre &&
        !S.Pre.holds(Instances[I].Initial.viewFor(rootThread())))
      Skip[I] = true;

  std::vector<RunResult> Runs = exploreInstances(Prog, Instances, Skip, Opts);

  // Aggregate in instance order: the first failing instance wins, and
  // counters cover exactly the instances up to and including it —
  // bit-identical to the serial early-exit loop.
  VerifyResult Out;
  for (size_t I = 0, N = Instances.size(); I != N; ++I) {
    if (Skip[I])
      continue;
    ++Out.InstancesChecked;
    const RunResult &Run = Runs[I];
    View InitialView = Instances[I].Initial.viewFor(rootThread());
    Out.ConfigsExplored += Run.ConfigsExplored;
    Out.ActionSteps += Run.ActionSteps;
    Out.EnvSteps += Run.EnvSteps;
    Out.DedupHits += Run.DedupHits;

    if (!Run.Safe) {
      Out.Holds = false;
      Out.FailureNote =
          formatString("%s: safety violation: %s", S.Name.c_str(),
                       Run.FailureNote.c_str());
      if (!Run.FailureTrace.empty())
        Out.FailureNote +=
            "\ncounterexample schedule:\n" + Run.renderTrace();
      return Out;
    }
    if (Run.Exhausted) {
      Out.Holds = false;
      Out.FailureNote = formatString(
          "%s: state space exceeded the exploration bound "
          "(MaxConfigs=%llu, %llu configs explored, ~%llu frontier "
          "configurations pending at abort, partial-order reduction %s)",
          S.Name.c_str(),
          static_cast<unsigned long long>(Run.MaxConfigsBound),
          static_cast<unsigned long long>(Run.ConfigsExplored),
          static_cast<unsigned long long>(Run.FrontierAtAbort),
          Run.Reduction.Por == PorMode::Off || Run.Reduction.Oracle.Ran
              ? "off"
          : Run.Reduction.PorDeclined ? "off (declined)"
                                      : "on");
      return Out;
    }
    for (const Terminal &Term : Run.Terminals) {
      ++Out.TerminalsChecked;
      if (!S.Post(Term.Result, InitialView, Term.FinalView)) {
        Out.Holds = false;
        Out.FailureNote = formatString(
            "%s: postcondition %s fails for result %s;\ninitial view:\n%s"
            "final view:\n%s",
            S.Name.c_str(), S.PostName.c_str(),
            Term.Result.toString().c_str(),
            InitialView.toString().c_str(),
            Term.FinalView.toString().c_str());
        return Out;
      }
    }
  }
  return Out;
}
