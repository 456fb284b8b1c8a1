//===- prog/Engine.h - Exhaustive interleaving engine -----------*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operational counterpart of the paper's denotational action-tree
/// semantics (Section 5.1, after Brookes): an explicit-state exploration of
/// every interleaving of a program's atomic actions with each other and
/// with environment interference drawn from the ambient concurroid's
/// transitions.
///
/// Administrative steps (bind, conditionals, calls, fork/join bookkeeping,
/// and the operationally-no-op hide) are performed eagerly — only atomic
/// actions and environment transitions are scheduling points, which is
/// sound because administrative steps commute with every other thread's
/// steps. Revisited configurations are pruned; since `STsep` specs are
/// partial correctness, cutting cycles (e.g. spin loops) loses no
/// terminating behaviours.
///
/// The same commutation argument generalizes to atomic actions through
/// footprint metadata (concurroid/Footprint.h): with partial-order
/// reduction enabled, a thread whose pending action is independent of
/// every step any other agent could ever take explores alone, and sleep
/// sets prune the second order of already-commuted pairs (DESIGN.md §9).
/// Reduction preserves the Safe verdict, the sorted Terminals, and
/// failure detection, and stays bit-identical across job counts; the
/// check modes cross-validate this at runtime with one soundness oracle
/// that compares the reduced exploration against the plain engine.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_PROG_ENGINE_H
#define FCSL_PROG_ENGINE_H

#include "prog/Prog.h"
#include "state/GlobalState.h"
#include "support/Codec.h"

namespace fcsl {

/// Partial-order reduction mode for an exploration.
enum class PorMode : uint8_t {
  Default, ///< use the process default (setDefaultPorMode / FCSL_POR).
  Off,     ///< full interleaving exploration.
  On,      ///< static ample-set + sleep-set reduction.
  Dynamic, ///< `On` plus dynamic ample sets from observed footprints
           ///< (env-future closure; DESIGN.md §12).
  Check,   ///< explore with `On` and cross-check against the plain engine.
  CheckDynamic ///< explore with `Dynamic` and cross-check likewise.
};

/// Symmetry-reduction mode for an exploration (DESIGN.md §11).
enum class SymMode : uint8_t {
  Default, ///< use the process default (setDefaultSymmetryMode /
           ///< FCSL_SYMMETRY).
  Off,     ///< explore configurations as constructed.
  On,      ///< canonicalize each configuration to its orbit representative.
  Check    ///< explore with `On` and cross-check against the plain engine.
};

/// Parses a `--por` / `FCSL_POR` spelling: off, on (alias 1), dynamic,
/// check, check-dynamic. Returns false, leaving \p Out untouched, on any
/// other text. Every tool and the engine's environment fallback share it,
/// so all of them accept and reject the same spellings.
bool parsePorMode(const char *Text, PorMode &Out);
/// Renders a mode as its flag spelling ("default" for Default).
const char *porModeName(PorMode M);

/// Parses a `--symmetry` / `FCSL_SYMMETRY` spelling: off, on (alias 1),
/// check. Returns false, leaving \p Out untouched, on any other text.
bool parseSymMode(const char *Text, SymMode &Out);
/// Renders a mode as its flag spelling ("default" for Default).
const char *symModeName(SymMode M);

/// Exploration parameters.
struct EngineOptions {
  /// The ambient concurroid: source of coherence checking and of
  /// environment interference.
  ConcurroidRef Ambient;
  /// Interleave environment transitions (open-world). Under a top-level
  /// `hide`, turn off for closed-world runs.
  bool EnvInterference = true;
  /// Hard bound on distinct configurations (guards against blow-up).
  uint64_t MaxConfigs = 1u << 22;
  /// Program definitions for `call`.
  const DefTable *Defs = nullptr;
  /// Re-check coherence after every action step (catches buggy actions).
  bool CheckStepCoherence = true;
  /// Worker threads for the exploration. 0 = the process default
  /// (`FCSL_JOBS` / `setDefaultJobs`, see support/ThreadPool.h); 1 =
  /// serial. Results are bit-identical across job counts: terminals are
  /// merged and sorted deterministically, and for complete explorations
  /// every counter is order-independent.
  unsigned Jobs = 0;
  /// Partial-order reduction (see PorMode). `Default` resolves to the
  /// process default, which is Off unless overridden by `--por` /
  /// `FCSL_POR` / setDefaultPorMode.
  PorMode Por = PorMode::Default;
  /// Multi-process sharded exploration (src/dist/, DESIGN.md §10). 0 = the
  /// process default (`FCSL_SHARDS` / setDefaultShards); 1 = in-process
  /// only. With N > 1 and a sharded-exploration hook installed
  /// (installDistributedEngine), explore() forks N worker processes that
  /// partition the config space by `fingerprint % N` and exchange frontier
  /// configs; verdicts, terminals, and counters are bit-identical to the
  /// in-process engine for complete explorations.
  unsigned Shards = 0;
  /// Symmetry reduction (see SymMode). `Default` resolves to the process
  /// default, which is Off unless overridden by `--symmetry` /
  /// `FCSL_SYMMETRY` / setDefaultSymmetryMode. Composes with POR and
  /// sharding: canonicalization happens before dedup, sleep-set keying and
  /// shard routing, so all three reductions multiply.
  SymMode Symmetry = SymMode::Default;
};

/// The order-independent work counters of one (or several aggregated)
/// exploration runs, split out of RunResult so other layers can carry them
/// around without the full result: an ObligationResult records the
/// counters its discharge cost, and the obligation cache (cache/Store.h)
/// persists them so a warm run replays `--stats` faithfully.
struct EngineCounters {
  uint64_t Configs = 0;
  uint64_t ActionSteps = 0;
  uint64_t EnvSteps = 0;
  uint64_t Terminals = 0;
  uint64_t DedupHits = 0;

  EngineCounters &operator+=(const EngineCounters &O) {
    Configs += O.Configs;
    ActionSteps += O.ActionSteps;
    EnvSteps += O.EnvSteps;
    Terminals += O.Terminals;
    DedupHits += O.DedupHits;
    return *this;
  }
  friend bool operator==(const EngineCounters &A, const EngineCounters &B) {
    return A.Configs == B.Configs && A.ActionSteps == B.ActionSteps &&
           A.EnvSteps == B.EnvSteps && A.Terminals == B.Terminals &&
           A.DedupHits == B.DedupHits;
  }
  friend bool operator!=(const EngineCounters &A, const EngineCounters &B) {
    return !(A == B);
  }
};

/// A terminal execution: the program's result and final state.
struct Terminal {
  Val Result;
  View FinalView; ///< the root thread's final subjective view.

  friend bool operator<(const Terminal &A, const Terminal &B) {
    if (A.Result != B.Result)
      return A.Result < B.Result;
    return A.FinalView < B.FinalView;
  }
};

/// An exploration's reduction modes resolved against the process defaults
/// (see resolveModes): POR is Off, On or Dynamic, symmetry Off or On, and
/// a check spelling of either asks for the soundness oracle on top.
struct ReductionModes {
  PorMode Por = PorMode::Off;
  SymMode Sym = SymMode::Off;
  bool Oracle = false;
};

/// Resolves `Default` to the process defaults and folds the check modes
/// into their reduced mode plus the oracle flag: Check is On, CheckDynamic
/// is Dynamic, symmetry Check is On. explore(), exploreShard() and the
/// sharded coordinator all resolve through this one function.
ReductionModes resolveModes(PorMode Por, SymMode Sym);

/// How an exploration was reduced. \c Por and \c Sym are the resolved
/// modes of the call. When the soundness oracle ran, the result's
/// verdict, terminals and counters are those of the plain (Off, Off) run,
/// and \c Por / \c Sym name the reduced run it was checked against.
struct ReductionRecord {
  PorMode Por = PorMode::Off;
  SymMode Sym = SymMode::Off;
  struct OracleRecord {
    bool Ran = false;
    /// The reduced run disagreed with the plain one (forces Safe = false).
    bool Mismatch = false;
    uint64_t PlainConfigs = 0;
    uint64_t ReducedConfigs = 0;
  } Oracle;
};

/// The outcome of an exploration.
struct RunResult {
  bool Safe = true;       ///< no action was applied outside its safe states.
  bool Exhausted = false; ///< MaxConfigs was hit: exploration incomplete.
  std::string FailureNote;
  /// The schedule leading to the failure: one human-readable line per
  /// scheduling decision ("thread 2: trymark -> true", "env: ...").
  /// Empty unless a safety violation occurred.
  std::vector<std::string> FailureTrace;
  std::vector<Terminal> Terminals; ///< deduplicated, sorted ascending.
  uint64_t ConfigsExplored = 0;
  uint64_t ActionSteps = 0;
  uint64_t EnvSteps = 0;
  uint64_t DedupHits = 0;
  /// Final (= peak, the set only grows) visited-set size for this run.
  /// Bytes approximate the retained memory: each visited node with its
  /// handle vector, plus each entry of the run's thread-context and
  /// global-state tables once. Interned values (Val, Heap, ...) are
  /// shared process-wide and counted by support/Intern.h, not here.
  uint64_t VisitedNodes = 0;
  uint64_t VisitedBytes = 0;
  /// Thread-step memo (see DESIGN.md §16): thread steps served from the
  /// run's memo instead of being re-executed, and the (thread, context,
  /// global state) keys it recorded. Not part of counters(): at Jobs > 1
  /// two workers may both miss one key, so both depend on the schedule.
  /// Zero for a sharded run (the wire does not carry them).
  uint64_t StepMemoHits = 0;
  uint64_t StepMemoEntries = 0;
  /// Env rows (see DESIGN.md §16): plain expansions whose env steps were
  /// served from the run's row for their global state, and the rows
  /// recorded, by plain expansion or by dynamic POR's closure walks.
  /// Kept out of counters() and zero for a sharded run, like the memo
  /// counters above.
  uint64_t EnvRowHits = 0;
  uint64_t EnvRowEntries = 0;
  /// Exhaustion diagnostics: the MaxConfigs bound that was in effect and,
  /// when it was hit, how many frontier configurations were still pending
  /// at abort (scheduling-dependent; a magnitude, not an exact count).
  uint64_t MaxConfigsBound = 0;
  uint64_t FrontierAtAbort = 0;
  /// Reduction provenance: the resolved modes and what the oracle saw.
  ReductionRecord Reduction;

  bool complete() const { return Safe && !Exhausted; }
  /// Renders the failure trace, one step per line.
  std::string renderTrace() const;
  /// This run's work counters in the detached form the cache persists.
  EngineCounters counters() const {
    EngineCounters C;
    C.Configs = ConfigsExplored;
    C.ActionSteps = ActionSteps;
    C.EnvSteps = EnvSteps;
    C.Terminals = Terminals.size();
    C.DedupHits = DedupHits;
    return C;
  }
};

/// Explores every interleaving of \p Root from \p Initial. The root
/// program runs as thread 1; its variable environment starts from
/// \p InitialEnv (handy for parameterizing a spec's logical variables).
/// With `Opts.Jobs > 1` the frontier is explored by a work-stealing
/// worker team over a lock-striped visited set; the returned result is
/// identical to the serial one (terminals sorted, exact counters), except
/// that when a safety violation exists the reported counterexample is
/// whichever violating schedule a worker reached first.
RunResult explore(const ProgRef &Root, const GlobalState &Initial,
                  const EngineOptions &Opts, const VarEnv &InitialEnv = {});

/// Outcome of a single simulated schedule.
struct SimResult {
  bool Safe = true;
  bool Terminated = false; ///< false: step budget exhausted (livelock?).
  std::string FailureNote;
  Val Result;
  View FinalView;
  uint64_t Steps = 0;
};

/// Executes ONE schedule of \p Root, choosing the next thread (or
/// environment) step pseudo-randomly from \p Seed. This is the
/// reproduction's stand-in for the paper's future-work "program
/// extraction": the same verified model program runs at scales the
/// exhaustive explorer cannot reach, as a randomized test. The engine
/// invariants (action safety, per-step coherence) are still enforced on
/// the sampled path. \p MaxSteps bounds the walk.
SimResult simulate(const ProgRef &Root, const GlobalState &Initial,
                   const EngineOptions &Opts, uint64_t Seed,
                   uint64_t MaxSteps = 1u << 20,
                   const VarEnv &InitialEnv = {});

/// Process-wide high-water marks over every exploration run so far
/// (reported by `fcsl-verify --stats` and the benchmarks).
uint64_t peakVisitedNodes();
uint64_t peakVisitedBytes();

/// Cumulative configurations explored across every run so far. Benchmarks
/// read deltas around a workload to attribute state-space volume to it.
uint64_t totalConfigsExplored();

/// Sets the process-default PorMode used when `EngineOptions::Por` is
/// `Default` (exposed as `fcsl-verify --por=off|on|dynamic|check|...`).
void setDefaultPorMode(PorMode M);

/// The process-default PorMode: the last setDefaultPorMode value, else the
/// `FCSL_POR` environment variable (parsePorMode; an unknown spelling
/// reads as Off), else Off.
PorMode defaultPorMode();

/// Cumulative soundness-oracle work over every oracle run so far: how
/// many explore() calls ran it, the configs of their plain and reduced
/// explorations, and how many of them disagreed.
struct OracleTotals {
  uint64_t Runs = 0;
  uint64_t PlainConfigs = 0;
  uint64_t ReducedConfigs = 0;
  uint64_t Mismatches = 0;
};
OracleTotals oracleTotals();

/// Process-wide partial-order-reduction counters over every POR-reduced
/// run so far (reported by `fcsl-verify --stats`): dynamic races that
/// blocked an ample singleton, backtracking points (forced full
/// expansions after a failed dynamic-ample attempt), wakeup replays
/// (re-expansions after a revisit shrank a sleep set or grew a close
/// mask) with the peak number of candidates replayed at once, sleep-set
/// hits (candidates pruned because a commuted order was already taken),
/// and full-expansion fallbacks (no ample singleton at all).
struct PorStats {
  uint64_t RacesDetected = 0;
  uint64_t BacktrackPoints = 0;
  uint64_t WakeupReplays = 0;
  uint64_t WakeupPeak = 0;
  uint64_t SleepHits = 0;
  uint64_t FullExpansions = 0;
};
PorStats porStats();

/// Sets the process-default SymMode used when `EngineOptions::Symmetry` is
/// `Default` (exposed as `fcsl-verify --symmetry=off|on|check`).
void setDefaultSymmetryMode(SymMode M);

/// The process-default SymMode: the last setDefaultSymmetryMode value, else
/// the `FCSL_SYMMETRY` environment variable (parseSymMode; an unknown
/// spelling reads as Off), else Off.
SymMode defaultSymmetryMode();

/// Process-wide symmetry counters over every symmetry-reduced run so far
/// (reported by `fcsl-verify --stats`): canonicalize calls (orbit
/// lookups), how many canonicalizations actually changed the
/// configuration (a proxy for orbit sizes > 1), how many applied a
/// fresh-pointer renaming, how many k-ary orbit groups were formed, and
/// the largest group seen.
struct SymmetryStats {
  uint64_t Lookups = 0;
  uint64_t Hits = 0; ///< always 0: there is no orbit cache to hit.
  uint64_t Changed = 0;
  uint64_t Renames = 0;   ///< canonicalizations that renamed fresh pointers.
  uint64_t Groups = 0;    ///< k-ary orbit groups formed at forks.
  uint64_t GroupPeak = 0; ///< largest orbit group (slot count) observed.
};
SymmetryStats symmetryStats();

//===----------------------------------------------------------------------===//
// Multi-process sharded exploration (implemented by src/dist/)
//===----------------------------------------------------------------------===//

/// A shard's status snapshot, handed to its transport on every pump. The
/// counters feed the coordinator's Mattern-style termination detection:
/// the fleet is done when every shard is idle and every config counted as
/// sent has been counted as received at its destination.
struct ShardStatus {
  bool Idle = false;      ///< no local work pending or in flight.
  bool Failed = false;    ///< a safety violation was found locally.
  bool Exhausted = false; ///< the local MaxConfigs ticket bound was hit.
  uint64_t Expanded = 0;     ///< configs expanded locally so far.
  uint64_t SentConfigs = 0;  ///< non-owned successors routed out.
  uint64_t RecvConfigs = 0;  ///< configs received and injected locally.
  /// Re-sends the engine's sender-side fingerprint filter proved redundant
  /// and swallowed (each one counted as a DedupHit instead, exactly as the
  /// in-process engine would have).
  uint64_t SuppressedSends = 0;
};

/// What the transport tells the shard to do after a pump.
enum class ShardCommand : uint8_t {
  Continue,       ///< keep exploring.
  Drain,          ///< stop now and report (fleet terminated or failed).
  DrainExhausted  ///< stop and report as an exhausted (incomplete) run.
};

/// One config delivered by the transport. The transport owns wire
/// decoding (it knows which peer dictionary the bytes reference); the
/// engine only sees decoded configs. A transport that detects a framing
/// or dictionary error it cannot attribute mid-stream delivers one entry
/// with Malformed set so the engine fails the run loudly instead of
/// dropping work.
struct ShardDelivery {
  FrontierConfig Config;
  bool Malformed = false;
};

/// The transport a sharded exploration talks to. `send` routes one
/// frontier config toward the shard that owns it: \p FC is the decoded
/// form and \p Fp its ownership fingerprint. The transport owns wire
/// encoding end to end (dictionary-streamed, DESIGN.md §14), so the
/// engine only ever sees decoded configs. `pump` flushes outboxes,
/// reports \p Status, and delivers any configs routed here. Both are
/// called under one lock, so implementations need not be thread-safe.
class ShardIo {
public:
  virtual ~ShardIo() = default;
  virtual void send(unsigned Dest, FrontierConfig FC, uint64_t Fp) = 0;
  virtual ShardCommand pump(const ShardStatus &Status,
                            std::vector<ShardDelivery> &Incoming) = 0;
};

/// Runs shard \p ShardId of an \p NShards-way partitioned exploration:
/// identical to explore() except that only configs whose ownership
/// fingerprint maps to this shard are inserted locally — every other
/// successor is encoded and handed to \p Io. The modes resolve through
/// resolveModes(); the coordinator resolves them once in the parent so
/// all shards agree on the reduction. The oracle is explore()'s alone:
/// a check mode here explores its reduced space only.
RunResult exploreShard(const ProgRef &Root, const GlobalState &Initial,
                       const EngineOptions &Opts, const VarEnv &InitialEnv,
                       unsigned ShardId, unsigned NShards, ShardIo &Io);

/// The coordinator entry point explore() dispatches to when sharding is
/// requested. Registered by dist::installDistributedEngine(); the
/// indirection keeps the core engine free of process-management code.
using ShardedExploreFn = RunResult (*)(const ProgRef &Root,
                                       const GlobalState &Initial,
                                       const EngineOptions &Opts,
                                       const VarEnv &InitialEnv,
                                       unsigned NShards);
void setShardedExploreHook(ShardedExploreFn Fn);

/// Sets the process-default shard count used when `EngineOptions::Shards`
/// is 0 (exposed as `fcsl-verify --shards=N`). 0 clears the override.
void setDefaultShards(unsigned N);

/// The process-default shard count: the last setDefaultShards value, else
/// the `FCSL_SHARDS` environment variable, else 1.
unsigned defaultShards();

} // namespace fcsl

#endif // FCSL_PROG_ENGINE_H
