//===- prog/Engine.cpp - Exhaustive interleaving engine --------------------===//
//
// Part of fcsl-cpp. See Engine.h for the interface.
//
// Exploration is a breadth-ish parallel frontier search: each worker owns a
// deque of pending configurations (FIFO for the owner, stolen LIFO from the
// back by idle peers) and the visited set is lock-striped, keyed by the
// configuration's cached hash. Determinism across job counts follows from
// three facts: the visited set is keyed by the full configuration (so the
// reachable set is schedule-independent), terminals are merged into a sorted
// set at the end, and for complete explorations the work counters (configs,
// action and env steps, dedup hits) are a function of the reachable set
// alone. The reduction effort counters are not: how many wakeup replays a
// node gets depends on the order its routes arrive in, and each replay
// re-runs the POR checks and canonicalizes its successors again, so wakeup
// replays, sleep hits, full expansions and the orbit counters may vary
// with the schedule at Jobs > 1.
//
// One worker loop (workerLoop) serves every run, with one worker or a team,
// and one expansion routine (expand) every reduction mode. Successors come
// from one step core: a thread step's outcomes are applied by applyOutcome
// (shared with simulate) and handed on by enqueueStep; an env transition's
// posts come from coherentPosts, recorded per global state in the env rows,
// which expand replays.
//
//===----------------------------------------------------------------------===//

#include "prog/Engine.h"

#include "concurroid/Footprint.h"
#include "state/PtrCanon.h"
#include "support/Format.h"
#include "support/Intern.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

using namespace fcsl;

namespace {

std::atomic<uint64_t> PeakVisitedNodesCounter{0};
std::atomic<uint64_t> PeakVisitedBytesCounter{0};

void atomicMax(std::atomic<uint64_t> &Counter, uint64_t V) {
  uint64_t Cur = Counter.load(std::memory_order_relaxed);
  while (Cur < V &&
         !Counter.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
  }
}

/// Records one run's final visited-set size into the process-wide peaks.
void notePeakVisited(uint64_t Nodes, uint64_t Bytes) {
  atomicMax(PeakVisitedNodesCounter, Nodes);
  atomicMax(PeakVisitedBytesCounter, Bytes);
}

std::atomic<uint64_t> TotalConfigsCounter{0};
std::atomic<uint64_t> OracleRunsCounter{0};
std::atomic<uint64_t> OraclePlainCounter{0};
std::atomic<uint64_t> OracleReducedCounter{0};
std::atomic<uint64_t> OracleMismatchCounter{0};
std::atomic<int> DefaultPorSetting{-1}; ///< -1: fall back to FCSL_POR.
std::atomic<int> DefaultSymSetting{-1}; ///< -1: fall back to FCSL_SYMMETRY.

/// Mode spellings, canonical name first; "1" is an alias for "on".
constexpr std::pair<const char *, PorMode> PorSpellings[] = {
    {"off", PorMode::Off},     {"on", PorMode::On},
    {"1", PorMode::On},        {"dynamic", PorMode::Dynamic},
    {"check", PorMode::Check}, {"check-dynamic", PorMode::CheckDynamic}};
constexpr std::pair<const char *, SymMode> SymSpellings[] = {
    {"off", SymMode::Off}, {"on", SymMode::On}, {"1", SymMode::On},
    {"check", SymMode::Check}};

template <typename Mode, size_t N>
bool parseSpelling(const std::pair<const char *, Mode> (&Table)[N],
                   const char *Text, Mode &Out) {
  for (const auto &[Name, M] : Table)
    if (Text && std::strcmp(Text, Name) == 0) {
      Out = M;
      return true;
    }
  return false;
}

template <typename Mode, size_t N>
const char *spellingOf(const std::pair<const char *, Mode> (&Table)[N],
                       Mode M) {
  for (const auto &[Name, V] : Table)
    if (V == M)
      return Name;
  return "default";
}

/// A mode environment variable through its parser; unset or unknown is
/// Off (the tools reject unknown spellings at startup, see validateEnv).
template <typename Mode>
Mode envMode(const char *Var, bool (*Parse)(const char *, Mode &)) {
  Mode M = Mode::Off;
  if (const char *E = std::getenv(Var))
    Parse(E, M);
  return M;
}

// Partial-order-reduction telemetry, process-wide across every reduced
// run (see PorStats in Engine.h for the meaning of each counter).
std::atomic<uint64_t> PorWakeupReplaysCounter{0};
std::atomic<uint64_t> PorWakeupPeakCounter{0};
std::atomic<uint64_t> PorSleepHitsCounter{0};
std::atomic<uint64_t> PorFullExpansionsCounter{0};
std::atomic<uint64_t> PorDeclinedCounter{0};

// Symmetry telemetry, process-wide across every symmetry-reduced run.
std::atomic<uint64_t> OrbitLookupsCounter{0};
std::atomic<uint64_t> OrbitChangedCounter{0};
std::atomic<uint64_t> OrbitRenamesCounter{0};
std::atomic<uint64_t> SymGroupsCounter{0};
std::atomic<uint64_t> SymGroupPeakCounter{0};

} // namespace

uint64_t fcsl::peakVisitedNodes() {
  return PeakVisitedNodesCounter.load(std::memory_order_relaxed);
}

uint64_t fcsl::peakVisitedBytes() {
  return PeakVisitedBytesCounter.load(std::memory_order_relaxed);
}

uint64_t fcsl::totalConfigsExplored() {
  return TotalConfigsCounter.load(std::memory_order_relaxed);
}

bool fcsl::parsePorMode(const char *Text, PorMode &Out) {
  return parseSpelling(PorSpellings, Text, Out);
}

const char *fcsl::porModeName(PorMode M) {
  return spellingOf(PorSpellings, M);
}

PorMode fcsl::canonicalPorMode(PorMode M) {
  return M == PorMode::Dynamic        ? PorMode::On
         : M == PorMode::CheckDynamic ? PorMode::Check
                                      : M;
}

bool fcsl::parseSymMode(const char *Text, SymMode &Out) {
  return parseSpelling(SymSpellings, Text, Out);
}

const char *fcsl::symModeName(SymMode M) {
  return spellingOf(SymSpellings, M);
}

void fcsl::setDefaultPorMode(PorMode M) {
  DefaultPorSetting.store(static_cast<int>(M), std::memory_order_relaxed);
}

PorMode fcsl::defaultPorMode() {
  int V = DefaultPorSetting.load(std::memory_order_relaxed);
  if (V >= 0 && static_cast<PorMode>(V) != PorMode::Default)
    return static_cast<PorMode>(V);
  return envMode("FCSL_POR", parsePorMode);
}

OracleTotals fcsl::oracleTotals() {
  return {OracleRunsCounter.load(std::memory_order_relaxed),
          OraclePlainCounter.load(std::memory_order_relaxed),
          OracleReducedCounter.load(std::memory_order_relaxed),
          OracleMismatchCounter.load(std::memory_order_relaxed)};
}

PorStats fcsl::porStats() {
  return {/*RacesDetected=*/0,
          /*BacktrackPoints=*/0,
          PorWakeupReplaysCounter.load(std::memory_order_relaxed),
          PorWakeupPeakCounter.load(std::memory_order_relaxed),
          PorSleepHitsCounter.load(std::memory_order_relaxed),
          PorFullExpansionsCounter.load(std::memory_order_relaxed),
          PorDeclinedCounter.load(std::memory_order_relaxed)};
}

void fcsl::setDefaultSymmetryMode(SymMode M) {
  DefaultSymSetting.store(static_cast<int>(M), std::memory_order_relaxed);
}

SymMode fcsl::defaultSymmetryMode() {
  int V = DefaultSymSetting.load(std::memory_order_relaxed);
  if (V >= 0 && static_cast<SymMode>(V) != SymMode::Default)
    return static_cast<SymMode>(V);
  return envMode("FCSL_SYMMETRY", parseSymMode);
}

ReductionModes fcsl::resolveModes(PorMode Por, SymMode Sym) {
  Por = canonicalPorMode(Por == PorMode::Default ? defaultPorMode() : Por);
  if (Sym == SymMode::Default)
    Sym = defaultSymmetryMode();
  ReductionModes M;
  M.Oracle = Por == PorMode::Check || Sym == SymMode::Check;
  M.Por = Por == PorMode::Check ? PorMode::On : Por;
  M.Sym = Sym == SymMode::Check ? SymMode::On : Sym;
  return M;
}

SymmetryStats fcsl::symmetryStats() {
  return {OrbitLookupsCounter.load(std::memory_order_relaxed),
          /*Hits=*/0,
          OrbitChangedCounter.load(std::memory_order_relaxed),
          OrbitRenamesCounter.load(std::memory_order_relaxed),
          SymGroupsCounter.load(std::memory_order_relaxed),
          SymGroupPeakCounter.load(std::memory_order_relaxed)};
}

void fcsl::setDefaultShards(unsigned) {}

namespace {

/// One continuation frame of a thread's control stack.
struct Frame {
  enum class Kind : uint8_t {
    Run,      ///< execute Node under Env.
    BindCont, ///< awaiting a value; binds Var and runs Rest under Env.
    HideExit  ///< awaiting the hide body's value; uninstalls Node's spec.
  };

  Kind K;
  const Prog *Node = nullptr; // Run: command; HideExit: the Hide node.
  const Prog *Rest = nullptr; // BindCont continuation.
  std::string Var;            // BindCont variable ("_" to drop).
  VarEnv Env;

  friend bool operator==(const Frame &A, const Frame &B) {
    return A.K == B.K && A.Node == B.Node && A.Rest == B.Rest &&
           A.Var == B.Var && A.Env == B.Env;
  }

  void hashInto(size_t &Seed) const {
    // Programs hash by structural fingerprint, not node address: addresses
    // vary run to run, which would make config hashes, and everything
    // derived from them, differ between runs. Equality still compares node
    // pointers, so a fingerprint collision costs a probe, never soundness.
    hashValue(Seed, static_cast<uint8_t>(K));
    hashValue(Seed, Node ? Node->fingerprint() : 0);
    hashValue(Seed, Rest ? Rest->fingerprint() : 0);
    hashValue(Seed, Var);
    hashValue(Seed, Env.size());
    for (const auto &Binding : Env) {
      hashValue(Seed, Binding.first);
      Binding.second.hashInto(Seed);
    }
  }

  /// Approximate handle-level footprint (see GlobalState::approxBytes).
  size_t approxBytes() const {
    constexpr size_t MapNode = 48;
    size_t Bytes = sizeof(Frame) + Var.capacity();
    for (const auto &Binding : Env)
      Bytes += MapNode + Binding.first.capacity() + sizeof(Val);
    return Bytes;
  }
};

Frame runFrame(const Prog *Node, VarEnv Env) {
  Frame F;
  F.K = Frame::Kind::Run;
  F.Node = Node;
  F.Env = std::move(Env);
  return F;
}

/// One thread of the configuration.
struct ThreadCtx {
  std::vector<Frame> Stack;
  bool Waiting = false; ///< suspended on a `par` until children finish.
  /// Symmetry reduction: nonzero when this thread belongs to a k-ary orbit
  /// group of interchangeable agents (DESIGN.md §11) — the id of the
  /// group's root thread. The root itself carries its own id (SymGroup ==
  /// the thread's id); interior par nodes of a flattened spine and the k
  /// leaf slots all carry the root's id. The canonicalizer may permute the
  /// group's slot subtrees arbitrarily, and the group's join is *delayed*:
  /// no member below the root joins until every slot is Done, at which
  /// point the root folds the whole spine at once and delivers every
  /// distinct slot-value permutation (see normalize/resolveGroup). Part of
  /// configuration identity.
  ThreadId SymGroup = 0;
  std::optional<Val> Done;

  friend bool operator==(const ThreadCtx &A, const ThreadCtx &B) {
    return A.Waiting == B.Waiting && A.SymGroup == B.SymGroup &&
           A.Done == B.Done && A.Stack == B.Stack;
  }

  void hashInto(size_t &Seed) const {
    hashValue(Seed, Waiting);
    hashValue(Seed, SymGroup);
    hashValue(Seed, Done.has_value());
    if (Done)
      Done->hashInto(Seed);
    hashValue(Seed, Stack.size());
    for (const Frame &F : Stack)
      F.hashInto(Seed);
  }

  /// Approximate retained bytes (see GlobalState::approxBytes).
  size_t approxBytes() const {
    size_t Bytes = sizeof(ThreadCtx);
    for (const Frame &F : Stack)
      Bytes += F.approxBytes();
    return Bytes;
  }
};

/// A value hash-consed into a ConsTable, with the content hash it is
/// filed under.
template <typename T> struct Consed {
  T Value;
  size_t Hash = 0;
  /// A fact about Value computed on first use and cached with the entry
  /// (for a global state: whether it has fresh heap cells, see
  /// Explorer::hasFreshCells); 0 until computed. Copies start unset, since
  /// a copy is made to be edited.
  mutable std::atomic<uint8_t> Fact{0};

  Consed() = default;
  explicit Consed(T V, size_t H = 0) : Value(std::move(V)), Hash(H) {}
  Consed(const Consed &O) : Value(O.Value), Hash(O.Hash) {}
  Consed(Consed &&O) noexcept : Value(std::move(O.Value)), Hash(O.Hash) {}
};

/// One exploration's hash-cons table for \p T (thread contexts or global
/// states). Structurally equal values share one entry, so configurations
/// hold handles and compare them by address. The table belongs to one
/// Explorer and dies with its visited set: a Frame holds the session's
/// `const Prog *` addresses, so a process-wide table would keep one copy
/// of every state of every session a long-lived daemon ever ran. Striped
/// like the visited set (one stripe for a serial run, so tiny explorations
/// pay no set-up cost); entries have stable addresses.
template <typename T> class ConsTable {
public:
  void init(unsigned NumStripes) { Stripes = std::vector<Stripe>(NumStripes); }

  /// The canonical entry equal to \p V, whose content hash is \p H.
  const Consed<T> *intern(T &&V, size_t H) {
    Stripe &S = Stripes[H % Stripes.size()];
    std::lock_guard<std::mutex> Lock(S.M);
    return &*S.Set.emplace(std::move(V), H).first;
  }

  /// Approximate retained bytes of every entry, each counted once; 16
  /// bytes per entry are the hash-set node (next pointer + cached hash).
  uint64_t approxBytes() {
    uint64_t Bytes = 0;
    for (Stripe &S : Stripes) {
      std::lock_guard<std::mutex> Lock(S.M);
      for (const Consed<T> &E : S.Set)
        Bytes += E.Value.approxBytes() + sizeof(size_t) + 16;
    }
    return Bytes;
  }

private:
  struct HashOf {
    size_t operator()(const Consed<T> &E) const { return E.Hash; }
  };
  struct SameValue {
    bool operator()(const Consed<T> &A, const Consed<T> &B) const {
      return A.Value == B.Value;
    }
  };
  struct Stripe {
    std::mutex M;
    std::unordered_set<Consed<T>, HashOf, SameValue> Set;
  };
  std::vector<Stripe> Stripes;
};

using CtxRef = const Consed<ThreadCtx> *;
using GSRef = const Consed<GlobalState> *;

/// One suppressed scheduling alternative under partial-order reduction: a
/// step that was already explored at an ancestor configuration and has
/// commuted with every step on the path since, so re-exploring it here
/// would only re-derive states reached there. Identity (for ordering and
/// merging sleep sets) is the *step*, not the footprint: a thread entry
/// is the thread's id — a sleeping thread cannot move, so its pending
/// action is pinned — and an environment entry is the transition's index
/// in the ambient concurroid. The step's static footprint rides along for
/// re-filtering against later steps; it is deliberately excluded from
/// identity (it is a function of the step already). It is a pointer into
/// the action or transition that owns it, which outlives the run, so
/// copying and merging sleep sets never copies a footprint.
struct SleepEntry {
  bool IsEnv = false;
  ThreadId T = 0;                ///< thread entries: the thread.
  size_t EnvIdx = 0;             ///< env entries: transition index.
  const Footprint *Fp = nullptr; ///< the step's static footprint.
};

/// Whether the environment takes \p T during interference exploration:
/// every env-enabled transition except the identity.
bool isEnvStep(const Transition &T) {
  return T.isEnvEnabled() && T.name() != "idle";
}

/// Canonical sleep-set order: thread entries ascending by id, then env
/// entries ascending by transition index (each kind's key is unique).
bool sleepLess(const SleepEntry &A, const SleepEntry &B) {
  if (A.IsEnv != B.IsEnv)
    return A.IsEnv < B.IsEnv;
  if (A.T != B.T)
    return A.T < B.T;
  return A.EnvIdx < B.EnvIdx;
}

/// Whether \p Set holds \p E's step (in any order).
bool holdsStep(const std::vector<SleepEntry> &Set, const SleepEntry &E) {
  return std::any_of(Set.begin(), Set.end(), [&](const SleepEntry &X) {
    return !sleepLess(X, E) && !sleepLess(E, X);
  });
}

/// Collects the non-par leaves of a (possibly nested) `par` spine,
/// left-to-right. A spine of k pairwise-equivalent leaves is a k-ary
/// orbit-group candidate (DESIGN.md §11).
void flattenParLeaves(const ProgRef &P, std::vector<const ProgRef *> &Leaves) {
  if (P && P->kind() == Prog::Kind::Par) {
    flattenParLeaves(P->left(), Leaves);
    flattenParLeaves(P->right(), Leaves);
  } else {
    Leaves.push_back(&P);
  }
}

/// Pointer literals in an expression tree (operands recursively).
void collectExprPtrs(const ExprRef &E, std::set<Ptr> &Out) {
  if (!E)
    return;
  if (const Val *V = E->literal())
    V->collectPtrs(Out);
  collectExprPtrs(E->operandA(), Out);
  collectExprPtrs(E->operandB(), Out);
}

/// Calls \p Visit once on every program node syntactically reachable
/// from \p Root: through binds, branches, pars, hides, and the bodies of
/// the definitions in \p Defs that calls name (each body once).
template <typename Fn>
void forEachReachableProg(const Prog *Root, const DefTable *Defs,
                          Fn &&Visit) {
  std::unordered_set<const Prog *> Seen;
  std::set<std::string> SeenDefs;
  std::vector<const Prog *> Stack{Root};
  while (!Stack.empty()) {
    const Prog *P = Stack.back();
    Stack.pop_back();
    if (!P || !Seen.insert(P).second)
      continue;
    Visit(*P);
    switch (P->kind()) {
    case Prog::Kind::Ret:
    case Prog::Kind::Act:
      break;
    case Prog::Kind::Bind:
      Stack.push_back(P->first().get());
      Stack.push_back(P->rest().get());
      break;
    case Prog::Kind::If:
      Stack.push_back(P->thenProg().get());
      Stack.push_back(P->elseProg().get());
      break;
    case Prog::Kind::Par:
      Stack.push_back(P->left().get());
      Stack.push_back(P->right().get());
      break;
    case Prog::Kind::Call:
      if (Defs && Defs->contains(P->callee()) &&
          SeenDefs.insert(P->callee()).second)
        Stack.push_back(Defs->lookup(P->callee()).Body.get());
      break;
    case Prog::Kind::Hide:
      Stack.push_back(P->body().get());
      break;
    }
  }
}

/// The pinned-pointer set of a run (DESIGN.md §11): every pointer whose
/// identity is observable by construction — present in the initial global
/// state, bound in the initial environment, or written as a literal in
/// the program text. The canonical fresh-pointer numbering never renames
/// these; everything else is an allocator-chosen name the session's
/// semantics cannot observe. The program's literals are those of its
/// expressions (action and call arguments, conditions, returns) and hide
/// initial-self values, through every reachable node.
std::set<Ptr> collectPinnedPtrs(const ProgRef &Root,
                                const GlobalState &Initial,
                                const VarEnv &InitialEnv,
                                const DefTable *Defs) {
  std::set<Ptr> Pinned;
  Initial.collectPtrs(Pinned);
  for (const auto &Binding : InitialEnv)
    Binding.second.collectPtrs(Pinned);
  forEachReachableProg(Root.get(), Defs, [&](const Prog &P) {
    switch (P.kind()) {
    case Prog::Kind::Ret:
      collectExprPtrs(P.retExpr(), Pinned);
      break;
    case Prog::Kind::Act:
    case Prog::Kind::Call:
      for (const ExprRef &E : P.args())
        collectExprPtrs(E, Pinned);
      break;
    case Prog::Kind::If:
      collectExprPtrs(P.cond(), Pinned);
      break;
    case Prog::Kind::Hide:
      P.hideSpec().InitSelf.collectPtrs(Pinned);
      break;
    case Prog::Kind::Bind:
    case Prog::Kind::Par:
      break;
    }
  });
  return Pinned;
}

/// One thread of a configuration: its id and its context, a frozen handle
/// or the configuration's private copy while it is being edited.
struct ThreadSlot {
  ThreadId Id = 0;
  CtxRef Ctx = nullptr;

  const ThreadCtx &ctx() const { return Ctx->Value; }
  friend bool operator==(const ThreadSlot &A, const ThreadSlot &B) {
    return A.Id == B.Id && A.Ctx == B.Ctx;
  }
};

/// A whole configuration: a global-state handle plus the threads sorted by
/// id, each a context handle. Both kinds of handle point into the
/// exploration's ConsTables, so copying a configuration copies handles,
/// not trees, and a step that rewrites one thread leaves the others
/// shared. Edits are copy-on-write: mutGS()/mutThread() hand out a private
/// copy, and freeze() interns the dirty parts once and computes the
/// hashes. Identity (operator==, Hash) is only meaningful when frozen.
///
/// The sleep set and the trailing-env close mask ride along as *payload*,
/// not identity: they are merged into the visited node on every revisit
/// (the sleep sets intersect, the masks union — see enqueue), so the
/// same raw configuration is never split into several visited entries just
/// because different paths put different steps to sleep. The merge is
/// monotone over a finite lattice, so the fixpoint — and with it the
/// reachable node set and the work counters — stays schedule-independent
/// across worker counts (the effort counters do not; see the file
/// comment).
class Config {
public:
  Config() = default;
  Config(Config &&) = default;
  Config &operator=(Config &&) = default;
  /// Copies the handles; private copies are duplicated, not shared.
  Config(const Config &O)
      : Sleep(O.Sleep), EnvCloseMask(O.EnvCloseMask), Hash(O.Hash),
        GS(O.GS), Threads(O.Threads) {
    if (O.GSScratch) {
      GSScratch = std::make_unique<Consed<GlobalState>>(*O.GSScratch);
      GS = GSScratch.get();
    }
    for (const std::unique_ptr<Consed<ThreadCtx>> &P : O.Scratch) {
      Scratch.push_back(std::make_unique<Consed<ThreadCtx>>(*P));
      for (ThreadSlot &S : Threads)
        if (S.Ctx == P.get())
          S.Ctx = Scratch.back().get();
    }
  }

  const GlobalState &gs() const { return GS->Value; }
  /// The frozen global-state handle.
  GSRef gsRef() const {
    assert(!GSScratch && "global state not frozen");
    return GS;
  }
  GlobalState &mutGS() {
    if (!GSScratch) {
      GSScratch = GS ? std::make_unique<Consed<GlobalState>>(*GS)
                     : std::make_unique<Consed<GlobalState>>();
      GS = GSScratch.get();
    }
    return GSScratch->Value;
  }

  const std::vector<ThreadSlot> &threads() const { return Threads; }
  /// Thread \p T's frozen context handle.
  CtxRef ctxRef(ThreadId T) const {
    auto It = slot(T);
    assert(It != Threads.end() && It->Id == T && !scratchOf(It->Ctx) &&
           "no such frozen thread");
    return It->Ctx;
  }
  const ThreadCtx *findThread(ThreadId T) const {
    auto It = slot(T);
    return It != Threads.end() && It->Id == T ? &It->ctx() : nullptr;
  }
  const ThreadCtx &thread(ThreadId T) const {
    const ThreadCtx *Ctx = findThread(T);
    assert(Ctx && "no such thread");
    return *Ctx;
  }
  /// Thread \p T's private copy. References stay valid until the thread
  /// is erased or the configuration frozen.
  ThreadCtx &mutThread(ThreadId T) {
    auto It = Threads.begin() + (slot(T) - Threads.cbegin());
    assert(It != Threads.end() && It->Id == T && "no such thread");
    if (Consed<ThreadCtx> *Own = scratchOf(It->Ctx))
      return Own->Value;
    Scratch.push_back(std::make_unique<Consed<ThreadCtx>>(*It->Ctx));
    It->Ctx = Scratch.back().get();
    return Scratch.back()->Value;
  }
  void addThread(ThreadId T, ThreadCtx Ctx) {
    auto It = slot(T);
    assert((It == Threads.end() || It->Id != T) && "duplicate thread id");
    Scratch.push_back(std::make_unique<Consed<ThreadCtx>>(std::move(Ctx)));
    Threads.insert(It, ThreadSlot{T, Scratch.back().get()});
  }
  void eraseThread(ThreadId T) {
    auto It = slot(T);
    assert(It != Threads.end() && It->Id == T && "no such thread");
    CtxRef Ctx = It->Ctx;
    Threads.erase(It);
    for (auto S = Scratch.begin(); S != Scratch.end(); ++S)
      if (S->get() == Ctx) {
        Scratch.erase(S);
        break;
      }
  }
  /// Re-keys the threads through the injective renaming \p Rel (threads
  /// absent from it keep their id); contexts move without copying.
  void renameThreadIds(const std::map<ThreadId, ThreadId> &Rel) {
    for (ThreadSlot &S : Threads) {
      auto It = Rel.find(S.Id);
      if (It != Rel.end())
        S.Id = It->second;
    }
    std::sort(Threads.begin(), Threads.end(),
              [](const ThreadSlot &A, const ThreadSlot &B) {
                return A.Id < B.Id;
              });
  }

  /// Interns every dirty part into the tables and recomputes the hash.
  /// Hash combines the parts' cached *content* hashes, never handle
  /// addresses, so it is the same in every run.
  void freeze(ConsTable<GlobalState> &GSTable,
              ConsTable<ThreadCtx> &CtxTable) {
    if (GSScratch) {
      size_t H = std::hash<GlobalState>{}(GSScratch->Value);
      GS = GSTable.intern(std::move(GSScratch->Value), H);
      GSScratch.reset();
    }
    for (ThreadSlot &S : Threads)
      if (Consed<ThreadCtx> *Own = scratchOf(S.Ctx)) {
        size_t H = 0;
        Own->Value.hashInto(H);
        S.Ctx = CtxTable.intern(std::move(Own->Value), H);
      }
    Scratch.clear();
    rehash();
  }

  /// The frozen successor of the frozen \p Parent whose global state is
  /// \p GS and whose threads are the parent's with the \p N slots at
  /// \p Slots (sorted by id) replacing or joining them. Hashed from the
  /// parts' cached content hashes like freeze(), so it equals what
  /// building and freezing the same successor would produce.
  static Config successor(const Config &Parent, GSRef GS,
                          const ThreadSlot *Slots, size_t N) {
    assert(!Parent.GSScratch && Parent.Scratch.empty() &&
           "successor of an unfrozen config");
    Config C;
    C.GS = GS;
    C.Threads.reserve(Parent.Threads.size() + N);
    // On equal ids set_union copies from the first range: updates win.
    std::set_union(Slots, Slots + N, Parent.Threads.begin(),
                   Parent.Threads.end(), std::back_inserter(C.Threads),
                   [](const ThreadSlot &A, const ThreadSlot &B) {
                     return A.Id < B.Id;
                   });
    C.rehash();
    return C;
  }

  friend bool operator==(const Config &A, const Config &B) {
    return A.GS == B.GS && A.Threads == B.Threads;
  }

  std::vector<SleepEntry> Sleep; ///< sorted by sleepLess.
  /// POR only, and only ever nonzero on *terminal* configurations: bit i
  /// licenses trailing applications of the ambient's i-th transition at
  /// this terminal. Every step into a terminal is the program's last
  /// action `a` (env steps never finish a thread); an env transition
  /// independent of `a` commutes before it, so its trailing firing here is
  /// the final view of a real full-run trace "...env, then a". Without the
  /// closure those traces' views would be lost whenever the reduction
  /// (ample postponement or sleep-set pruning) explored `a` before the env
  /// step. Dependent transitions stay unlicensed: firing them after `a`
  /// would invent terminals the full exploration never reaches.
  uint32_t EnvCloseMask = 0;
  size_t Hash = 0; ///< valid after freeze().

private:
  /// Recomputes Hash from the frozen parts' content hashes.
  void rehash() {
    size_t Seed = GS->Hash;
    hashValue(Seed, Threads.size());
    for (const ThreadSlot &S : Threads) {
      hashValue(Seed, S.Id);
      hashCombine(Seed, S.Ctx->Hash);
    }
    Hash = Seed;
  }
  std::vector<ThreadSlot>::const_iterator slot(ThreadId T) const {
    return std::lower_bound(
        Threads.begin(), Threads.end(), T,
        [](const ThreadSlot &S, ThreadId Id) { return S.Id < Id; });
  }
  Consed<ThreadCtx> *scratchOf(CtxRef Ctx) const {
    for (const std::unique_ptr<Consed<ThreadCtx>> &P : Scratch)
      if (P.get() == Ctx)
        return P.get();
    return nullptr;
  }

  GSRef GS = nullptr;
  std::vector<ThreadSlot> Threads; ///< sorted by id.
  std::unique_ptr<Consed<GlobalState>> GSScratch; ///< GS's private copy.
  std::vector<std::unique_ptr<Consed<ThreadCtx>>> Scratch; ///< thread copies.
};

/// The scheduling step that produced a visited node, kept as a code and
/// rendered to text only when a failure trace needs it (renderStep): a
/// thread step is the thread, its Act node and the outcome's result (the
/// arguments are re-evaluated from the parent node's frame); an env step
/// is the ambient transition's index. Mirror marks the symmetric-join
/// extras of a step (see resolveGroup).
struct StepCode {
  enum class Kind : uint8_t { None, Thread, Env };
  Kind K = Kind::None;
  bool Mirror = false;
  ThreadId T = 0;
  const Prog *ActNode = nullptr;
  size_t EnvIdx = 0;
  Val Result;

  static StepCode thread(ThreadId T, const Prog *ActNode, Val Result) {
    StepCode S;
    S.K = Kind::Thread;
    S.T = T;
    S.ActNode = ActNode;
    S.Result = std::move(Result);
    return S;
  }
  static StepCode env(size_t Idx) {
    StepCode S;
    S.K = Kind::Env;
    S.EnvIdx = Idx;
    return S;
  }
};

/// A visited configuration plus the provenance needed to reconstruct a
/// counterexample schedule: the parent it was reached from and the step
/// code. Nodes live in node-based hash sets, so their addresses are stable
/// and parent chains stay valid across insertions from any worker.
///
/// Under partial-order reduction the node also carries mutable *wake
/// state*, guarded by the owning visited-set stripe's mutex: the merged
/// sleep set (intersection over every arrival's payload), the merged
/// trailing-env close mask (union), the wake delta (the sleep entries and
/// close-mask bits merges removed and added since the last expansion, so
/// step counters count once per step across wakeup replays; see
/// WakeSnapshot), and the queueing flags that coalesce replays. Identity
/// (NodeHash/NodeEq) deliberately excludes all of it; the config's own
/// payload is moved into the wake state on insertion.
struct Node {
  Config C;
  const Node *Parent = nullptr;
  StepCode Step; ///< Kind::None for seeds.
  mutable std::vector<SleepEntry> Sleep{}; ///< merged; sorted by sleepLess.
  mutable uint32_t CloseMask = 0;        ///< merged trailing-env licenses.
  mutable uint32_t WokenMask = 0;        ///< close-mask bits added since.
  mutable std::vector<SleepEntry> Woken{}; ///< entries woken since.
  mutable bool InQueue = false;      ///< queued for (re-)expansion.
  mutable bool ExpandedOnce = false; ///< has consumed its config ticket.
  /// Inserted by a re-execution that overtook the first execution of the
  /// same step; that first execution's arrival is owed no dedup hit.
  mutable bool Overtaken = false;
};

struct NodeHash {
  size_t operator()(const Node &N) const { return N.C.Hash; }
};

struct NodeEq {
  bool operator()(const Node &A, const Node &B) const { return A.C == B.C; }
};

/// One outcome of a memoized thread step (see StepMemo): the successor's
/// global state, the thread slots it replaces or adds in the parent (the
/// stepping thread's new context and every thread forked under it, sorted
/// by id), the action's result and whether the label set changed.
struct MemoOutcome {
  GSRef GS = nullptr;
  const ThreadSlot *Slots = nullptr;
  uint32_t NumSlots = 0;
  bool LabelsChanged = false;
  Val Result;
  /// Takes the next NumSlots slots at \p Run as this outcome's.
  void bind(const ThreadSlot *&Run) {
    Slots = Run;
    Run += NumSlots;
  }
};

/// Append-only storage with stable element addresses: elements are copied
/// into chunks that never move, so a reader may keep a pointer after the
/// owner's lock is released.
template <typename T> class ChunkArena {
public:
  const T *copy(const T *Src, size_t N) {
    if (Chunks.empty() || Used + N > Cap) {
      Cap = std::max<size_t>({N, 16, std::min<size_t>(2 * Cap, 4096)});
      Chunks.push_back(std::make_unique<T[]>(Cap));
      Capacity += Cap;
      Used = 0;
    }
    T *Dst = Chunks.back().get() + Used;
    std::copy(Src, Src + N, Dst);
    Used += N;
    return Dst;
  }
  uint64_t approxBytes() const { return Capacity * sizeof(T); }

private:
  std::vector<std::unique_ptr<T[]>> Chunks;
  size_t Cap = 0;  ///< size of the last chunk.
  size_t Used = 0; ///< elements used in the last chunk.
  uint64_t Capacity = 0;
};

/// One coherent env step out of a global state (see envRow): the
/// transition's index in the ambient concurroid and the interned
/// post-state. It carries no thread slots.
struct EnvSucc {
  uint32_t Idx = 0;
  GSRef Post = nullptr;
  void bind(const ThreadSlot *&) {}
};

/// One exploration's memo from handle keys to immutable rows of \p Elem
/// (DESIGN.md §16): the thread-step memo and the env rows. A step reads
/// only what its key holds, so a later step with the same key rebuilds its
/// successors from the recorded row instead of re-running the step.
/// Striped like the ConsTables; a row is immutable once published and
/// never moves (it lives in a hash-map node that is never erased), so a
/// reader uses it after the stripe lock is released, and two workers that
/// both miss one key record the same row (the second insert is dropped).
template <typename Key, typename KeyHash, typename Elem> class HandleMemo {
public:
  /// A recorded row.
  struct Row {
    const Elem *First = nullptr;
    uint32_t N = 0;
    const Elem *begin() const { return First; }
    const Elem *end() const { return First + N; }
  };

  void init(unsigned NumStripes) { Stripes = std::vector<Stripe>(NumStripes); }

  /// The row recorded for \p K, or null.
  const Row *find(const Key &K) {
    Stripe &S = stripeOf(K);
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Map.find(K);
    return It == S.Map.end() ? nullptr : &It->second;
  }

  /// Records \p Elems for \p K, unless a row is already there, and
  /// returns the row published for it. \p Slots holds the elements' slot
  /// runs back to back, in element order; each element takes its run from
  /// the stripe's copy (see MemoOutcome::bind).
  const Row &insert(const Key &K, std::vector<Elem> Elems,
                    const std::vector<ThreadSlot> &Slots = {}) {
    Stripe &S = stripeOf(K);
    std::lock_guard<std::mutex> Lock(S.M);
    auto [It, IsNew] = S.Map.try_emplace(K);
    if (IsNew) {
      const ThreadSlot *Run =
          Slots.empty() ? nullptr
                        : S.SlotArena.copy(Slots.data(), Slots.size());
      for (Elem &E : Elems)
        E.bind(Run);
      It->second = Row{S.ElemArena.copy(Elems.data(), Elems.size()),
                       static_cast<uint32_t>(Elems.size())};
    }
    return It->second;
  }

  uint64_t entries() {
    uint64_t N = 0;
    for (Stripe &S : Stripes) {
      std::lock_guard<std::mutex> Lock(S.M);
      N += S.Map.size();
    }
    return N;
  }

  /// Approximate retained bytes: the arenas plus, per entry, its hash-map
  /// node (key and value, plus 16 bytes of next pointer and cached hash).
  uint64_t approxBytes() {
    uint64_t Bytes = 0;
    for (Stripe &S : Stripes) {
      std::lock_guard<std::mutex> Lock(S.M);
      Bytes += S.ElemArena.approxBytes() + S.SlotArena.approxBytes() +
               S.Map.size() * (sizeof(Key) + sizeof(Row) + 16);
    }
    return Bytes;
  }

private:
  struct Stripe {
    std::mutex M;
    std::unordered_map<Key, Row, KeyHash> Map;
    ChunkArena<Elem> ElemArena;
    ChunkArena<ThreadSlot> SlotArena; ///< MemoOutcome slot runs.
  };
  Stripe &stripeOf(const Key &K) {
    return Stripes[KeyHash{}(K) % Stripes.size()];
  }
  std::vector<Stripe> Stripes;
};

/// A thread step's memo key.
struct StepKey {
  ThreadId T = 0;
  CtxRef Ctx = nullptr;
  GSRef GS = nullptr;
  friend bool operator==(const StepKey &A, const StepKey &B) {
    return A.T == B.T && A.Ctx == B.Ctx && A.GS == B.GS;
  }
};
struct StepKeyHash {
  size_t operator()(const StepKey &K) const {
    size_t H = K.GS->Hash;
    hashCombine(H, K.Ctx->Hash);
    hashValue(H, K.T);
    return H;
  }
};
struct GSRefHash {
  size_t operator()(GSRef GS) const { return GS->Hash; }
};

/// The thread-step memo: a thread's atomic step reads only its own context
/// and the global state, so its outcome list is a function of its StepKey.
using StepMemo = HandleMemo<StepKey, StepKeyHash, MemoOutcome>;
/// The env rows: an env step reads and writes only the global state, so
/// the env steps out of a state are a function of its handle.
using EnvRows = HandleMemo<GSRef, GSRefHash, EnvSucc>;

/// Evaluates an Act frame's arguments.
std::vector<Val> evalArgs(const Frame &Top) {
  std::vector<Val> Args;
  Args.reserve(Top.Node->args().size());
  for (const ExprRef &E : Top.Node->args())
    Args.push_back(E->eval(Top.Env));
  return Args;
}

/// The trace text of thread \p T applying \p A to \p Args; with a
/// \p Result, "-> result" follows.
std::string threadStepText(ThreadId T, const AtomicAction &A,
                           const std::vector<Val> &Args,
                           const Val *Result) {
  std::string ArgText;
  for (size_t I = 0, Sz = Args.size(); I != Sz; ++I)
    ArgText += (I ? ", " : "") + Args[I].toString();
  std::string Text =
      formatString("thread %llu: %s(%s)", static_cast<unsigned long long>(T),
                   A.name().c_str(), ArgText.c_str());
  if (Result)
    Text += " -> " + Result->toString();
  return Text;
}

/// The unnormalized, unfrozen start of a run: \p Root as the root thread
/// under \p InitialEnv, in \p Initial.
Config initialConfig(const ProgRef &Root, const GlobalState &Initial,
                     const VarEnv &InitialEnv) {
  Config C;
  C.mutGS() = Initial;
  ThreadCtx Main;
  Main.Stack.push_back(runFrame(Root.get(), InitialEnv));
  C.addThread(rootThread(), std::move(Main));
  return C;
}

/// The exploration driver.
class Explorer {
public:
  Explorer(const EngineOptions &Opts, RunResult &Res)
      : Opts(Opts), Res(Res) {}

  void run(const ProgRef &Root, const GlobalState &Initial,
           const VarEnv &InitialEnv) {
    assert((Opts.Por == PorMode::Off || Opts.Por == PorMode::On) &&
           "explore() resolves the POR mode before running");
    assert(Opts.Symmetry != SymMode::Default &&
           Opts.Symmetry != SymMode::Check &&
           "explore() resolves the symmetry mode before running");
    PorOn = Opts.Por == PorMode::On;
    SymOn = Opts.Symmetry == SymMode::On;
    Res.MaxConfigsBound = Opts.MaxConfigs;
    Res.Reduction.Por = Opts.Por;
    Res.Reduction.Sym = Opts.Symmetry;
    if (SymOn)
      PinnedPtrs = collectPinnedPtrs(Root, Initial, InitialEnv, Opts.Defs);

    Config C0 = initialConfig(Root, Initial, InitialEnv);

    // Under symmetry, normalization of the seed can already cross a
    // symmetric join (a par of pure branches), in which case the mirrored
    // pair orders arrive as extra seed configurations.
    std::vector<Config> Seeds;
    std::string Err;
    if (!seedCoherent(Initial, Err) ||
        !normalize(C0, /*From=*/0, Err, SymOn ? &Seeds : nullptr)) {
      Res.Safe = false;
      Res.FailureNote = std::move(Err);
      return;
    }

    // POR declines where no ample set can form (DESIGN.md §9): the
    // declined run is the plain engine, memo included.
    if (PorOn && !collectUniverse(Root)) {
      PorOn = false;
      Res.Reduction.PorDeclined = true;
      PorDeclinedCounter.fetch_add(1, std::memory_order_relaxed);
    }

    unsigned Jobs = resolveJobs(Opts.Jobs);
    NumStripes = Jobs == 1 ? 1 : 64;
    Stripes = std::vector<Stripe>(NumStripes);
    // Pre-size the visited set from the exploration bound (bounded so
    // tiny explorations do not pay for a four-million-bucket table).
    size_t Reserve = static_cast<size_t>(
        std::min<uint64_t>(Opts.MaxConfigs, 1u << 16));
    for (Stripe &S : Stripes)
      S.Set.reserve(Reserve / NumStripes + 1);
    GSTable.init(NumStripes);
    CtxTable.init(NumStripes);
    Memo.init(NumStripes);
    Rows.init(NumStripes);
    Workers.clear();
    for (unsigned I = 0; I != Jobs; ++I)
      Workers.push_back(std::make_unique<Worker>());

    Seeds.insert(Seeds.begin(), std::move(C0));
    for (Config &Seed : Seeds) {
      freeze(Seed);
      enqueue(std::move(Seed), nullptr, {}, *Workers[0]);
    }

    // This thread runs worker 0; with Jobs > 1 the others join it as a
    // team.
    std::vector<std::thread> Team;
    for (unsigned I = 1; I < Jobs; ++I)
      Team.emplace_back([this, I] {
        ParallelRegionGuard Region;
        workerLoop(I);
      });
    {
      std::optional<ParallelRegionGuard> Region;
      if (Jobs > 1)
        Region.emplace();
      workerLoop(0);
    }
    for (std::thread &T : Team)
      T.join();

    Res.ConfigsExplored = Expanded.load();
    Res.Exhausted = ExhaustedFlag.load();
    std::set<Terminal> Merged;
    for (const std::unique_ptr<Worker> &W : Workers) {
      if (Res.Exhausted)
        Res.FrontierAtAbort += W->Queue.size();
      Res.ActionSteps += W->ActionSteps;
      Res.EnvSteps += W->EnvSteps;
      Res.DedupHits += W->DedupHits;
      Res.StepMemoHits += W->StepMemoHits;
      Res.EnvRowHits += W->EnvRowHits;
      Merged.insert(W->Terminals.begin(), W->Terminals.end());
    }
    Res.Terminals.assign(Merged.begin(), Merged.end());

    // The visited set only grows, so its final size is the run's peak.
    // Each node counts its handle vector and wake state; the contexts and
    // global states it points to count once, as table entries, and the
    // thread-step memo and the env rows count their entries and arrays.
    uint64_t Nodes = 0;
    uint64_t Bytes = GSTable.approxBytes() + CtxTable.approxBytes() +
                     Memo.approxBytes() + Rows.approxBytes();
    Res.StepMemoEntries = Memo.entries();
    Res.EnvRowEntries = Rows.entries();
    for (Stripe &S : Stripes) {
      Nodes += S.Set.size();
      // 16 bytes: the hash-set node (next pointer + cached hash).
      for (const Node &N : S.Set)
        Bytes += sizeof(Node) + 16 +
                 N.C.threads().capacity() * sizeof(ThreadSlot) +
                 (N.Sleep.capacity() + N.Woken.capacity()) *
                     sizeof(SleepEntry);
    }
    Res.VisitedNodes = Nodes;
    Res.VisitedBytes = Bytes;
    notePeakVisited(Nodes, Bytes);
  }

  /// Executes one pseudo-random schedule (see fcsl::simulate).
  SimResult simulateRun(const ProgRef &Root, const GlobalState &Initial,
                        const VarEnv &InitialEnv, uint64_t Seed,
                        uint64_t MaxSteps) {
    SimResult Sim;
    // The walk never freezes: the configuration stays a private copy, and
    // erased threads free theirs, so memory is bounded by the live state.
    Config C = initialConfig(Root, Initial, InitialEnv);
    Rng Random(Seed);

    auto FailOut = [&](std::string Note) {
      Sim.Safe = false;
      Sim.FailureNote = std::move(Note);
      return Sim;
    };

    std::string Err;
    if (!seedCoherent(Initial, Err) || !normalize(C, /*From=*/0, Err))
      return FailOut(std::move(Err));

    for (Sim.Steps = 0; Sim.Steps < MaxSteps; ++Sim.Steps) {
      const ThreadCtx &MainCtx = C.thread(rootThread());
      if (MainCtx.Done) {
        Sim.Terminated = true;
        Sim.Result = *MainCtx.Done;
        Sim.FinalView = C.gs().viewFor(rootThread());
        return Sim;
      }

      // One candidate per runnable thread, plus one for the environment.
      std::vector<ThreadId> Runnable;
      for (const ThreadSlot &S : C.threads())
        if (!S.ctx().Done && !S.ctx().Waiting)
          Runnable.push_back(S.Id);
      bool WithEnv = Opts.EnvInterference && Opts.Ambient;
      size_t Choices = Runnable.size() + (WithEnv ? 1 : 0);
      if (Choices == 0)
        break; // Deadlock: report as non-termination.
      size_t Pick = static_cast<size_t>(Random.nextBelow(Choices));

      if (Pick < Runnable.size()) {
        ThreadId T = Runnable[Pick];
        const Frame &Top = C.thread(T).Stack.back();
        const AtomicAction &A = *Top.Node->action();
        std::vector<Val> Args = evalArgs(Top);
        View Pre = C.gs().viewFor(T);
        std::optional<std::vector<ActOutcome>> Outcomes =
            A.step(Pre, Args);
        if (!Outcomes)
          return FailOut(
              formatString("action %s is unsafe in the sampled schedule",
                           A.name().c_str()));
        const ActOutcome &O =
            (*Outcomes)[Random.nextBelow(Outcomes->size())];
        switch (applyOutcome(C, T, Pre, O, Err, nullptr)) {
        case StepFault::None:
          break;
        case StepFault::WritesOther:
          return FailOut(writesOtherNote(A));
        case StepFault::Coherence:
          return FailOut(formatString("action %s broke coherence",
                                      A.name().c_str()));
        case StepFault::Unwind:
          return FailOut(std::move(Err));
        }
      } else {
        // One random environment step (if any is enabled).
        View EnvView = C.gs().viewForEnv();
        std::vector<View> Posts;
        for (const Transition &T : Opts.Ambient->transitions())
          if (isEnvStep(T))
            for (View &Post : coherentPosts(T, EnvView))
              Posts.push_back(std::move(Post));
        if (!Posts.empty())
          C.mutGS().applyEnv(EnvView,
                             Posts[Random.nextBelow(Posts.size())]);
      }
    }
    return Sim; // Budget exhausted without termination.
  }

private:
  /// Env transitions read the states they step as coherent ones, so with
  /// env interference on, a run starts only from a state whose root view
  /// the ambient finds coherent. Returns false, with \p Err set, when it
  /// is not.
  bool seedCoherent(const GlobalState &Initial, std::string &Err) const {
    if (!Opts.EnvInterference || !Opts.Ambient ||
        Opts.Ambient->coherent(Initial.viewFor(rootThread())))
      return true;
    Err = "the initial state is not coherent under " + Opts.Ambient->name();
    return false;
  }

  /// One stripe of the visited set.
  struct Stripe {
    std::mutex M;
    std::unordered_set<Node, NodeHash, NodeEq> Set;
  };

  /// Per-worker frontier and statistics; counters are summed and terminal
  /// sets merged (sorted) after the team joins.
  struct Worker {
    std::mutex M;
    std::deque<const Node *> Queue;
    uint64_t ActionSteps = 0;
    uint64_t EnvSteps = 0;
    uint64_t DedupHits = 0;
    uint64_t StepMemoHits = 0;
    uint64_t EnvRowHits = 0;
    std::set<Terminal> Terminals;
  };

  /// A consistent copy of a node's wake state, taken under the stripe
  /// mutex when the node is popped for expansion (see expandPopped), with
  /// the wake delta the node collected since its last expansion.
  ///
  /// A candidate's execution here is its *first* — the one that counts
  /// its work (action steps, env steps, dedup hits) — exactly when this is
  /// the node's first expansion or the candidate was woken since the last
  /// one. Sleep sets only shrink and close masks only grow, so a candidate
  /// that ran once runs in every later expansion too, and one that did not
  /// run can start only when a merge wakes it: each candidate is woken at
  /// most once, into exactly one snapshot's delta.
  struct WakeSnapshot {
    std::vector<SleepEntry> Sleep;
    uint32_t CloseMask = 0;
    bool First = false; ///< this is the node's first expansion.
    std::vector<SleepEntry> Woken; ///< sleep entries woken since the last.
    uint32_t WokenMask = 0;        ///< close-mask bits added since the last.
  };

  /// Delivers \p Value to thread \p T's continuation, unwinding HideExit
  /// frames. Returns false on an engine-level failure, with \p Err set.
  bool deliver(Config &C, ThreadId T, Val Value, std::string &Err) {
    ThreadCtx &Ctx = C.mutThread(T);
    while (true) {
      if (Ctx.Stack.empty()) {
        Ctx.Done = std::move(Value);
        return true;
      }
      Frame F = std::move(Ctx.Stack.back());
      Ctx.Stack.pop_back();
      switch (F.K) {
      case Frame::Kind::BindCont: {
        VarEnv Env = std::move(F.Env);
        if (F.Var != "_")
          Env[F.Var] = std::move(Value);
        Ctx.Stack.push_back(runFrame(F.Rest, std::move(Env)));
        return true;
      }
      case Frame::Kind::HideExit: {
        // Scoped deinstallation: the hidden joint heap flows back into the
        // caller's private heap; hidden auxiliary state is discarded
        // (it was logical-only).
        const HideSpec &Spec = F.Node->hideSpec();
        GlobalState &GS = C.mutGS();
        Heap Hidden = GS.removeLabel(Spec.Hidden);
        Heap Mine = GS.selfOf(Spec.Pv, T).getHeap();
        std::optional<Heap> Joined = Heap::join(Mine, Hidden);
        assert(Joined && "hidden heap clashes with the private heap");
        GS.setSelf(Spec.Pv, T, PCMVal::ofHeap(std::move(*Joined)));
        continue; // Keep delivering the same value outward.
      }
      case Frame::Kind::Run:
        assert(false && "delivering a value onto a Run frame");
        Err = "internal: delivering a value onto a Run frame";
        return false;
      }
    }
  }

  /// How applying an action outcome failed (see applyOutcome).
  enum class StepFault : uint8_t { None, WritesOther, Coherence, Unwind };

  /// The failure note of an action whose post-view changed the label set
  /// or some other(L) (see GlobalState::applyThread).
  static std::string writesOtherNote(const AtomicAction &A) {
    return formatString("action %s changed the label set or the other "
                        "component",
                        A.name().c_str());
  }

  /// Applies outcome \p O of thread \p T's pending action, taken from
  /// T's view \p Pre, to \p C: writes the post-state, re-checks
  /// coherence, pops the action, delivers its result and runs the
  /// administrative cascade from T (normalize, with \p Extras as there).
  /// The write keeps every other thread's contribution, so T's view after
  /// it is O.Post, and coherence is checked on O.Post itself. Each caller
  /// words its own failure: a post-view that wrote outside self and joint,
  /// a broken coherence, or an unwinding failure described by \p Err.
  StepFault applyOutcome(Config &C, ThreadId T, const View &Pre,
                         const ActOutcome &O, std::string &Err,
                         std::vector<Config> *Extras) {
    if (!C.mutGS().applyThread(T, Pre, O.Post))
      return StepFault::WritesOther;
    if (Opts.CheckStepCoherence && Opts.Ambient &&
        !Opts.Ambient->coherent(O.Post))
      return StepFault::Coherence;
    C.mutThread(T).Stack.pop_back();
    if (!deliver(C, T, O.Result, Err) || !normalize(C, T, Err, Extras))
      return StepFault::Unwind;
    return StepFault::None;
  }

  //===--------------------------------------------------------------------===//
  // Symmetry reduction: k-ary orbit groups (DESIGN.md §11)
  //===--------------------------------------------------------------------===//

  /// One orbit group while its spine is still forking. Bookkeeping local
  /// to a single normalize() call — every fork of a spine happens within
  /// the call that opened the group, because the forked interiors are
  /// visited in the same call.
  /// The durable, serialized marker is ThreadCtx::SymGroup.
  struct Forming {
    bool Flat = false; ///< k-ary spine: Par-kind children become interiors.
    ProgRef Rep;       ///< first leaf slot's program; later slots unify.
    bool HaveSig = false;
    /// The first slot's forked per-label contributions; every later slot
    /// must fork with the same ones or the group dissolves.
    std::vector<std::pair<Label, PCMVal>> Sig;
  };
  using FormingMap = std::map<ThreadId, Forming>;

  /// Called at thread \p T's `par` fork (GS already forked, children not
  /// yet created): opens a new orbit group rooted at T when the spine
  /// qualifies, or continues the flat group T is an interior of. Sets
  /// \p LG / \p RG to the children's SymGroup markers and may rewrite
  /// \p Left / \p Right onto the group's representative node so symmetric
  /// executions become structurally equal (frames compare program node
  /// pointers). The rewrite is sound independently of the group's fate:
  /// only progEquivalent nodes are ever unified, and a prog subtree never
  /// migrates between threads, so the rewrite is injective on reachable
  /// configurations.
  void symFork(Config &C, ThreadId T, const Prog *Node, const Prog *&Left,
               const Prog *&Right, ThreadId &LG, ThreadId &RG,
               FormingMap &Groups) {
    ThreadCtx &Ctx = C.mutThread(T);
    ThreadId G = 0;
    if (Ctx.SymGroup != 0 && Ctx.SymGroup != T) {
      // Interior of a spine whose root opened a flat group earlier in
      // this normalize call. A missing entry means the group dissolved
      // meanwhile: the children stay free.
      if (Groups.find(Ctx.SymGroup) == Groups.end())
        return;
      G = Ctx.SymGroup;
    } else if (Ctx.SymGroup == 0) {
      // Candidate root. Prefer the widest reading: a spine of k >= 2
      // pairwise-equivalent leaves collapses k! interleavings; otherwise
      // two equivalent whole subtrees still form a binary pair (each
      // subtree is one slot — it may open its own nested group later).
      std::vector<const ProgRef *> Leaves;
      flattenParLeaves(Node->left(), Leaves);
      flattenParLeaves(Node->right(), Leaves);
      bool FlatOk = Leaves.size() >= 2;
      for (size_t I = 1; FlatOk && I != Leaves.size(); ++I)
        FlatOk = progEquivalent(*Leaves[0], *Leaves[I]);
      Forming F;
      if (FlatOk)
        F.Flat = true;
      else if (!progEquivalent(Node->left(), Node->right()))
        return;
      G = T;
      Ctx.SymGroup = T;
      Groups.emplace(T, std::move(F));
      SymGroupsCounter.fetch_add(1, std::memory_order_relaxed);
      atomicMax(SymGroupPeakCounter, FlatOk ? Leaves.size() : 2);
    } else {
      return; // Already a group root: a thread forks at most once.
    }
    Forming &F = Groups.at(G);
    auto Slot = [&](const ProgRef &P, const Prog *&Raw, ThreadId Id,
                    ThreadId &Mark) -> bool {
      if (F.Flat && P->kind() == Prog::Kind::Par) {
        Mark = G; // Interior: forks later in this same call.
        return true;
      }
      // Leaf slot: a free thread (it may open its own nested group).
      // Verify it runs the group's representative program and forked with
      // the same per-label contributions as the first slot; any mismatch
      // dissolves the whole group.
      if (!F.Rep)
        F.Rep = P;
      else if (!progEquivalent(F.Rep, P)) {
        dissolveGroup(C, G, Groups);
        return false;
      }
      std::vector<std::pair<Label, PCMVal>> Sig;
      for (Label L : C.gs().labels())
        Sig.emplace_back(L, C.gs().selfOf(L, Id));
      if (!F.HaveSig) {
        F.HaveSig = true;
        F.Sig = std::move(Sig);
      } else if (!(Sig == F.Sig)) {
        dissolveGroup(C, G, Groups);
        return false;
      }
      Raw = F.Rep.get();
      return true;
    };
    if (!Slot(Node->left(), Left, leftChild(T), LG) ||
        !Slot(Node->right(), Right, rightChild(T), RG))
      LG = RG = 0;
  }

  /// Clears every SymGroup marker of group \p G: formation failed (a leaf
  /// slot forked with a different program or different contributions).
  /// Salvage pass: a former member whose own two children are identical
  /// not-yet-running leaf forks with equal contributions still forms a
  /// binary pair group of its own — the bottom of a spine stays reduced
  /// even when the spine as a whole is not symmetric.
  void dissolveGroup(Config &C, ThreadId G, FormingMap &Groups) {
    Groups.erase(G);
    std::vector<ThreadId> Members;
    for (const ThreadSlot &S : C.threads())
      if (S.ctx().SymGroup == G)
        Members.push_back(S.Id);
    for (ThreadId M : Members)
      C.mutThread(M).SymGroup = 0;
    for (ThreadId M : Members) {
      const ThreadCtx *L = C.findThread(leftChild(M));
      const ThreadCtx *R = C.findThread(rightChild(M));
      if (!L || !R)
        continue;
      if (L->SymGroup != 0 || R->SymGroup != 0 || L->Waiting ||
          R->Waiting || L->Done || R->Done || !(L->Stack == R->Stack))
        continue;
      bool EqualSelves = true;
      for (Label Lb : C.gs().labels())
        if (!(C.gs().selfOf(Lb, leftChild(M)) ==
              C.gs().selfOf(Lb, rightChild(M)))) {
          EqualSelves = false;
          break;
        }
      if (EqualSelves)
        C.mutThread(M).SymGroup = M;
    }
  }

  /// The shape of orbit group \p G: interior threads (excluding the root)
  /// and leaf slots, both in left-to-right spine order. Complete is false
  /// only transiently inside normalize, while the spine is still forking
  /// (a marked interior has not forked yet, or a child is missing); no
  /// canonicalization or resolution happens then.
  struct GroupLayout {
    bool Complete = true;
    std::vector<ThreadId> Interiors;
    std::vector<ThreadId> Slots;
  };

  void layoutGroup(const Config &C, ThreadId G, ThreadId X,
                   GroupLayout &L) const {
    for (ThreadId Ch : {leftChild(X), rightChild(X)}) {
      const ThreadCtx *Ctx = C.findThread(Ch);
      if (!Ctx) {
        L.Complete = false;
        return;
      }
      if (Ctx->SymGroup == G) {
        if (!Ctx->Waiting) {
          L.Complete = false;
          return;
        }
        L.Interiors.push_back(Ch);
        layoutGroup(C, G, Ch, L);
        if (!L.Complete)
          return;
      } else {
        L.Slots.push_back(Ch);
      }
    }
  }

  /// Joins orbit group \p G once every leaf slot is Done: folds the whole
  /// spine's contributions children-before-parents, erases the group's
  /// threads, and delivers the identity slot-value tuple into \p C. The
  /// resolved configuration stands for every slot permutation the
  /// canonicalizer merged, so each *distinct* non-identity assignment of
  /// the slot values is delivered as a separate configuration into
  /// \p Extra — exactly regenerating the unreduced engine's post-join
  /// configurations (the PCM join of the children's contributions is
  /// commutative, so all assignments share one global state and differ
  /// only in the delivered tuple). \p Extra is null only under simulate,
  /// which never forms groups. Returns false on an engine failure while
  /// delivering; sets \p Resolved when the group actually resolved.
  bool resolveGroup(Config &C, ThreadId G, std::string &Err,
                    std::vector<Config> *Extra, bool &Resolved) {
    GroupLayout L;
    layoutGroup(C, G, G, L);
    if (!L.Complete)
      return true;
    std::vector<Val> Vals;
    Vals.reserve(L.Slots.size());
    for (ThreadId S : L.Slots) {
      const ThreadCtx &Ctx = C.thread(S);
      if (!Ctx.Done)
        return true; // A slot is still running: keep waiting.
      Vals.push_back(*Ctx.Done);
    }

    // The spine's pair shape over slot indices: rebuilding the delivered
    // tuple for an arbitrary value assignment replays this shape.
    struct ShapeNode {
      int Slot = -1; ///< >= 0: index into the slot-value sequence.
      std::unique_ptr<ShapeNode> L, R;
    };
    size_t NextSlot = 0;
    std::function<std::unique_ptr<ShapeNode>(ThreadId)> ShapeOf =
        [&](ThreadId X) -> std::unique_ptr<ShapeNode> {
      auto N = std::make_unique<ShapeNode>();
      if (X == G || C.thread(X).SymGroup == G) {
        N->L = ShapeOf(leftChild(X));
        N->R = ShapeOf(rightChild(X));
      } else {
        N->Slot = static_cast<int>(NextSlot++);
      }
      return N;
    };
    std::unique_ptr<ShapeNode> Shape = ShapeOf(G);
    std::function<Val(const ShapeNode &, const std::vector<Val> &)>
        TupleOf = [&](const ShapeNode &N,
                      const std::vector<Val> &Seq) -> Val {
      if (N.Slot >= 0)
        return Seq[static_cast<size_t>(N.Slot)];
      return Val::pair(TupleOf(*N.L, Seq), TupleOf(*N.R, Seq));
    };

    std::vector<ThreadId> Pairs = L.Interiors;
    Pairs.push_back(G);
    std::sort(Pairs.begin(), Pairs.end(), std::greater<ThreadId>());
    for (ThreadId X : Pairs)
      C.mutGS().joinChildren(X, leftChild(X), rightChild(X));
    for (ThreadId X : L.Interiors)
      C.eraseThread(X);
    for (ThreadId S : L.Slots)
      C.eraseThread(S);
    ThreadCtx &RCtx = C.mutThread(G);
    RCtx.Waiting = false;
    RCtx.SymGroup = 0;

    if (Extra && Vals.size() > 1) {
      // Every distinct permutation of the slot-value multiset, minus the
      // identity assignment, in sorted enumeration order (deterministic
      // across workers and job counts).
      Config Base = C; // Post-join, pre-deliver.
      auto ValLess = [](const Val &A, const Val &B) {
        return A.compare(B) < 0;
      };
      std::vector<Val> Seq = Vals;
      std::sort(Seq.begin(), Seq.end(), ValLess);
      do {
        if (Seq == Vals)
          continue;
        Config M = Base;
        if (!deliver(M, G, TupleOf(*Shape, Seq), Err) ||
            !normalize(M, /*From=*/0, Err, Extra))
          return false;
        Extra->push_back(std::move(M));
      } while (std::next_permutation(Seq.begin(), Seq.end(), ValLess));
    }
    if (!deliver(C, G, TupleOf(*Shape, Vals), Err))
      return false;
    Resolved = true;
    return true;
  }

  /// The threads normalize still has to visit; the lowest id goes first.
  using DirtySet = std::set<ThreadId>;

  /// Applies administrative steps until every thread is Done, Waiting, or
  /// stopped at an atomic action. Returns false on failure, with \p Err
  /// set.
  ///
  /// Only threads that may take a step are visited (DESIGN.md §8): thread
  /// \p From, whose step left every other thread as it was, or every
  /// thread when \p From is 0 (a seed or a mirror configuration). The set
  /// is worked in ascending id order, and each visit runs the thread's
  /// whole cascade. A fork adds the two children, a thread that finishes
  /// adds its parent, and a waiting interior of an orbit group adds the
  /// group's root, the only member that may join.
  ///
  /// \p Extra (symmetry reduction only) receives mirror configurations:
  /// when an orbit group resolves with differing slot results, the
  /// canonicalizer has collapsed this configuration with every slot
  /// permutation of it, so each distinct value assignment must be
  /// delivered to regenerate exactly the unreduced engine's post-join
  /// configurations (see resolveGroup).
  bool normalize(Config &C, ThreadId From, std::string &Err,
                 std::vector<Config> *Extra = nullptr) {
    // Orbit groups whose spines are forking in THIS call (see symFork);
    // keyed by group-root thread id. The durable marker is SymGroup.
    FormingMap Groups;
    DirtySet Dirty;
    if (From != 0)
      Dirty.insert(From);
    else
      for (const ThreadSlot &S : C.threads())
        Dirty.insert(S.Id);
    while (!Dirty.empty()) {
      ThreadId T = *Dirty.begin();
      Dirty.erase(Dirty.begin());
      if (!cascade(C, T, Dirty, Groups, Err, Extra))
        return false;
    }
    return true;
  }

  /// Runs thread \p T's administrative steps until it stops at an atomic
  /// action, waits, finishes or is joined away, adding to \p Dirty the
  /// threads its steps may wake (see normalize).
  bool cascade(Config &C, ThreadId T, DirtySet &Dirty, FormingMap &Groups,
               std::string &Err, std::vector<Config> *Extra) {
    while (true) {
      // Read through the shared context; only a thread that takes an
      // administrative step gets a private copy.
      const ThreadCtx *Cur = C.findThread(T);
      if (!Cur)
        return true; // Joined away meanwhile.

      if (Cur->Done) {
        if (T != rootThread())
          Dirty.insert(T / 2); // The parent may join now.
        return true;
      }

      if (Cur->Waiting) {
        if (Cur->SymGroup != 0) {
          // Orbit-group member: interiors of the spine never join on
          // their own, and the root joins the whole group at once, but
          // only when every leaf slot has finished (resolveGroup).
          if (T != Cur->SymGroup) {
            Dirty.insert(Cur->SymGroup);
            return true;
          }
          bool Resolved = false;
          if (!resolveGroup(C, T, Err, Extra, Resolved))
            return false;
          if (!Resolved)
            return true;
          continue;
        }
        const ThreadCtx *L = C.findThread(leftChild(T));
        const ThreadCtx *R = C.findThread(rightChild(T));
        assert(L && R && "waiting thread lost its children");
        if (!L->Done || !R->Done)
          return true;
        Val Result = Val::pair(*L->Done, *R->Done);
        C.mutGS().joinChildren(T, leftChild(T), rightChild(T));
        C.eraseThread(leftChild(T));
        C.eraseThread(rightChild(T));
        C.mutThread(T).Waiting = false;
        if (!deliver(C, T, std::move(Result), Err))
          return false;
        continue;
      }

      assert(!Cur->Stack.empty() && "running thread with empty stack");
      if (Cur->Stack.back().K != Frame::Kind::Run ||
          Cur->Stack.back().Node->kind() == Prog::Kind::Act)
        return true; // BindCont/HideExit only surface via deliver; an
                     // Act is a scheduling point, handled by expand().
      ThreadCtx &Ctx = C.mutThread(T);
      Frame &Top = Ctx.Stack.back();
      const Prog *Node = Top.Node;

      switch (Node->kind()) {
      case Prog::Kind::Ret: {
        Val V = Node->retExpr()->eval(Top.Env);
        Ctx.Stack.pop_back();
        if (!deliver(C, T, std::move(V), Err))
          return false;
        break;
      }
      case Prog::Kind::Act:
        break; // Unreachable: filtered above.
      case Prog::Kind::Bind: {
        Frame Cont;
        Cont.K = Frame::Kind::BindCont;
        Cont.Var = Node->bindVar();
        Cont.Rest = Node->rest().get();
        Cont.Env = Top.Env;
        const Prog *First = Node->first().get();
        VarEnv Env = std::move(Top.Env);
        Ctx.Stack.pop_back();
        Ctx.Stack.push_back(std::move(Cont));
        Ctx.Stack.push_back(runFrame(First, std::move(Env)));
        break;
      }
      case Prog::Kind::If: {
        bool Taken = Node->cond()->eval(Top.Env).getBool();
        const Prog *Branch =
            (Taken ? Node->thenProg() : Node->elseProg()).get();
        VarEnv Env = std::move(Top.Env);
        Ctx.Stack.pop_back();
        Ctx.Stack.push_back(runFrame(Branch, std::move(Env)));
        break;
      }
      case Prog::Kind::Call: {
        assert(Opts.Defs && "call without a definition table");
        const FuncDef &Def = Opts.Defs->lookup(Node->callee());
        assert(Def.Params.size() == Node->args().size() &&
               "call arity mismatch");
        VarEnv CalleeEnv;
        for (size_t I = 0, N = Def.Params.size(); I != N; ++I)
          CalleeEnv[Def.Params[I]] = Node->args()[I]->eval(Top.Env);
        Ctx.Stack.pop_back();
        Ctx.Stack.push_back(runFrame(Def.Body.get(),
                                     std::move(CalleeEnv)));
        break;
      }
      case Prog::Kind::Par: {
        const Prog *Left = Node->left().get();
        const Prog *Right = Node->right().get();
        std::map<Label, std::pair<PCMVal, PCMVal>> Splits;
        if (const SplitFn &Split = Node->split())
          Splits = Split(C.gs().viewFor(T));
        VarEnv Env = std::move(Top.Env);
        Ctx.Stack.pop_back();
        Ctx.Waiting = true;
        C.mutGS().fork(T, leftChild(T), rightChild(T), Splits);
        ThreadId LG = 0, RG = 0;
        if (SymOn)
          symFork(C, T, Node, Left, Right, LG, RG, Groups);
        ThreadCtx L, R;
        L.SymGroup = LG;
        R.SymGroup = RG;
        L.Stack.push_back(runFrame(Left, Env));
        R.Stack.push_back(runFrame(Right, std::move(Env)));
        C.addThread(leftChild(T), std::move(L));
        C.addThread(rightChild(T), std::move(R));
        Dirty.insert(leftChild(T));
        Dirty.insert(rightChild(T));
        break;
      }
      case Prog::Kind::Hide: {
        const HideSpec &Spec = Node->hideSpec();
        View Pre = C.gs().viewFor(T);
        const Heap &Mine = Pre.self(Spec.Pv).getHeap();
        std::optional<Heap> Donation = Spec.ChooseDonation(Mine);
        if (!Donation) {
          Err = formatString(
              "hide: the private heap does not satisfy the decoration "
              "predicate (thread %llu)",
              static_cast<unsigned long long>(T));
          return false;
        }
        std::optional<PCMVal> Rest = pcmSubtract(
            PCMVal::ofHeap(Mine), PCMVal::ofHeap(*Donation));
        if (!Rest) {
          Err = "hide: decoration selected cells outside the private "
                "heap";
          return false;
        }
        GlobalState &GS = C.mutGS();
        GS.setSelf(Spec.Pv, T, std::move(*Rest));
        GS.addLabel(Spec.Hidden, Spec.SelfType, std::move(*Donation),
                    Spec.SelfType->unit(), /*EnvClosed=*/true);
        GS.setSelf(Spec.Hidden, T, Spec.InitSelf);
        if (Spec.Installed && !Spec.Installed->coherent(GS.viewFor(T))) {
          Err = "hide: the decorated donation does not establish the "
                "installed concurroid's coherence";
          return false;
        }
        const Prog *Body = Node->body().get();
        VarEnv Env = std::move(Top.Env);
        Ctx.Stack.pop_back();
        Frame Exit;
        Exit.K = Frame::Kind::HideExit;
        Exit.Node = Node;
        Ctx.Stack.push_back(std::move(Exit));
        Ctx.Stack.push_back(runFrame(Body, std::move(Env)));
        break;
      }
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Symmetry reduction: orbit canonicalization (DESIGN.md §11)
  //===--------------------------------------------------------------------===//

  /// Total order on frames, by content only (program nodes enter via their
  /// process-stable fingerprints). Relabeling-invariant: swapping two
  /// subtrees never changes any frame's rank, which is what makes the
  /// canonicalization pass idempotent and order-independent. A fingerprint
  /// tie between distinct nodes reads as "equal", which merely suppresses
  /// a swap — never soundness.
  static int cmpFrame(const Frame &A, const Frame &B) {
    if (A.K != B.K)
      return A.K < B.K ? -1 : 1;
    uint64_t AN = A.Node ? A.Node->fingerprint() : 0;
    uint64_t BN = B.Node ? B.Node->fingerprint() : 0;
    if (AN != BN)
      return AN < BN ? -1 : 1;
    uint64_t AR = A.Rest ? A.Rest->fingerprint() : 0;
    uint64_t BR = B.Rest ? B.Rest->fingerprint() : 0;
    if (AR != BR)
      return AR < BR ? -1 : 1;
    if (A.Var != B.Var)
      return A.Var < B.Var ? -1 : 1;
    if (A.Env.size() != B.Env.size())
      return A.Env.size() < B.Env.size() ? -1 : 1;
    auto AIt = A.Env.begin(), BIt = B.Env.begin();
    for (; AIt != A.Env.end(); ++AIt, ++BIt) {
      if (AIt->first != BIt->first)
        return AIt->first < BIt->first ? -1 : 1;
      int Cmp = AIt->second.compare(BIt->second);
      if (Cmp != 0)
        return Cmp;
    }
    return 0;
  }

  /// Compares the whole subtrees rooted at threads \p A and \p B of \p C:
  /// control stack, completion state, per-label contributions, then the
  /// children recursively. Content-based (never reads thread ids), so the
  /// order is invariant under the relabeling swapSubtrees performs.
  int cmpThread(const Config &C, ThreadId A, ThreadId B) const {
    const ThreadCtx *XP = C.findThread(A), *YP = C.findThread(B);
    if (!XP != !YP)
      return XP ? -1 : 1;
    if (!XP)
      return 0; // Neither exists, so neither has children.
    const ThreadCtx &X = *XP, &Y = *YP;
    if (X.Done.has_value() != Y.Done.has_value())
      return X.Done.has_value() ? -1 : 1;
    if (X.Done) {
      int Cmp = X.Done->compare(*Y.Done);
      if (Cmp != 0)
        return Cmp;
    }
    if (X.Waiting != Y.Waiting)
      return X.Waiting < Y.Waiting ? -1 : 1;
    uint64_t XG = relGroup(A, X.SymGroup);
    uint64_t YG = relGroup(B, Y.SymGroup);
    if (XG != YG)
      return XG < YG ? -1 : 1;
    if (X.Stack.size() != Y.Stack.size())
      return X.Stack.size() < Y.Stack.size() ? -1 : 1;
    for (size_t I = 0, Sz = X.Stack.size(); I != Sz; ++I) {
      int Cmp = cmpFrame(X.Stack[I], Y.Stack[I]);
      if (Cmp != 0)
        return Cmp;
    }
    for (Label L : C.gs().labels()) {
      int Cmp = C.gs().selfOf(L, A).compare(C.gs().selfOf(L, B));
      if (Cmp != 0)
        return Cmp;
    }
    // Sleep membership is deliberately NOT compared: it is not content of
    // the subtree. Two mirror configs that differ only in which symmetric
    // thread sleeps may then miss a merge — a lost reduction, not a lost
    // soundness (sleep entries are renamed consistently by the swap).
    int Cmp = cmpThread(C, leftChild(A), leftChild(B));
    if (Cmp != 0)
      return Cmp;
    return cmpThread(C, rightChild(A), rightChild(B));
  }

  /// Relabeling-invariant encoding of a thread's orbit-group membership:
  /// the thread's position inside its group root's subtree, ((1 << depth)
  /// | offset), or 0 when ungrouped. Invariant because a subtree
  /// relabeling moves a thread and its group root together, preserving
  /// the relative position; a group root above the compared subtree (only
  /// possible on malformed input) reads as an opaque constant, which
  /// merely suppresses a swap.
  static uint64_t relGroup(ThreadId Self, ThreadId G) {
    if (G == 0)
      return 0;
    ThreadId Y = Self;
    unsigned D = 0;
    while (Y > G) {
      Y >>= 1;
      ++D;
    }
    if (Y != G)
      return ~uint64_t(0);
    return (uint64_t(1) << D) | static_cast<uint64_t>(Self - (G << D));
  }

  /// Relabels group \p G's slot subtrees into sorted order: the subtree
  /// currently rooted at Slots[Ord[I]] moves to the root Slots[I], in the
  /// thread map, the SymGroup markers riding inside moved subtrees, the
  /// per-label contributions, and the sleep set (whose canonical order is
  /// restored afterwards). Slots of one group are disjoint subtrees, so
  /// walking any thread id upward meets at most one slot root — its own.
  void applySlotPermutation(Config &C, const std::vector<ThreadId> &Slots,
                            const std::vector<size_t> &Ord) const {
    std::map<ThreadId, ThreadId> SlotTarget;
    for (size_t I = 0, N = Ord.size(); I != N; ++I)
      if (Slots[Ord[I]] != Slots[I])
        SlotTarget.emplace(Slots[Ord[I]], Slots[I]);
    if (SlotTarget.empty())
      return;
    auto MapId = [&](ThreadId X) -> ThreadId {
      ThreadId Y = X;
      unsigned D = 0;
      while (true) {
        auto It = SlotTarget.find(Y);
        if (It != SlotTarget.end())
          return (It->second << D) | (X - (Y << D));
        if (Y <= 1)
          return X;
        Y >>= 1;
        ++D;
      }
    };
    std::map<ThreadId, ThreadId> Rel;
    for (const ThreadSlot &S : C.threads()) {
      ThreadId M = MapId(S.Id);
      if (M != S.Id)
        Rel.emplace(S.Id, M);
    }
    if (Rel.empty())
      return;
    C.renameThreadIds(Rel);
    for (size_t I = 0, N = C.threads().size(); I != N; ++I) {
      const ThreadSlot &S = C.threads()[I];
      if (S.ctx().SymGroup == 0)
        continue;
      auto It = Rel.find(S.ctx().SymGroup);
      if (It != Rel.end())
        C.mutThread(S.Id).SymGroup = It->second;
    }
    C.mutGS().renameThreads(Rel);
    bool SleepChanged = false;
    for (SleepEntry &E : C.Sleep) {
      if (E.IsEnv)
        continue;
      auto It = Rel.find(E.T);
      if (It != Rel.end()) {
        E.T = It->second;
        SleepChanged = true;
      }
    }
    if (SleepChanged)
      std::sort(C.Sleep.begin(), C.Sleep.end(), sleepLess);
  }

  /// Sorts one group's slot subtrees by content. Stable: equal-ranking
  /// slots keep their spine order, so the permutation is deterministic.
  bool canonicalizeGroup(Config &C, ThreadId G) const {
    GroupLayout L;
    layoutGroup(C, G, G, L);
    if (!L.Complete || L.Slots.size() < 2)
      return false;
    std::vector<size_t> Ord(L.Slots.size());
    for (size_t I = 0, N = Ord.size(); I != N; ++I)
      Ord[I] = I;
    std::stable_sort(Ord.begin(), Ord.end(), [&](size_t I, size_t J) {
      return cmpThread(C, L.Slots[I], L.Slots[J]) < 0;
    });
    bool Identity = true;
    for (size_t I = 0, N = Ord.size(); I != N; ++I)
      if (Ord[I] != I) {
        Identity = false;
        break;
      }
    if (Identity)
      return false;
    applySlotPermutation(C, L.Slots, Ord);
    return true;
  }

  /// Rewrites \p C to its orbit representative: every orbit group's slots
  /// are sorted by content. Groups are processed deepest-first (descending
  /// root id) so an enclosing group ranks already-canonical nested groups;
  /// because the comparator is content-based (relabeling-invariant), one
  /// pass reaches a fixpoint and the result is independent of discovery
  /// order. Returns true when the configuration changed.
  bool canonicalizeConfig(Config &C) const {
    std::vector<ThreadId> Roots;
    for (const ThreadSlot &S : C.threads())
      if (S.ctx().Waiting && S.ctx().SymGroup == S.Id)
        Roots.push_back(S.Id);
    std::sort(Roots.begin(), Roots.end(), std::greater<ThreadId>());
    bool Changed = false;
    for (ThreadId G : Roots)
      Changed |= canonicalizeGroup(C, G);
    return Changed;
  }

  /// Canonical fresh-pointer renumbering (DESIGN.md §11): a first-visit
  /// numbering over the global state, then each thread's frame
  /// environments and Done value, applied through the renamePtrs family.
  /// Two configurations that differ only in which names their allocations
  /// drew become identical, so allocation order stops splitting orbits
  /// and the canonical fingerprint can drive dedup and cache keys.
  /// Sleep-entry footprints are static (all-instance) descriptions,
  /// equivariant under the renaming by the action contract, so they are
  /// left alone. Returns true when anything was renamed.
  bool renameConfigPtrs(Config &C) const {
    PtrCanon Canon(PinnedPtrs);
    // Two-phase (see PtrCanon.h): the collect pass learns which pointers
    // name heap cells, the rename pass repeats the identical traversal to
    // number them in first-visit order.
    auto VisitAll = [&Canon, &C] {
      Canon.visit(C.gs());
      for (const ThreadSlot &S : C.threads()) {
        const ThreadCtx &Ctx = S.ctx();
        for (const Frame &F : Ctx.Stack)
          for (const auto &Binding : F.Env)
            Canon.visit(Binding.second);
        if (Ctx.Done)
          Canon.visit(*Ctx.Done);
      }
    };
    VisitAll();
    Canon.beginRename();
    VisitAll();
    if (Canon.identity())
      return false;
    const std::map<Ptr, Ptr> &M = Canon.mapping();
    C.mutGS().renamePtrs(M);
    // Only threads whose values actually move get a private copy.
    auto Moves = [&M](const ThreadCtx &Ctx) {
      if (Ctx.Done && Ctx.Done->renamePtrs(M) != *Ctx.Done)
        return true;
      for (const Frame &F : Ctx.Stack)
        for (const auto &Binding : F.Env)
          if (Binding.second.renamePtrs(M) != Binding.second)
            return true;
      return false;
    };
    for (size_t I = 0, N = C.threads().size(); I != N; ++I) {
      if (!Moves(C.threads()[I].ctx()))
        continue;
      ThreadCtx &Ctx = C.mutThread(C.threads()[I].Id);
      for (Frame &F : Ctx.Stack)
        for (auto &Binding : F.Env)
          Binding.second = Binding.second.renamePtrs(M);
      if (Ctx.Done)
        Ctx.Done = Ctx.Done->renamePtrs(M);
    }
    return true;
  }

  /// Whether \p GS has heap cells the fresh-pointer renaming may rename
  /// (see PtrCanon::hasFreshCells), computed once per global state.
  bool hasFreshCells(GSRef GS) const {
    // Workers that race here compute the same answer from the same
    // immutable state, so whichever store lands last is still right.
    uint8_t Fact = GS->Fact.load();
    if (Fact == 0) {
      Fact = PtrCanon::hasFreshCells(GS->Value, PinnedPtrs) ? 2 : 1;
      GS->Fact.store(Fact);
    }
    return Fact == 2;
  }

  /// Canonicalizes \p C in place: rewrites it to its orbit representative,
  /// a deterministic function of the raw config. Requires \p C frozen;
  /// re-freezes it when it changes.
  ///
  /// The representative is a bounded fixpoint of slot sorting and fresh-
  /// pointer renumbering: renaming can change slot ranks and re-sorting
  /// changes the first-visit order the numbering follows. Four rounds
  /// bound the alternation deterministically — in the rare non-converged
  /// case two orbit members may keep distinct representatives, a lost
  /// reduction, never a lost soundness. Only names of the global state's
  /// heap cells are renameable (values hold no heaps), and slot sorting
  /// renames threads, not cells, so when the entry state has no fresh
  /// cells no round needs the renaming walk.
  void canonicalize(Config &C) {
    if (!SymOn)
      return;
    OrbitLookupsCounter.fetch_add(1, std::memory_order_relaxed);
    const bool Renameable = hasFreshCells(C.gsRef());
    bool Changed = false;
    bool AnyRenamed = false;
    for (int Round = 0; Round != 4; ++Round) {
      bool Sorted = canonicalizeConfig(C);
      bool Renamed = Renameable && renameConfigPtrs(C);
      Changed |= Sorted || Renamed;
      AnyRenamed |= Renamed;
      if (!Sorted && !Renamed)
        break;
    }
    if (AnyRenamed)
      OrbitRenamesCounter.fetch_add(1, std::memory_order_relaxed);
    if (Changed) {
      freeze(C);
      OrbitChangedCounter.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Canonicalizes \p C, inserts it into the striped visited set and,
  /// when new, hands it to \p W's frontier. \p Counts is false when the
  /// generating step is a wakeup *re-execution* (see WakeSnapshot): the
  /// edge was already produced and counted once, so it must not count a
  /// second dedup hit — that keeps DedupHits a function of the
  /// first-execution edge set, which is schedule-independent. Requires
  /// \p C frozen.
  ///
  /// With several workers a replay can run while the node's first
  /// expansion is still going, and a re-execution can then insert a
  /// successor before its first execution does. Every node owes exactly
  /// one counting arrival no dedup hit — its creator in a serial run — so
  /// a node a re-execution creates is marked Overtaken, and the first
  /// counting arrival there clears the mark instead of counting.
  ///
  /// The incoming wake payload is preserved across the insert: on a
  /// revisit it is merged into the visited node — the sleep sets
  /// intersect, the close masks union — and what the merge woke joins the
  /// node's wake delta. The merge only moves *down* a finite lattice, so
  /// chaotic iteration over any worker schedule reaches the same least
  /// fixpoint; a merge that changed the node's wake state re-queues it for
  /// re-expansion (a "wakeup": steps a previous visit suppressed are now
  /// permitted here). Without POR the payload is always empty and a
  /// revisit changes nothing.
  void enqueue(Config C, const Node *Parent, StepCode Step, Worker &W,
               bool Counts = true) {
    canonicalize(C);
    std::vector<SleepEntry> InSleep = std::move(C.Sleep);
    uint32_t InMask = C.EnvCloseMask;
    Stripe &S = Stripes[C.Hash % NumStripes];
    const Node *Target = nullptr;
    bool Replay = false;
    {
      std::lock_guard<std::mutex> Lock(S.M);
      auto [It, IsNew] =
          S.Set.insert(Node{std::move(C), Parent, std::move(Step)});
      const Node &N = *It;
      if (IsNew) {
        N.Sleep = std::move(InSleep);
        N.CloseMask = InMask;
        N.InQueue = true;
        N.Overtaken = !Counts;
        Target = &N;
      } else {
        if (Counts && !std::exchange(N.Overtaken, false))
          ++W.DedupHits;
        uint64_t Woken = 0;
        if (!N.Sleep.empty()) {
          std::vector<SleepEntry> Merged;
          std::set_intersection(N.Sleep.begin(), N.Sleep.end(),
                                InSleep.begin(), InSleep.end(),
                                std::back_inserter(Merged), sleepLess);
          if (Merged.size() != N.Sleep.size()) {
            Woken += N.Sleep.size() - Merged.size();
            std::set_difference(N.Sleep.begin(), N.Sleep.end(),
                                Merged.begin(), Merged.end(),
                                std::back_inserter(N.Woken), sleepLess);
            N.Sleep = std::move(Merged);
          }
        }
        if (uint32_t Added = InMask & ~N.CloseMask) {
          Woken += static_cast<uint64_t>(__builtin_popcount(Added));
          N.CloseMask |= Added;
          N.WokenMask |= Added;
        }
        if (Woken == 0 || N.InQueue)
          return;
        N.InQueue = true;
        Target = &N;
        Replay = true;
        atomicMax(PorWakeupPeakCounter, Woken);
      }
    }
    if (Replay)
      PorWakeupReplaysCounter.fetch_add(1, std::memory_order_relaxed);
    InFlight.fetch_add(1);
    std::lock_guard<std::mutex> Lock(W.M);
    W.Queue.push_back(Target);
  }

  const Node *popLocal(Worker &W) {
    std::lock_guard<std::mutex> Lock(W.M);
    if (W.Queue.empty())
      return nullptr;
    const Node *N = W.Queue.front();
    W.Queue.pop_front();
    return N;
  }

  const Node *trySteal(unsigned Self) {
    for (size_t I = 1, N = Workers.size(); I != N; ++I) {
      Worker &Victim = *Workers[(Self + I) % N];
      std::lock_guard<std::mutex> Lock(Victim.M);
      if (Victim.Queue.empty())
        continue;
      const Node *Stolen = Victim.Queue.back();
      Victim.Queue.pop_back();
      return Stolen;
    }
    return nullptr;
  }

  /// Worker \p Id's loop: expands its own queue, steals from peers when
  /// it runs dry, and returns once no work is left anywhere, or on Abort.
  void workerLoop(unsigned Id) {
    Worker &W = *Workers[Id];
    while (true) {
      const Node *N = nullptr;
      if (!Abort.load(std::memory_order_acquire)) {
        N = popLocal(W);
        if (!N && Workers.size() > 1)
          N = trySteal(Id);
      }
      if (N) {
        expandPopped(N, W);
        continue;
      }
      if (Abort.load(std::memory_order_acquire) ||
          InFlight.load(std::memory_order_acquire) == 0)
        return;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }

  /// Expands one node popped from a queue: snapshots its wake state,
  /// charges the config ticket on first expansion, and runs expand().
  /// On hitting the MaxConfigs bound it raises Abort/ExhaustedFlag
  /// instead — callers observe the flag on their next loop iteration.
  void expandPopped(const Node *N, Worker &W) {
    // Snapshot the node's wake state, take its wake delta and clear its
    // queue flag in one critical section: any merge that lands after the
    // snapshot finds InQueue == false and re-queues the node, so no
    // weakening is ever lost, and its delta goes to that next expansion.
    // Only a node's *first* expansion consumes a config ticket — wakeup
    // replays revisit a config already counted.
    WakeSnapshot Snap;
    {
      Stripe &S = Stripes[N->C.Hash % NumStripes];
      std::lock_guard<std::mutex> Lock(S.M);
      Snap.Sleep = N->Sleep;
      Snap.CloseMask = N->CloseMask;
      Snap.First = !N->ExpandedOnce;
      Snap.Woken = std::exchange(N->Woken, {});
      Snap.WokenMask = std::exchange(N->WokenMask, 0);
      N->ExpandedOnce = true;
      N->InQueue = false;
    }
    if (Snap.First) {
      uint64_t Ticket = Expanded.fetch_add(1, std::memory_order_relaxed);
      if (Ticket >= Opts.MaxConfigs) {
        // The bound was hit with work still pending: exploration is
        // incomplete. Undo the overshoot so ConfigsExplored stays exact.
        Expanded.fetch_sub(1, std::memory_order_relaxed);
        ExhaustedFlag.store(true);
        Abort.store(true, std::memory_order_release);
        return;
      }
    }
    expand(*N, Snap, W);
    InFlight.fetch_sub(1, std::memory_order_release);
  }

  /// Publishes the first safety failure: the winning worker records the
  /// note and reconstructs the schedule from its parent chain; everyone
  /// else just stops.
  void failGlobal(const Node *At, std::string FailingStep,
                  std::string Note) {
    bool Expected = false;
    if (FailWon.compare_exchange_strong(Expected, true)) {
      Res.Safe = false;
      Res.FailureNote = std::move(Note);
      std::vector<std::string> Steps;
      if (!FailingStep.empty())
        Steps.push_back(std::move(FailingStep));
      for (const Node *Cur = At; Cur; Cur = Cur->Parent)
        if (Cur->Step.K != StepCode::Kind::None)
          Steps.push_back(renderStep(*Cur));
      Res.FailureTrace.assign(Steps.rbegin(), Steps.rend());
    }
    Abort.store(true, std::memory_order_release);
  }

  /// The trace text of the step that produced \p N. A thread step's
  /// arguments are re-evaluated from its frame in the parent node, which
  /// the visited set keeps alive for the whole run.
  std::string renderStep(const Node &N) const {
    const StepCode &S = N.Step;
    if (S.K == StepCode::Kind::Env)
      return "env: " + Opts.Ambient->transitions()[S.EnvIdx].name();
    assert(N.Parent && "a thread step without a parent node");
    const Frame &Top = N.Parent->C.thread(S.T).Stack.back();
    assert(Top.Node == S.ActNode && "step code disagrees with its parent");
    std::string Text = threadStepText(S.T, *S.ActNode->action(),
                                      evalArgs(Top), &S.Result);
    return S.Mirror ? Text + " [sym-mirror]" : Text;
  }

  /// Freezes \p C into this exploration's tables.
  void freeze(Config &C) { C.freeze(GSTable, CtxTable); }

  /// The static-footprint universe for partial-order reduction: the
  /// footprints of every atomic action syntactically reachable from the
  /// root program (through binds, branches, pars, hides, and calls) plus
  /// every interference-enabled environment transition. A step whose
  /// dynamic footprint is independent of all of them is independent of
  /// anything any *other* agent could ever do — past or future — which is
  /// the condition for exploring it alone (a "local move", generalizing
  /// the administrative-step argument). The strong universal form needs no
  /// cycle proviso: it rules out the classic ignoring problem, because no
  /// deferred step can ever depend on an ample one.
  struct Universe {
    bool AllKnown = false;
    std::vector<Footprint> Fps;
  };

  /// Collects the universe, and tells whether some reachable action's
  /// static footprint is globally independent. A dynamic footprint is
  /// never wider than the static one, so without such an action no ample
  /// singleton can ever form, and sleep sets alone prune no reachable
  /// state (Godefroid, LNCS 1032): POR would explore the plain engine's
  /// configurations at a higher cost per configuration.
  bool collectUniverse(const ProgRef &Root) {
    Uni.AllKnown = true;
    Uni.Fps.clear();
    std::vector<const Footprint *> ActFps;
    auto Add = [&](const Footprint &F) {
      if (F.known())
        Uni.Fps.push_back(F);
      else
        Uni.AllKnown = false;
    };
    forEachReachableProg(Root.get(), Opts.Defs, [&](const Prog &P) {
      if (P.kind() == Prog::Kind::Act) {
        ActFps.push_back(&P.action()->staticFootprint());
        Add(*ActFps.back());
      } else if (P.kind() == Prog::Kind::Call &&
                 !(Opts.Defs && Opts.Defs->contains(P.callee()))) {
        Uni.AllKnown = false; // Engine would assert on execution.
      }
    });
    if (Opts.EnvInterference && Opts.Ambient)
      for (const Transition &T : Opts.Ambient->transitions())
        if (isEnvStep(T))
          Add(T.staticFootprint());
    return std::any_of(ActFps.begin(), ActFps.end(),
                       [&](const Footprint *F) {
                         return globallyIndependent(*F);
                       });
  }

  /// Is \p F independent of every step any other agent could ever take?
  bool globallyIndependent(const Footprint &F) const {
    if (!Uni.AllKnown || !F.known())
      return false;
    for (const Footprint &U : Uni.Fps)
      if (!fpIndependent(F, U))
        return false;
    return true;
  }

  /// The coherent post-states of env transition \p Tr from \p EnvView, in
  /// successor order: the one env-step enumeration that env rows and
  /// simulate use.
  std::vector<View> coherentPosts(const Transition &Tr,
                                  const View &EnvView) const {
    std::vector<View> Posts = Tr.successors(EnvView);
    std::erase_if(Posts, [&](const View &Post) {
      return !Opts.Ambient->coherent(Post);
    });
    return Posts;
  }

  /// The env row of \p GS, built on the first request (see EnvRows):
  /// every coherent env step out of GS, in declaration order, with its
  /// post-state interned. Every expansion reads rows, so a state is
  /// enumerated once per exploration; a read that finds the row counts as
  /// one of \p W's EnvRowHits.
  const EnvRows::Row &envRow(GSRef GS, Worker &W) {
    if (const EnvRows::Row *R = Rows.find(GS)) {
      ++W.EnvRowHits;
      return *R;
    }
    std::vector<EnvSucc> Succs;
    View EnvView = GS->Value.viewForEnv();
    const std::vector<Transition> &Ts = Opts.Ambient->transitions();
    for (uint32_t I = 0, Sz = Ts.size(); I != Sz; ++I) {
      if (!isEnvStep(Ts[I]))
        continue;
      for (const View &Post : coherentPosts(Ts[I], EnvView)) {
        GlobalState Next = GS->Value;
        Next.applyEnv(EnvView, Post);
        size_t H = std::hash<GlobalState>{}(Next);
        Succs.push_back(EnvSucc{I, GSTable.intern(std::move(Next), H)});
      }
    }
    return Rows.insert(GS, std::move(Succs));
  }

  /// One successor built by a thread's action step, before enqueueing.
  struct BuiltSucc {
    Config Next;
    /// Step.Mirror marks a symmetry join-expansion extra: the swapped pair
    /// order of a symmetric join. Excluded from ActionSteps (it is the
    /// same action step).
    StepCode Step;
    bool LabelsChanged; ///< the admin cascade installed/uninstalled a label.
  };

  /// Whether some outcome in \p Succ changed the label set.
  static bool labelsChanged(const std::vector<BuiltSucc> &Succ) {
    return std::any_of(Succ.begin(), Succ.end(),
                       [](const BuiltSucc &B) { return B.LabelsChanged; });
  }

  /// The slots of \p Next, a successor of thread \p T's step from
  /// \p Parent (both frozen), that a memo outcome records: T's slot and
  /// every slot the parent lacks, appended to \p Out in id order. Returns
  /// false when the outcome is not memoizable: a parent thread other than
  /// T lost its slot or changed its handle, or T is gone or Done (whether
  /// a Done thread's parent joins depends on its sibling, which the key
  /// does not contain).
  static bool memoSlots(const Config &Parent, const Config &Next, ThreadId T,
                        std::vector<ThreadSlot> &Out) {
    const std::vector<ThreadSlot> &Old = Parent.threads();
    const std::vector<ThreadSlot> &New = Next.threads();
    size_t J = 0;
    for (const ThreadSlot &P : Old) {
      for (; J != New.size() && New[J].Id < P.Id; ++J)
        Out.push_back(New[J]);
      if (J == New.size() || New[J].Id != P.Id)
        return false;
      if (P.Id == T) {
        if (New[J].ctx().Done)
          return false;
        Out.push_back(New[J]);
      } else if (New[J].Ctx != P.Ctx) {
        return false;
      }
      ++J;
    }
    Out.insert(Out.end(), New.begin() + J, New.end());
    return true;
  }

  /// Builds every successor of thread \p T's pending action (all
  /// outcomes), without counting or enqueueing. Returns false when a
  /// safety failure was published (the run is aborting). \p Pre and
  /// \p Args, T's view and evaluated arguments, are computed here when
  /// null and the step has to run.
  ///
  /// The step goes through the thread-step memo: a hit rebuilds the
  /// recorded successors from handles; a miss runs the step, freezes its
  /// successors and records them when every outcome is memoizable (see
  /// memoSlots) and none brought symmetry's mirror extras. The recorded
  /// outcomes passed the same deterministic checks on identical inputs,
  /// so a hit yields exactly the successors a re-run would. Under
  /// symmetry that holds too: the orbit groups normalize forms at T's
  /// forks read only T's context and the global state, and resolving a
  /// group rewrites other threads, which memoSlots refuses.
  bool buildThreadSuccessors(const Node &N, ThreadId T, Worker &W,
                             std::vector<BuiltSucc> &Out,
                             const View *Pre = nullptr,
                             const std::vector<Val> *Args = nullptr) {
    const Config &C = N.C;
    const Frame &Top = C.thread(T).Stack.back();
    const Prog *ActNode = Top.Node;
    const StepKey Key{T, C.ctxRef(T), C.gsRef()};
    if (const StepMemo::Row *Hit = Memo.find(Key)) {
      ++W.StepMemoHits;
      for (const MemoOutcome &O : *Hit)
        Out.push_back(BuiltSucc{
            Config::successor(C, O.GS, O.Slots, O.NumSlots),
            StepCode::thread(T, ActNode, O.Result), O.LabelsChanged});
      return true;
    }

    View OwnPre;
    std::vector<Val> OwnArgs;
    if (!Pre) {
      OwnPre = C.gs().viewFor(T);
      Pre = &OwnPre;
    }
    if (!Args) {
      OwnArgs = evalArgs(Top);
      Args = &OwnArgs;
    }
    const AtomicAction &A = *ActNode->action();
    std::optional<std::vector<ActOutcome>> Outcomes = A.step(*Pre, *Args);
    if (!Outcomes) {
      failGlobal(&N, threadStepText(T, A, *Args, nullptr) + "  <-- UNSAFE",
                 formatString("action %s is unsafe in the reached state "
                              "(thread %llu):\n%s",
                              A.name().c_str(),
                              static_cast<unsigned long long>(T),
                              Pre->toString().c_str()));
      return false;
    }
    bool Memoizable = true;
    std::vector<MemoOutcome> Record;
    std::vector<ThreadSlot> RecordSlots;
    for (const ActOutcome &O : *Outcomes) {
      Config Next = C;
      std::string Err;
      std::vector<Config> Extras;
      switch (applyOutcome(Next, T, *Pre, O, Err, &Extras)) {
      case StepFault::None:
        break;
      case StepFault::WritesOther:
        failGlobal(&N,
                   threadStepText(T, A, *Args, &O.Result) +
                       "  <-- WRITES OUTSIDE SELF AND JOINT",
                   writesOtherNote(A));
        return false;
      case StepFault::Coherence:
        failGlobal(&N,
                   threadStepText(T, A, *Args, &O.Result) +
                       "  <-- BREAKS COHERENCE",
                   formatString("action %s broke coherence of %s",
                                A.name().c_str(),
                                Opts.Ambient->name().c_str()));
        return false;
      case StepFault::Unwind:
        failGlobal(&N,
                   threadStepText(T, A, *Args, &O.Result) +
                       "  <-- FAILS DURING UNWINDING",
                   std::move(Err));
        return false;
      }
      StepCode Step = StepCode::thread(T, ActNode, O.Result);
      bool LabelsChanged = Next.gs().labels() != C.gs().labels();
      Memoizable = Memoizable && Extras.empty();
      if (Memoizable) {
        freeze(Next);
        size_t Before = RecordSlots.size();
        Memoizable = memoSlots(C, Next, T, RecordSlots);
        Record.push_back(MemoOutcome{
            Next.gsRef(), nullptr,
            static_cast<uint32_t>(RecordSlots.size() - Before),
            LabelsChanged, O.Result});
      }
      Out.push_back(BuiltSucc{std::move(Next), Step, LabelsChanged});
      Step.Mirror = true;
      for (Config &X : Extras) {
        bool XLabelsChanged = X.gs().labels() != C.gs().labels();
        Out.push_back(BuiltSucc{std::move(X), Step, XLabelsChanged});
      }
    }
    if (Memoizable)
      Memo.insert(Key, std::move(Record), RecordSlots);
    return true;
  }

  /// Records \p C's terminal when its root thread is done, and tells
  /// whether it was.
  bool recordTerminal(const Config &C, Worker &W) {
    const std::optional<Val> &Done = C.thread(rootThread()).Done;
    if (Done)
      W.Terminals.insert(Terminal{*Done, C.gs().viewFor(rootThread())});
    return Done.has_value();
  }

  /// The close mask a step with footprint \p Fp grants its terminal
  /// successors (see Config::EnvCloseMask): one bit per ambient transition
  /// the step is independent of, judged against the transition's static,
  /// all-instance footprint.
  uint32_t closeMask(const Footprint &Fp) const {
    if (!Fp.known() || !Opts.EnvInterference || !Opts.Ambient)
      return 0;
    uint32_t Mask = 0;
    const std::vector<Transition> &Ts = Opts.Ambient->transitions();
    size_t Sz = Ts.size() < 32 ? Ts.size() : 32;
    for (size_t I = 0; I != Sz; ++I) {
      if (!isEnvStep(Ts[I]))
        continue;
      if (fpIndependent(Fp, Ts[I].staticFootprint()))
        Mask |= uint32_t(1) << I;
    }
    return Mask;
  }

  /// Counts and enqueues \p Succ, the successors of one thread step from
  /// \p N. Each successor carries the sleep set \p Sleep and, when it is
  /// terminal, the close mask of \p CloseFp (none when null). The step
  /// counts ActionSteps for every outcome except the mirror extras, and
  /// only on its first execution at N (\p Fresh, see WakeSnapshot), which
  /// also decides whether a revisit counts a dedup hit. A terminal mirror
  /// extra with no trailing-env closure left to run has no behavior left:
  /// its terminal is recorded directly, so the k! - 1 regenerated value
  /// assignments of an orbit group never inflate the visited set or the
  /// config count.
  void enqueueStep(const Node &N, std::vector<BuiltSucc> &Succ,
                   const std::vector<SleepEntry> &Sleep,
                   const Footprint *CloseFp, bool Fresh, Worker &W) {
    std::optional<uint32_t> Close;
    for (BuiltSucc &B : Succ) {
      if (Fresh && !B.Step.Mirror)
        ++W.ActionSteps;
      bool Done = B.Next.thread(rootThread()).Done.has_value();
      if (Done && CloseFp && !Close)
        Close = closeMask(*CloseFp);
      B.Next.Sleep = Sleep;
      B.Next.EnvCloseMask = Done && CloseFp ? *Close : 0;
      if (B.Step.Mirror && Done && B.Next.EnvCloseMask == 0) {
        recordTerminal(B.Next, W);
        continue;
      }
      freeze(B.Next);
      enqueue(std::move(B.Next), &N, B.Step, W, Fresh);
    }
  }

  /// Successor generation, for every mode (DESIGN.md §9). Candidates come
  /// in canonical order — runnable threads ascending by id, then env
  /// transitions in declaration order — and each one that is not asleep
  /// runs. Without POR that is all: no candidate sleeps, no terminal
  /// carries a close mask, and no node is expanded twice. POR adds the
  /// ample singleton, and the sleep sets and close masks it hands to
  /// successors.
  ///
  /// The ample choice is a function of the configuration alone (never of
  /// the sleep set), and a candidate counts its work only on its first
  /// execution here (see WakeSnapshot): together with the monotone wake
  /// merge in enqueue this makes the explored node set and the work
  /// counters converge to the same fixpoint under any worker schedule. The
  /// effort counters charged here (sleep hits, full expansions) count
  /// every expansion, replays included, so they may vary with the
  /// schedule.
  void expand(const Node &N, const WakeSnapshot &Snap, Worker &W) {
    const Config &C = N.C;
    // A terminal keeps stepping only the env transitions its close mask
    // licenses (only POR grants one): the reduction may have explored the
    // last action before a postponed env step it commutes with, and once
    // the program terminates the commuted traces "env before the last
    // action" — and their distinct final views — would otherwise be lost.
    // No runnable thread remains, so only licensed env candidates arise
    // below; dependent or unlicensed transitions stop here like the plain
    // engine does.
    const bool AtTerminal = recordTerminal(C, W);
    if (AtTerminal && Snap.CloseMask == 0)
      return;

    // A candidate: its step's identity and static footprint and, under
    // POR, a thread step's inputs and dynamic footprint.
    struct ThreadInputs {
      std::vector<Val> Args;
      View Pre;
      Footprint Fp;
    };
    struct Candidate {
      SleepEntry Step;
      std::optional<ThreadInputs> In;
    };

    // Runs candidate \p K unless it is asleep; an env candidate's steps
    // are [First, Last) of the state's row. Returns false when a safety
    // failure was published. The run counts its work only if it is K's
    // first here (see WakeSnapshot).
    //
    // Under POR each executed step puts every earlier independent sibling
    // and every surviving inherited entry to sleep in its successors; a
    // sleeping candidate was explored where it entered the sleep set and,
    // by independence of everything since, is unchanged here. Sleep entries
    // record the *static* (all-instance) footprint: a dynamically narrowed
    // footprint describes only the instances enabled where the step
    // executed, and a later step independent of it may enable new
    // instances outside it (e.g. a combiner helping whichever slot holds a
    // request). A thread step's dynamic footprint serves the instantaneous
    // sides — the wake filter and the close mask — where only the step as
    // taken matters (Footprint.h). An env step is judged by its static
    // footprint, as closeMask judges it: were a thread entry kept asleep
    // across the step on a narrower dynamic footprint, the close mask would
    // never license the commuted order "last action, then env step" at a
    // terminal, and that terminal would be lost. A step whose cascade
    // changes the label set has effects beyond its footprint: it is
    // dependent on everything.
    std::optional<std::vector<BuiltSucc>> AmpleSucc;
    std::vector<SleepEntry> Taken;
    auto Run = [&](const Candidate &K, const EnvSucc *First,
                   const EnvSucc *Last) {
      const SleepEntry &E = K.Step;
      if (holdsStep(Snap.Sleep, E)) {
        PorSleepHitsCounter.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      const bool Fresh = Snap.First || holdsStep(Snap.Woken, E) ||
                         (E.IsEnv && E.EnvIdx < 32 &&
                          ((Snap.WokenMask >> E.EnvIdx) & uint32_t(1)));
      const bool IsEnv = E.IsEnv;
      const Footprint *Fp = !PorOn ? nullptr : IsEnv ? E.Fp : &K.In->Fp;
      std::vector<BuiltSucc> Succ;
      if (!IsEnv) {
        if (AmpleSucc)
          Succ = std::move(*AmpleSucc);
        else if (!buildThreadSuccessors(N, E.T, W, Succ,
                                        K.In ? &K.In->Pre : nullptr,
                                        K.In ? &K.In->Args : nullptr))
          return false;
        if (Fp && labelsChanged(Succ))
          Fp = nullptr;
      }
      std::vector<SleepEntry> NextSleep;
      if (Fp && Fp->known()) {
        // Two env transitions are steps of the *same* agent (the
        // environment): their self/self and owned-region touches alias.
        for (const auto *From : {&Snap.Sleep, &std::as_const(Taken)})
          for (const SleepEntry &X : *From)
            if (fpIndependent(*X.Fp, *Fp, X.IsEnv && IsEnv))
              NextSleep.push_back(X);
        std::sort(NextSleep.begin(), NextSleep.end(), sleepLess);
      }
      if (!IsEnv) {
        // License trailing-env closure on terminal successors: postponed
        // independent env transitions still commute before this step.
        enqueueStep(N, Succ, NextSleep, Fp, Fresh, W);
      } else {
        for (const EnvSucc *S = First; S != Last; ++S) {
          if (Fresh)
            ++W.EnvSteps;
          Config Next = Config::successor(C, S->Post, nullptr, 0);
          Next.Sleep = NextSleep;
          // Trailing-env steps at a terminal stay terminal; the merged
          // close mask keeps licensing further commuting transitions.
          Next.EnvCloseMask = AtTerminal ? Snap.CloseMask : 0;
          enqueue(std::move(Next), &N, StepCode::env(E.EnvIdx), W, Fresh);
        }
      }
      if (Fp && E.Fp->known())
        Taken.push_back(E);
      return true;
    };

    // Thread candidates. Without POR each runs as soon as it is listed;
    // under POR they are listed first, with their step inputs and dynamic
    // footprints, for the ample check.
    std::vector<Candidate> Cands;
    for (const ThreadSlot &S : C.threads()) {
      const ThreadCtx &Ctx = S.ctx();
      if (Ctx.Done || Ctx.Waiting)
        continue;
      assert(!Ctx.Stack.empty() && Ctx.Stack.back().K == Frame::Kind::Run &&
             Ctx.Stack.back().Node->kind() == Prog::Kind::Act &&
             "normalized thread must sit at an atomic action");
      const Frame &Top = Ctx.Stack.back();
      const AtomicAction &A = *Top.Node->action();
      Candidate K{SleepEntry{false, S.Id, 0, &A.staticFootprint()}, {}};
      if (!PorOn) {
        if (!Run(K, nullptr, nullptr))
          return;
        continue;
      }
      ThreadInputs &In = K.In.emplace();
      In.Args = evalArgs(Top);
      In.Pre = C.gs().viewFor(S.Id);
      In.Fp = A.footprint(In.Pre, In.Args);
      Cands.push_back(std::move(K));
    }

    // Ample singleton: the first thread candidate whose step is a local
    // move (independent of the whole universe) explores alone; the sleep
    // set survives filtered by independence with the chosen step.
    //
    // The choice deliberately ignores the sleep set: eligibility must be
    // a function of the configuration alone so wakeup replays (which only
    // shrink the sleep set) re-derive the same decision and the explored
    // set stays schedule-independent. When the chosen candidate *is*
    // sleeping, nothing is expanded at all — the persistent singleton
    // minus the sleep set is empty, i.e. every continuation from here was
    // already explored where the step went to sleep (Godefroid's
    // persistent/sleep combination).
    //
    // If any outcome's admin cascade changes the label set (hide
    // install/uninstall — a state effect the action's footprint does not
    // describe), fall back to full expansion.
    if (PorOn) {
      for (Candidate &K : Cands) {
        if (!globallyIndependent(K.In->Fp))
          continue;
        std::vector<BuiltSucc> Succ;
        if (!buildThreadSuccessors(N, K.Step.T, W, Succ, &K.In->Pre,
                                   &K.In->Args))
          return;
        if (labelsChanged(Succ))
          break;
        Candidate Ample = std::move(K);
        Cands.clear();
        Cands.push_back(std::move(Ample));
        AmpleSucc = std::move(Succ);
        break;
      }
      if (!AmpleSucc)
        PorFullExpansionsCounter.fetch_add(1, std::memory_order_relaxed);
      for (const Candidate &K : Cands)
        if (!Run(K, nullptr, nullptr))
          return;
    }

    // Env candidates run after the threads, and never beside an ample
    // singleton, so an ample expansion never asks for the state's row.
    // They read its steps grouped by transition (the row lists them in
    // declaration order).
    if (AmpleSucc || !Opts.EnvInterference || !Opts.Ambient)
      return;
    const EnvRows::Row &Row = envRow(C.gsRef(), W);
    const EnvSucc *Next = Row.begin();
    const std::vector<Transition> &Ts = Opts.Ambient->transitions();
    for (size_t I = 0, Sz = Ts.size(); I != Sz; ++I) {
      if (!isEnvStep(Ts[I]))
        continue;
      const EnvSucc *First = Next;
      while (Next != Row.end() && Next->Idx == I)
        ++Next;
      // At a terminal, only transitions licensed by the last action's
      // (merged) close mask may keep firing (see Config::EnvCloseMask).
      if (AtTerminal && (I >= 32 || !((Snap.CloseMask >> I) & uint32_t(1))))
        continue;
      Run({SleepEntry{true, 0, I, &Ts[I].staticFootprint()}, {}}, First,
          Next);
    }
  }

  const EngineOptions &Opts;
  RunResult &Res;
  bool PorOn = false;
  bool SymOn = false;
  Universe Uni;
  /// Pointers the canonical fresh-pointer renaming must never touch:
  /// initial state, initial environment, and program literals (see
  /// collectPinnedPtrs). Fixed before exploration starts.
  std::set<Ptr> PinnedPtrs;

  /// The hash-cons tables every frozen configuration of this exploration
  /// points into (see ConsTable); they outlive the visited set below.
  ConsTable<GlobalState> GSTable;
  ConsTable<ThreadCtx> CtxTable;
  /// Recorded thread steps over handles into the tables above (see
  /// StepMemo).
  StepMemo Memo;
  /// Recorded env steps per global state (see envRow).
  EnvRows Rows;

  unsigned NumStripes = 1;
  std::vector<Stripe> Stripes;
  std::vector<std::unique_ptr<Worker>> Workers;
  std::atomic<uint64_t> Expanded{0};
  std::atomic<int64_t> InFlight{0};
  std::atomic<bool> Abort{false};
  std::atomic<bool> ExhaustedFlag{false};
  std::atomic<bool> FailWon{false};

};

} // namespace

std::string RunResult::renderTrace() const {
  std::string Out;
  for (size_t I = 0, N = FailureTrace.size(); I != N; ++I)
    Out += formatString("  %2zu. %s\n", I + 1, FailureTrace[I].c_str());
  return Out;
}

namespace {

/// Terminal equality via the strict weak order.
bool sameTerminal(const Terminal &A, const Terminal &B) {
  return !(A < B) && !(B < A);
}

/// Pointer-abstracted copy of a terminal list: fresh allocations are
/// renumbered in first-visit order (pinned names stay fixed), then the
/// list is sorted and deduplicated. Two runs that differ only in the
/// names of dynamically allocated cells — e.g. a full exploration versus
/// a canonicalized one whose renamePtrs pass renumbered the heap —
/// compare equal on the abstraction.
std::vector<Terminal> abstractTerminals(const std::vector<Terminal> &In,
                                        const std::set<Ptr> &Pinned) {
  std::vector<Terminal> Out;
  Out.reserve(In.size());
  for (const Terminal &T : In) {
    PtrCanon Canon(Pinned);
    Canon.visit(T.Result);
    Canon.visit(T.FinalView);
    Canon.beginRename();
    Canon.visit(T.Result);
    Canon.visit(T.FinalView);
    if (Canon.identity()) {
      Out.push_back(T);
      continue;
    }
    Terminal A{T.Result.renamePtrs(Canon.mapping()), T.FinalView};
    A.FinalView.renamePtrs(Canon.mapping());
    Out.push_back(std::move(A));
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end(), sameTerminal), Out.end());
  return Out;
}

/// First element of A absent from B (both sorted); null if none.
const Terminal *firstMissing(const std::vector<Terminal> &A,
                             const std::vector<Terminal> &B) {
  for (const Terminal &T : A)
    if (!std::binary_search(B.begin(), B.end(), T))
      return &T;
  return nullptr;
}

/// Terminal sets are sorted; equality via the strict weak order.
bool sameTerminals(const std::vector<Terminal> &A,
                   const std::vector<Terminal> &B) {
  return std::equal(A.begin(), A.end(), B.begin(), B.end(), sameTerminal);
}

/// \p Opts with its reduction modes replaced by the resolved \p M.
EngineOptions withModes(const EngineOptions &Opts, const ReductionModes &M) {
  EngineOptions RunOpts = Opts;
  RunOpts.Por = M.Por;
  RunOpts.Symmetry = M.Sym;
  return RunOpts;
}

/// One exploration under resolved modes.
RunResult exploreResolved(const ProgRef &Root, const GlobalState &Initial,
                          const EngineOptions &Opts, const VarEnv &InitialEnv,
                          const ReductionModes &M) {
  EngineOptions RunOpts = withModes(Opts, M);
  RunResult Res;
  Explorer E(RunOpts, Res);
  E.run(Root, Initial, InitialEnv);
  TotalConfigsCounter.fetch_add(Res.ConfigsExplored,
                                std::memory_order_relaxed);
  return Res;
}

/// Renders one terminal for an oracle failure note.
std::string describeTerminal(const Terminal &T) {
  return formatString("result=%s view=%s", T.Result.toString().c_str(),
                      T.FinalView.toString().c_str());
}

} // namespace

RunResult fcsl::explore(const ProgRef &Root, const GlobalState &Initial,
                        const EngineOptions &Opts, const VarEnv &InitialEnv) {
  assert(Root && "explore needs a program");
  ReductionModes M = resolveModes(Opts.Por, Opts.Symmetry);
  if (!M.Oracle)
    return exploreResolved(Root, Initial, Opts, InitialEnv, M);

  // The soundness oracle: the plain engine is ground truth, and the
  // reduced run must agree on the verdict, on exhaustion and — when both
  // complete — on the terminal set. Terminals compare raw unless the
  // reduced run canonicalized: renaming fresh allocations makes raw
  // equality too strong, so both sides are then compared modulo the
  // terminal pointer abstraction (DESIGN.md §11). The plain run is
  // returned; a mismatch forces Safe = false so sessions fail loudly.
  RunResult Plain =
      exploreResolved(Root, Initial, Opts, InitialEnv, ReductionModes{});
  RunResult Reduced = exploreResolved(Root, Initial, Opts, InitialEnv, M);
  std::vector<Terminal> AbsPlain, AbsReduced;
  const std::vector<Terminal> *PlainTerms = &Plain.Terminals;
  const std::vector<Terminal> *ReducedTerms = &Reduced.Terminals;
  if (M.Sym == SymMode::On) {
    std::set<Ptr> Pinned =
        collectPinnedPtrs(Root, Initial, InitialEnv, Opts.Defs);
    AbsPlain = abstractTerminals(Plain.Terminals, Pinned);
    AbsReduced = abstractTerminals(Reduced.Terminals, Pinned);
    PlainTerms = &AbsPlain;
    ReducedTerms = &AbsReduced;
  }
  bool Mismatch = Plain.Safe != Reduced.Safe ||
                  Plain.Exhausted != Reduced.Exhausted ||
                  (Plain.complete() && !sameTerminals(*PlainTerms,
                                                      *ReducedTerms));
  OracleRunsCounter.fetch_add(1, std::memory_order_relaxed);
  OraclePlainCounter.fetch_add(Plain.ConfigsExplored,
                               std::memory_order_relaxed);
  OracleReducedCounter.fetch_add(Reduced.ConfigsExplored,
                                 std::memory_order_relaxed);
  if (Mismatch) {
    OracleMismatchCounter.fetch_add(1, std::memory_order_relaxed);
    std::string Note = formatString(
        "reduction soundness oracle failed: plain exploration (por=off "
        "symmetry=off; safe=%d exhausted=%d, %zu terminals, %llu configs) "
        "disagrees with reduced exploration (por=%s symmetry=%s; safe=%d "
        "exhausted=%d, %zu terminals, %llu configs)",
        int(Plain.Safe), int(Plain.Exhausted), PlainTerms->size(),
        static_cast<unsigned long long>(Plain.ConfigsExplored),
        porModeName(M.Por), symModeName(M.Sym), int(Reduced.Safe),
        int(Reduced.Exhausted), ReducedTerms->size(),
        static_cast<unsigned long long>(Reduced.ConfigsExplored));
    // The first diverging terminal in each direction pinpoints the lost
    // (or invented) behaviour, not just the counts.
    if (const Terminal *T = firstMissing(*PlainTerms, *ReducedTerms))
      Note += "; first terminal only in plain exploration: " +
              describeTerminal(*T);
    if (const Terminal *T = firstMissing(*ReducedTerms, *PlainTerms))
      Note += "; first terminal only in reduced exploration: " +
              describeTerminal(*T);
    Plain.Safe = false;
    Plain.FailureNote = std::move(Note);
  }
  Plain.Reduction = Reduced.Reduction;
  Plain.Reduction.Oracle = {true, Mismatch, Plain.ConfigsExplored,
                            Reduced.ConfigsExplored};
  return Plain;
}

SimResult fcsl::simulate(const ProgRef &Root, const GlobalState &Initial,
                         const EngineOptions &Opts, uint64_t Seed,
                         uint64_t MaxSteps, const VarEnv &InitialEnv) {
  assert(Root && "simulate needs a program");
  RunResult Res;
  Explorer E(Opts, Res);
  return E.simulateRun(Root, Initial, InitialEnv, Seed, MaxSteps);
}
