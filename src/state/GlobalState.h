//===- state/GlobalState.h - Whole-system instrumented state ----*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The model checker's global configuration state. Where a View is one
/// thread's subjective [self|joint|other] snapshot, the GlobalState keeps,
/// per label: the shared joint heap, every live thread's self contribution,
/// and the abstract environment's contribution. A thread's View is derived
/// by taking its own contribution as self and joining everything else into
/// other — which is precisely the paper's subjective semantics, and makes
/// the proofs (here: explorations) "insensitive to the number of threads
/// forked" (Section 2.2.1): forking splits a contribution, joining reunites
/// it, and the global state never changes shape.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_STATE_GLOBALSTATE_H
#define FCSL_STATE_GLOBALSTATE_H

#include "state/View.h"

#include <set>

namespace fcsl {

/// Thread identifiers form a binary tree: the root program is thread 1, and
/// the children of thread t are 2t and 2t+1 (the `par` combinator). Ids are
/// deterministic across explorations so configurations hash stably.
using ThreadId = uint64_t;

inline ThreadId rootThread() { return 1; }
inline ThreadId leftChild(ThreadId T) { return 2 * T; }
inline ThreadId rightChild(ThreadId T) { return 2 * T + 1; }

/// The whole-system state over which the interleaving engine runs.
class GlobalState {
public:
  GlobalState() = default;

  /// Installs a concurroid instance at \p L. \p EnvClosed marks labels that
  /// external interference may not touch (the effect of `hide`).
  void addLabel(Label L, PCMTypeRef SelfType, Heap Joint, PCMVal EnvSelf,
                bool EnvClosed);

  /// Uninstalls \p L, returning its joint heap (used by `hide` on exit).
  Heap removeLabel(Label L);

  bool hasLabel(Label L) const { return SelfTypes.count(L) != 0; }
  std::vector<Label> labels() const;
  bool isEnvClosed(Label L) const { return EnvClosed.count(L) != 0; }

  const PCMTypeRef &selfType(Label L) const;
  const Heap &joint(Label L) const;
  void setJoint(Label L, Heap H);

  /// Thread \p T's contribution at \p L (unit if none recorded). Unit
  /// contributions are canonically not stored, so states compare equal
  /// independently of which threads ever touched a label.
  PCMVal selfOf(Label L, ThreadId T) const;
  void setSelf(Label L, ThreadId T, PCMVal V);

  const PCMVal &envSelf(Label L) const;
  void setEnvSelf(Label L, PCMVal V);

  /// All stored (non-unit) thread contributions at \p L, keyed by thread.
  /// Used by the codec; unit contributions are canonically absent.
  const std::map<ThreadId, PCMVal> &selves(Label L) const;

  /// Joined contribution of every thread except \p T, plus the environment;
  /// std::nullopt if contributions clash (the state is then globally
  /// incoherent and the engine reports a soundness violation).
  std::optional<PCMVal> otherFor(Label L, ThreadId T) const;

  /// Joined contribution of every thread (no environment).
  std::optional<PCMVal> allThreadsJoin(Label L) const;

  /// Builds thread \p T's subjective view of all labels.
  View viewFor(ThreadId T) const;

  /// Builds the environment's subjective view (self = env contribution,
  /// other = all threads). Environment transitions step this view.
  View viewForEnv() const;

  /// Writes back thread \p T's post-view \p Post of a step from its view
  /// \p Pre: joints and T's selves are updated. A thread step may write
  /// nothing else, so when \p Post has another label set or another
  /// other(L) at some label, nothing is written and false is returned.
  /// When \p Pre was T's view, a write leaves T's view equal to \p Post.
  bool applyThread(ThreadId T, const View &Pre, const View &Post);

  /// Writes back an environment step.
  void applyEnv(const View &Pre, const View &Post);

  /// Forks \p Parent into \p Left and \p Right, distributing the parent's
  /// contribution at every label according to \p Splits (labels missing
  /// from \p Splits give the whole contribution to the left child).
  void fork(ThreadId Parent, ThreadId Left, ThreadId Right,
            const std::map<Label, std::pair<PCMVal, PCMVal>> &Splits);

  /// Joins children back into \p Parent: the parent's contribution becomes
  /// the PCM join of the children's. Asserts definedness.
  void joinChildren(ThreadId Parent, ThreadId Left, ThreadId Right);

  /// Rewrites the thread keys of every per-label contribution map through
  /// \p M (threads absent from the map keep their id). Asserts the renaming
  /// is injective per label. Used by the symmetry layer when two subtree
  /// programs are swapped into canonical order (DESIGN.md §11).
  void renameThreads(const std::map<ThreadId, ThreadId> &M);

  /// Rewrites every pointer in joints, thread contributions and environment
  /// contributions through \p M. Used by the symmetry layer's canonical
  /// renaming of fresh heap names (DESIGN.md §11).
  void renamePtrs(const std::map<Ptr, Ptr> &M);

  /// Inserts every pointer in joints, thread contributions and environment
  /// contributions into \p Out (pinned-pointer scan, DESIGN.md §11).
  void collectPtrs(std::set<Ptr> &Out) const;

  int compare(const GlobalState &Other) const;
  friend bool operator==(const GlobalState &A, const GlobalState &B) {
    return A.compare(B) == 0;
  }
  friend bool operator<(const GlobalState &A, const GlobalState &B) {
    return A.compare(B) < 0;
  }

  void hashInto(std::size_t &Seed) const;
  std::string toString() const;

  /// Approximate handle-level footprint in bytes: the per-state container
  /// overhead, NOT the interned nodes (those are shared arena-wide). Used
  /// for visited-set memory accounting.
  size_t approxBytes() const;

private:
  std::map<Label, PCMTypeRef> SelfTypes;
  std::map<Label, Heap> Joints;
  std::map<Label, std::map<ThreadId, PCMVal>> Selves;
  std::map<Label, PCMVal> EnvSelves;
  std::set<Label> EnvClosed;
};

} // namespace fcsl

namespace std {
template <> struct hash<fcsl::GlobalState> {
  size_t operator()(const fcsl::GlobalState &S) const {
    size_t Seed = 0;
    S.hashInto(Seed);
    return Seed;
  }
};
} // namespace std

#endif // FCSL_STATE_GLOBALSTATE_H
