//===- state/PtrCanon.h - Canonical fresh-pointer numbering -----*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symmetry layer's terminal abstraction (DESIGN.md §11): a
/// deterministic first-visit numbering of the *fresh* pointers of a
/// configuration. Two configurations that differ only in the names their
/// allocations drew from the heap get identical canonical forms, so
/// allocation order stops splitting orbits and the canonical fingerprint
/// can drive dedup and cache keys consistently.
///
/// "Fresh" means: a pointer that names a heap cell (it appears in the
/// domain of some heap — a joint heap or a heap-valued PCM component) and
/// is not pinned. The pinned set is everything whose identity is
/// observable by construction — pointers present in the initial global
/// state, in initial environments, and pointer literals in the program
/// text. Pointers that occur only as *values* and never name a cell are
/// sentinel tokens (e.g. the ticket lock's ticket tokens): their numeric
/// identity is part of a concurroid's encoding, so they are never renamed
/// either.
///
/// Because domain membership is only known once every heap has been
/// walked, canonicalization is two-phase: visit the whole structure once
/// (collect), call beginRename(), then repeat the *same* visit sequence.
/// The second pass assigns canonical ids to fresh pointers in first-visit
/// order, choosing targets that skip every pinned and sentinel name so
/// the combined renaming stays injective.
///
/// The mapping records an entry for *every* fresh pointer visited,
/// including identity entries — applying it is then a total injective
/// rewrite over the visited structure, and `identity()` reports whether
/// applying it would change anything at all.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_STATE_PTRCANON_H
#define FCSL_STATE_PTRCANON_H

#include "state/GlobalState.h"

#include <map>
#include <set>

namespace fcsl {

/// Accumulates a canonical fresh-pointer renaming over one configuration.
/// Visit every pointer-bearing component in a fixed deterministic order,
/// call beginRename(), visit the same components again in the same order,
/// then apply `mapping()` through the `renamePtrs` family. The pinned set
/// must outlive the PtrCanon.
class PtrCanon {
public:
  explicit PtrCanon(const std::set<Ptr> &Pinned) : Pinned(Pinned) {}

  void visit(const Val &V);
  void visit(const Heap &H);
  void visit(const PCMVal &V);
  void visit(const History &H);
  void visit(const View &V);
  void visit(const GlobalState &GS);

  /// Ends the collect pass: fixes the renameable domain (heap-domain
  /// pointers minus pinned ones) and the set of names the canonical ids
  /// must avoid. Subsequent visits assign the mapping.
  void beginRename();

  /// The accumulated renaming: one entry per visited fresh pointer
  /// (identity entries included, so application is total and injective).
  const std::map<Ptr, Ptr> &mapping() const { return Mapping; }

  /// True when applying the mapping would change nothing.
  bool identity() const { return Identity; }

  /// Whether some heap of \p GS (a joint heap or a heap-valued PCM
  /// component) has a cell whose name is not in \p Pinned. Values carry no
  /// heaps, so these cells are the whole renameable domain of any
  /// configuration over \p GS: when there are none, the canonical renaming
  /// of that configuration is the identity.
  static bool hasFreshCells(const GlobalState &GS, const std::set<Ptr> &Pinned);

private:
  /// Collect pass: records \p P as seen. Rename pass: assigns the next
  /// canonical id to \p P on first visit if it is renameable.
  void touch(Ptr P);

  const std::set<Ptr> &Pinned;
  /// Every non-null pointer seen during the collect pass.
  std::set<Ptr> Seen;
  /// Pointers that name a heap cell somewhere in the visited structure.
  std::set<Ptr> Domain;
  /// Names canonical ids must not collide with: pinned pointers plus every
  /// seen non-domain pointer (sentinel tokens, dangling names). Computed
  /// by beginRename().
  std::set<Ptr> Avoid;
  std::map<Ptr, Ptr> Mapping;
  uint32_t NextId = 1;
  bool Renaming = false;
  bool Identity = true;
  /// Heap currently being traversed structure-first (see visit(Heap));
  /// touch() chases pointers into its cells so numbering follows
  /// reachability. Null outside a heap visit.
  const Heap *ChaseHeap = nullptr;
  /// Cells of ChaseHeap already chased during the current heap visit.
  std::set<Ptr> *ChaseVisited = nullptr;
};

} // namespace fcsl

#endif // FCSL_STATE_PTRCANON_H
