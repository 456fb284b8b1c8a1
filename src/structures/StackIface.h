//===- structures/StackIface.h - The abstract stack interface ---*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 6 remarks: "In principle, we could implement an
/// abstract interface for stacks, too, to unify the Treiber stack and the
/// FC-stack, although we didn't carry out this exercise." This module
/// carries out that exercise: a StackProtocol packages an implementation-
/// agnostic `s_push(tok, v)` / `s_pop(tok)` program pair plus the
/// history projection needed to state the unified history-based spec.
/// Both the Treiber stack and the FC-stack instantiate it, and the
/// unified client theorem ("a parallel push pair records both entries in
/// the joined self history") is verified once against the interface and
/// holds for both implementations — the stack analogue of Table 2's
/// interchangeable-locks `3L`.
///
/// The implementation-specific resource a thread needs to run an
/// operation (a privately-owned node cell for Treiber, an owned
/// publication slot for FC) is abstracted as an opaque per-thread
/// *token* supplied by the protocol.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_STRUCTURES_STACKIFACE_H
#define FCSL_STRUCTURES_STACKIFACE_H

#include "structures/CaseCommon.h"
#include "structures/LockIface.h"

namespace fcsl {

/// A stack implementation, packaged for interface-level clients.
struct StackProtocol {
  std::string Name; ///< "Treiber" or "FC".
  ConcurroidRef C;
  /// Shared definition table containing:
  ///   s_push(tok, v) — pushes v using the caller's token; returns unit.
  ///   s_pop(tok)     — pops; returns pair(bool found, value).
  std::shared_ptr<DefTable> Defs;
  /// Initial state for a two-client run: the root thread holds both
  /// tokens; no environment interference budget.
  GlobalState Initial;
  /// The two per-thread tokens (left client, right client).
  Val TokenLeft;
  Val TokenRight;
  /// Splits the root thread's contributions so the left/right `par`
  /// children own their respective tokens.
  SplitFn Split;
  /// Projects the observing thread's operation history out of a view.
  std::function<History(const View &)> SelfHist;
};

/// The Treiber instantiation of the interface.
StackProtocol treiberStackProtocol();

/// The flat-combiner instantiation of the interface.
StackProtocol fcStackProtocol();

/// The unified client theorem, stated once against StackProtocol:
/// par(s_push(tokL, A), s_push(tokR, B)) records entries for both A and
/// B in the joined self history, explored under \p Modes' POR and
/// symmetry modes. Returns the verification outcome.
ObligationResult
verifyUnifiedPushPair(const StackProtocol &P, int64_t A, int64_t B,
                      const ResolvedModes &Modes = ResolvedModes::defaults());

/// The unified push/pop client: par(s_push(tokL, V), s_pop(tokR)); the
/// pop returns V or reports empty, and the push entry is always recorded.
ObligationResult
verifyUnifiedPushPop(const StackProtocol &P, int64_t V,
                     const ResolvedModes &Modes = ResolvedModes::defaults());

/// The "Abstract stack" extension row (not in the paper's Table 1; see
/// DESIGN.md section on extensions).
VerificationSession makeStackIfaceSession();

void registerStackIfaceLibrary();

} // namespace fcsl

#endif // FCSL_STRUCTURES_STACKIFACE_H
