//===- concurroid/Transition.h - Concurroid transitions ---------*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transitions of a concurroid: binary relations on subjective Views that
/// describe the state changes threads are allowed to perform (Section
/// 2.2.1). A transition exposes two capabilities:
///
///  - `successors(View)`: enumerate all post-views reachable in one step
///    (over all transition parameters). This drives environment-
///    interference generation and stability checking.
///  - `covers(Pre, Post)`: decide whether a concrete step is an instance of
///    this transition. This discharges the "every atomic action corresponds
///    to a transition" obligation of Section 3.4.
///
/// Transitions are *subjective*: the same relation read from a thread's
/// view or from the environment's view describes, respectively, a step by
/// the thread or interference by its environment.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_CONCURROID_TRANSITION_H
#define FCSL_CONCURROID_TRANSITION_H

#include "concurroid/Footprint.h"
#include "state/View.h"

#include <functional>
#include <string>
#include <vector>

namespace fcsl {

/// Classifies transitions for the metatheory checks: internal transitions
/// preserve the label's heap footprint; acquire/release transitions
/// exchange heap ownership between entangled concurroids (Section 4.1).
enum class TransitionKind : uint8_t { Internal, Acquire, Release };

/// One named transition relation.
class Transition {
public:
  using StepFn = std::function<std::vector<View>(const View &)>;
  using CoverFn = std::function<bool(const View &, const View &)>;

  /// Creates a transition whose instances are produced by \p Enumerate.
  /// `covers` is derived by enumeration unless \p Covers is supplied.
  Transition(std::string Name, TransitionKind Kind, StepFn Enumerate,
             CoverFn Covers = nullptr, bool EnvEnabled = true);

  /// Creates the identity transition every concurroid has.
  static Transition idle();

  const std::string &name() const { return Name; }
  TransitionKind kind() const { return Kind; }

  /// True if the environment may take this transition during interference
  /// exploration. (Transitions whose parameter space is unbounded are
  /// checked by `covers` only.)
  bool isEnvEnabled() const { return EnvEnabled; }

  /// All post-views reachable from \p Pre by one instance of this
  /// transition. Must leave labels it does not own untouched.
  std::vector<View> successors(const View &Pre) const;

  /// Whether (Pre, Post) is an instance of this transition.
  bool covers(const View &Pre, const View &Post) const;

  /// Attaches footprint metadata: the components any instance of this
  /// transition from any view may read/write (see Footprint.h for the
  /// honesty contract; the "agent" is the environment). Returns *this so
  /// call sites can chain onto a freshly constructed transition.
  Transition &withFootprint(Footprint Static);

  /// The static footprint; unknown unless withFootprint was called.
  const Footprint &staticFootprint() const { return StaticFp; }

private:
  std::string Name;
  TransitionKind Kind;
  StepFn Enumerate;
  CoverFn Covers;
  bool EnvEnabled;
  Footprint StaticFp; ///< default-unknown: dependent on everything.
};

} // namespace fcsl

#endif // FCSL_CONCURROID_TRANSITION_H
