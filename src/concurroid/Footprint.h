//===- concurroid/Footprint.h - Step footprints for independence -*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conservative footprint descriptors for atomic actions and concurroid
/// transitions, and the independence relation between them. This is the
/// metadata layer behind the engine's partial-order reduction (DESIGN.md
/// §9): two steps taken by *different* agents commute — executing them in
/// either order yields the same state and the same outcomes — whenever
/// their footprints are independent.
///
/// A footprint lists the state components a step may read and those it may
/// write, as atoms. Each atom names a label and one subjective component:
///
///  - `Joint`:    the label's shared real heap. Joint atoms can be refined
///                by a cell list (instead of "all cells"), a field mask
///                (graph cells have independent Left/Right/Marked fields;
///                scalar cells use `FpFieldsAll`), and a *region*:
///                `SelfOwned` marks cells governed by the executing agent's
///                own PCM contribution. Because self contributions of
///                distinct agents are disjoint (that is what makes them a
///                PCM), two SelfOwned atoms of different agents never refer
///                to the same cell, and a SelfOwned atom never refers to a
///                cell in the `Unowned` region.
///  - `SelfAux`:  the executing agent's own auxiliary PCM contribution at
///                the label. Different agents' self contributions join, so
///                they are frame-disjoint: X's SelfAux never clashes with
///                Y's SelfAux. It *does* clash with another agent's
///                OtherAux (X's self is part of Y's other).
///  - `OtherAux`: the combined contributions of all other agents. Two
///                OtherAux atoms of different agents overlap (each contains
///                the third parties), so they always clash.
///
/// The environment counts as one more agent: a transition's SelfAux is the
/// environment's own contribution, and its OtherAux covers every thread.
///
/// Honesty contract (what makes the reduction sound): a step's footprint
/// must cover every component its enabledness, its safety, and its set of
/// outcomes depend on (reads), and every component any outcome may change
/// (writes) — including cells whose *presence* in a joint heap changes
/// (domain changes count as whole-cell writes). A field-masked write
/// promises the outcome leaves the cell's other fields at their pre-state
/// values. An action's dynamic footprint (computed from the pre-view and
/// arguments) must cover every instance enabled *at that view*, and the
/// step's enabledness, safety, and outcomes must be functions of the
/// components it reads — then the footprint remains an honest description
/// in any state that differs only on components outside it, which is what
/// lets the engine commute the step across independent ones. It need *not*
/// anticipate instances that only become enabled later through unread
/// components (a helper gaining a new request, say): wherever
/// the engine must remember a step across many subsequent states — sleep
/// entries — it records the static, all-instance footprint instead. When
/// in doubt, return `Footprint()` (unknown): unknown footprints are
/// dependent on everything, which only costs reduction, never soundness.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_CONCURROID_FOOTPRINT_H
#define FCSL_CONCURROID_FOOTPRINT_H

#include "heap/Ptr.h"
#include "state/View.h"

#include <cstdint>
#include <vector>

namespace fcsl {

/// Which subjective component of a label an atom touches.
enum class FpComp : uint8_t { Joint, SelfAux, OtherAux };

/// Ownership region of a Joint atom, from the executing agent's
/// perspective. `Any` is the conservative default.
enum class FpRegion : uint8_t {
  Any,       ///< no ownership claim: may alias anything at the label.
  SelfOwned, ///< cells governed by the agent's own PCM contribution.
  Unowned    ///< cells governed by no agent's contribution.
};

/// Field mask covering every field of a cell (scalar cells only have one).
inline constexpr uint8_t FpFieldsAll = 0xFF;

/// One footprint atom: a (label, component) pair with optional joint-heap
/// refinements.
struct FpAtom {
  Label L = 0;
  FpComp Comp = FpComp::Joint;
  FpRegion Region = FpRegion::Any; ///< meaningful for Joint atoms only.
  uint8_t Fields = FpFieldsAll;    ///< meaningful for Joint atoms only.
  bool AllCells = true;            ///< false: restricted to `Cells`.
  std::vector<Ptr> Cells;          ///< sorted; meaningful when !AllCells.

  static FpAtom selfAux(Label L);
  static FpAtom otherAux(Label L);
  static FpAtom joint(Label L, uint8_t Fields = FpFieldsAll,
                      FpRegion Region = FpRegion::Any);
  static FpAtom jointCell(Label L, Ptr P, uint8_t Fields = FpFieldsAll,
                          FpRegion Region = FpRegion::Any);

  friend bool operator==(const FpAtom &A, const FpAtom &B) {
    return A.L == B.L && A.Comp == B.Comp && A.Region == B.Region &&
           A.Fields == B.Fields && A.AllCells == B.AllCells &&
           A.Cells == B.Cells;
  }
};

/// May two atoms refer to overlapping state? Conservative: true unless
/// disjointness is guaranteed. By default the atoms are claimed by two
/// *different* agents (distinct threads, or a thread vs. the environment);
/// \p SameAgent switches to the one-agent reading — e.g. two environment
/// transitions — where SelfAux/SelfAux and SelfOwned/SelfOwned name the
/// *same* component or region instead of frame-disjoint ones.
bool fpAtomsClash(const FpAtom &A, const FpAtom &B, bool SameAgent = false);

/// The read/write footprint of one step. Default-constructed footprints
/// are *unknown* (dependent on everything).
class Footprint {
public:
  Footprint() = default;

  /// A known footprint touching nothing. Extend with read()/write().
  static Footprint none();

  bool known() const { return Known; }
  const std::vector<FpAtom> &reads() const { return Reads; }
  const std::vector<FpAtom> &writes() const { return Writes; }

  /// Fluent builders; calling either marks the footprint known.
  Footprint &read(FpAtom A);
  Footprint &write(FpAtom A);
  /// Declares A both read and written.
  Footprint &readWrite(const FpAtom &A);

private:
  bool Known = false;
  std::vector<FpAtom> Reads;
  std::vector<FpAtom> Writes;
};

/// Structural equality (atom order matters), used by the wire codec's
/// round-trip checks.
inline bool operator==(const Footprint &A, const Footprint &B) {
  return A.known() == B.known() && A.reads() == B.reads() &&
         A.writes() == B.writes();
}

/// Independence of two steps: each side's writes are disjoint from the
/// other side's reads and writes. Unknown footprints are independent of
/// nothing. Independent steps commute: neither enables, disables, nor
/// changes the outcomes of the other, and both execution orders reach the
/// same state. Pass \p SameAgent when both steps belong to one agent
/// (two environment transitions; see fpAtomsClash).
bool fpIndependent(const Footprint &A, const Footprint &B,
                   bool SameAgent = false);

} // namespace fcsl

#endif // FCSL_CONCURROID_FOOTPRINT_H
