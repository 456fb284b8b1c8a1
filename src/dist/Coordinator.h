//===- dist/Coordinator.h - Retired sharded-run entry points ----*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What is left of the multi-process sharded exploration, which is retired
/// (DESIGN.md §10): every exploration runs in-process under `--jobs`. The
/// names below are kept only because perfbench still compiles against
/// them; they can go once it stops using them.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_DIST_COORDINATOR_H
#define FCSL_DIST_COORDINATOR_H

#include "prog/Engine.h"

namespace fcsl {
namespace dist {

/// One shard's exchange statistics. Always empty now.
struct ShardExchange {
  uint64_t SuppressedSends = 0;
};

/// Transport statistics of the shard fleets run so far. There are none,
/// so every field stays zero.
struct FleetStats {
  uint64_t Fleets = 0;
  uint64_t Configs = 0;
  uint64_t Messages = 0;
  uint64_t Bytes = 0;
  uint64_t ChildRssKbMax = 0;
  std::vector<ShardExchange> LastRun;
};
FleetStats fleetTotals();

/// Runs explore(Root, Initial, Opts, InitialEnv) in this process;
/// \p NShards is ignored.
RunResult distributedExplore(const ProgRef &Root, const GlobalState &Initial,
                             const EngineOptions &Opts,
                             const VarEnv &InitialEnv, unsigned NShards);

} // namespace dist
} // namespace fcsl

#endif // FCSL_DIST_COORDINATOR_H
