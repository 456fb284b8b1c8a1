//===- dist/Coordinator.cpp - Retired sharded-run entry points -------------===//
//
// Part of fcsl-cpp. See Coordinator.h for why these remain.
//
//===----------------------------------------------------------------------===//

#include "dist/Coordinator.h"

using namespace fcsl;

dist::FleetStats dist::fleetTotals() { return {}; }

RunResult dist::distributedExplore(const ProgRef &Root,
                                   const GlobalState &Initial,
                                   const EngineOptions &Opts,
                                   const VarEnv &InitialEnv, unsigned) {
  return explore(Root, Initial, Opts, InitialEnv);
}
