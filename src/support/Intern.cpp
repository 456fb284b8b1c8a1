//===- support/Intern.cpp - Arena and computed-table statistics ------------===//
//
// Part of fcsl-cpp. See Intern.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "support/Intern.h"

#include <algorithm>

using namespace fcsl;

namespace {

struct StatsRegistry {
  std::mutex M;
  std::vector<std::pair<std::string,
                        std::function<std::pair<uint64_t, uint64_t>()>>>
      Providers;
};

// Leaked singleton: arenas register during static init and live forever,
// so the registry must too.
StatsRegistry &registry() {
  static StatsRegistry *R = new StatsRegistry;
  return *R;
}

/// One cached operation's counters: the live threads' tables plus the
/// totals of tables whose threads have exited.
struct TableOp {
  std::string Name;
  std::vector<const detail::TableCounters *> Live;
  uint64_t RetiredProbes = 0;
  uint64_t RetiredHits = 0;
};

struct TableRegistry {
  std::mutex M;
  std::vector<TableOp> Ops;

  TableOp &op(const char *Name) {
    for (TableOp &Op : Ops)
      if (Op.Name == Name)
        return Op;
    Ops.push_back(TableOp{Name, {}, 0, 0});
    return Ops.back();
  }
};

// Leaked for the same reason: thread-local tables detach at thread exit,
// which for the main thread runs during process teardown.
TableRegistry &tableRegistry() {
  static TableRegistry *R = new TableRegistry;
  return *R;
}

} // namespace

void fcsl::detail::registerArenaStats(
    const char *Name, std::function<std::pair<uint64_t, uint64_t>()> Fn) {
  StatsRegistry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  R.Providers.emplace_back(Name, std::move(Fn));
}

InternStats fcsl::internStats() {
  StatsRegistry &R = registry();
  InternStats Out;
  std::lock_guard<std::mutex> Lock(R.M);
  for (const auto &Entry : R.Providers) {
    auto [Requests, Nodes] = Entry.second();
    Out.PerType.push_back(InternTypeStats{Entry.first, Requests, Nodes});
  }
  return Out;
}

void fcsl::detail::attachTable(const char *Name, const TableCounters *C) {
  TableRegistry &R = tableRegistry();
  std::lock_guard<std::mutex> Lock(R.M);
  R.op(Name).Live.push_back(C);
}

void fcsl::detail::detachTable(const char *Name, const TableCounters *C) {
  TableRegistry &R = tableRegistry();
  std::lock_guard<std::mutex> Lock(R.M);
  TableOp &Op = R.op(Name);
  Op.Live.erase(std::find(Op.Live.begin(), Op.Live.end(), C));
  Op.RetiredProbes += C->Probes.load(std::memory_order_relaxed);
  Op.RetiredHits += C->Hits.load(std::memory_order_relaxed);
}

std::vector<ComputedTableStats> fcsl::computedTableStats() {
  TableRegistry &R = tableRegistry();
  std::vector<ComputedTableStats> Out;
  {
    std::lock_guard<std::mutex> Lock(R.M);
    for (const TableOp &Op : R.Ops) {
      ComputedTableStats S{Op.Name, Op.RetiredProbes, Op.RetiredHits};
      for (const detail::TableCounters *C : Op.Live) {
        S.Probes += C->Probes.load(std::memory_order_relaxed);
        S.Hits += C->Hits.load(std::memory_order_relaxed);
      }
      Out.push_back(std::move(S));
    }
  }
  std::sort(Out.begin(), Out.end(),
            [](const ComputedTableStats &A, const ComputedTableStats &B) {
              return A.Name < B.Name;
            });
  return Out;
}
