// Layer calls shared by the slotted workloads (slotted_day, fleet_city).
#pragma once

#include "core/policy.h"
#include "exp/metrics.h"
#include "exp/scenario.h"

namespace perfbench {

/// One run of `policy` over `scenario` (kRunSlotted span), its log re-billed
/// through radio::measure_energy (kMeter) and obs::append_ledger (kLedger).
struct BilledRun {
  etrain::experiments::RunMetrics metrics;
  etrain::Joules ledger_J = 0.0;
  /// The meter re-bills the run's own report exactly, and the ledger
  /// re-bills it to 1e-9 J.
  bool rebilled = false;
};

BilledRun run_and_bill(const etrain::experiments::Scenario& scenario,
                       etrain::core::SchedulingPolicy& policy);

/// Calls the three generators ScenarioBuilder::build runs for `config`
/// (bandwidth trace, train timetable, cargo workload) with the same
/// arguments, each in its own span. Traced runs only.
void probe_scenario_parts(const etrain::experiments::ScenarioConfig& config);

}  // namespace perfbench
