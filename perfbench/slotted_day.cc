// slotted_day: the Fig. 8 comparison (lambda = 0.08, paper-simulation RRC
// preset) over one-day horizons. Scenarios are built in set-up, so a round
// is engine work only: the slot loop, select, P(t), uplink/RRC billing and
// metering, plus the ledger re-bill of each run. The round's (scenario,
// policy) runs are fanned over `jobs` pool threads, more runs than threads,
// so a slow core stretches the round by a run, not by half of it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "apps/cargo_app.h"
#include "apps/heartbeat_spec.h"
#include "apps/train_schedule.h"
#include "baselines/registry.h"
#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exp/scenario_builder.h"
#include "exp/slotted_sim.h"
#include "net/synthetic_bandwidth.h"
#include "obs/report.h"
#include "radio/energy_meter.h"
#include "slotted.h"

namespace perfbench {

using namespace etrain;
using namespace etrain::experiments;

BilledRun run_and_bill(const Scenario& scenario, core::SchedulingPolicy& policy) {
  BilledRun out;
  {
    trace::Scope span(SpanName::kRunSlotted);
    out.metrics = run_slotted(scenario, policy);
  }
  trace::count(CounterName::kSlots,
               static_cast<std::uint64_t>(std::ceil(
                   scenario.horizon / policy.preferred_slot_length() - 1e-12)));
  const RunMetrics& m = out.metrics;
  radio::EnergyReport rebill;
  {
    trace::Scope span(SpanName::kMeter);
    rebill = radio::measure_energy(m.log, scenario.model, m.energy.horizon);
  }
  obs::EnergyLedger ledger;
  {
    trace::Scope span(SpanName::kLedger);
    obs::append_ledger(ledger, "cellular", m.log, scenario.model,
                       m.energy.horizon);
  }
  trace::count(CounterName::kTransmissions, m.log.size());
  out.ledger_J = ledger.total();
  const double meter = m.energy.network_energy();
  out.rebilled = rebill.network_energy() == meter &&
                 std::abs(out.ledger_J - meter) <= 1e-9 * std::max(1.0, meter);
  return out;
}

void probe_scenario_parts(const ScenarioConfig& config) {
  {
    trace::Scope span(SpanName::kBandwidthTrace);
    net::SyntheticBandwidthConfig bw;
    bw.length = std::max(config.horizon, 60.0);
    (void)net::generate_synthetic_trace(bw, config.bandwidth_seed);
  }
  {
    trace::Scope span(SpanName::kTrainSchedule);
    const auto all = apps::default_train_specs();
    const std::vector<apps::HeartbeatSpec> trains(
        all.begin(), all.begin() + config.train_count);
    (void)apps::build_train_schedule(trains, config.horizon);
  }
  {
    trace::Scope span(SpanName::kWorkloadGenerate);
    const auto cargo = apps::cargo_specs_for_lambda(config.lambda);
    Rng rng(config.workload_seed);
    (void)apps::generate_workload(cargo, config.horizon, rng);
  }
}

namespace {

constexpr Duration kHorizon = 86400.0;
constexpr int kScenarios = 4;
constexpr std::uint64_t kStreamScenario = 0x510d1a7;
/// In the paper's energy order, lowest first (Fig. 8).
const char* const kPolicies[] = {"etrain:theta=1,k=20", "etime:v=1",
                                 "peres:omega=0.5", "baseline"};
constexpr int kPolicyCount = 4;
constexpr int kEtime = 1;

/// What one (scenario, policy) run contributes to the round.
struct RunSummary {
  int policy = 0;
  double slots = 0.0;
  double latency_us = 0.0;
  bool rebilled = false;
  std::size_t packets = 0;
  std::size_t transmissions = 0;
  double energy_J = 0.0;
  double ledger_J = 0.0;
  double normalized_delay = 0.0;
  double violation_ratio = 0.0;
  double delay_cost = 0.0;
};

class SlottedDay final : public Workload {
 public:
  explicit SlottedDay(std::size_t jobs) : jobs_(jobs) {
    // The 60 s-slot eTime runs are an order of magnitude shorter: queue
    // them last so the pool's FIFO balances the round.
    for (const bool short_runs : {false, true}) {
      for (int p = 0; p < kPolicyCount; ++p) {
        if ((p == kEtime) != short_runs) continue;
        for (int s = 0; s < kScenarios; ++s) tasks_.emplace_back(s, p);
      }
    }
  }

  const char* work_unit() const override { return "slots"; }
  const char* item_unit() const override { return "slot"; }
  const char* latency_unit() const override {
    return "eTrain run over one day";
  }
  std::map<std::string, std::string> metric_names() const override {
    return {{"rate_per_s", "slots_per_s"}};
  }

  void setup(std::uint64_t seed) override {
    scenarios_.clear();
    std::vector<std::uint64_t> indices(kScenarios);
    for (int s = 0; s < kScenarios; ++s) indices[s] = s;
    scenarios_ = parallel_map(
        indices,
        [seed](std::uint64_t index) {
          ScenarioBuilder builder;
          builder.lambda(0.08)
              .model(radio::PowerModel::PaperSimulation())
              .horizon(kHorizon)
              .workload_seed(derive_seed(seed, kStreamScenario, 3 * index))
              .bandwidth_seed(
                  derive_seed(seed, kStreamScenario, 3 * index + 1))
              .noise_seed(derive_seed(seed, kStreamScenario, 3 * index + 2));
          Scenario scenario;
          {
            trace::Scope span(SpanName::kScenarioBuild);
            scenario = builder.build();
          }
          if (trace::enabled()) probe_scenario_parts(builder.base_config());
          return scenario;
        },
        jobs_);
  }

  RoundResult run_round() override {
    const core::PolicyRegistry& registry =
        trace::enabled() ? traced_registry() : baselines::builtin_registry();
    RoundResult r;
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    const std::vector<RunSummary> runs = parallel_map(
        tasks_,
        [this, &registry](const std::pair<int, int>& task) {
          const Scenario& scenario = scenarios_[task.first];
          const auto policy = registry.make(kPolicies[task.second]);
          const std::int64_t start = now_ns();
          const BilledRun run = run_and_bill(scenario, *policy);
          const RunMetrics& m = run.metrics;
          RunSummary out;
          out.policy = task.second;
          out.latency_us = static_cast<double>(now_ns() - start) / 1e3;
          out.slots = std::ceil(
              scenario.horizon / policy->preferred_slot_length() - 1e-12);
          out.rebilled = run.rebilled;
          out.packets = m.outcomes.size();
          out.transmissions = m.log.size();
          out.energy_J = m.network_energy();
          out.ledger_J = run.ledger_J;
          out.normalized_delay = m.normalized_delay;
          out.violation_ratio = m.violation_ratio;
          out.delay_cost = m.total_delay_cost;
          return out;
        },
        jobs_);
    r.wall_s = static_cast<double>(now_ns() - t0) / 1e9;

    Digest digest;
    double energy[kPolicyCount] = {};
    double delay[kPolicyCount] = {};
    std::size_t packets[kPolicyCount] = {};
    bool rebilled = true;
    for (const RunSummary& run : runs) {
      // One policy's runs only: the four policies' run times differ by up
      // to 8x, and a pooled median would sit on a cluster boundary.
      if (run.policy == 0) r.latencies_us.push_back(run.latency_us);
      r.work += run.slots;
      r.attempted += 1;
      if (!run.rebilled) {
        rebilled = false;
        r.failed += 1;
      }
      energy[run.policy] += run.energy_J;
      delay[run.policy] +=
          run.normalized_delay * static_cast<double>(run.packets);
      packets[run.policy] += run.packets;
      digest.add(static_cast<std::uint64_t>(run.packets));
      digest.add(static_cast<std::uint64_t>(run.transmissions));
      digest.add(run.energy_J);
      digest.add(run.normalized_delay);
      digest.add(run.violation_ratio);
      digest.add(run.delay_cost);
      digest.add(run.ledger_J);
    }
    r.cpu_s = process_cpu_s() - cpu0;
    r.items = r.work;
    // The paper's energy order must hold on the round's totals, and every
    // policy must deliver the same packets.
    bool ordered = true;
    for (int p = 0; p + 1 < kPolicyCount; ++p) {
      ordered = ordered && energy[p] < energy[p + 1];
      ordered = ordered && packets[p] == packets[p + 1];
    }
    if (!ordered) r.failed = r.attempted;
    r.digest = digest.value();
    char line[512];
    int used = std::snprintf(line, sizeof line,
                             "slotted_day: %d scenarios x %.0f s on %zu jobs, "
                             "energy order %s, rebill %s\n",
                             kScenarios, kHorizon, jobs_,
                             ordered ? "ok" : "VIOLATED",
                             rebilled ? "ok" : "MISMATCH");
    for (int p = 0; p < kPolicyCount && used < static_cast<int>(sizeof line);
         ++p) {
      used += std::snprintf(
          line + used, sizeof line - static_cast<std::size_t>(used),
          "  %-20s packets %zu  energy %.3f J  mean delay %.3f s\n",
          kPolicies[p], packets[p], energy[p],
          packets[p] == 0 ? 0.0 : delay[p] / static_cast<double>(packets[p]));
    }
    r.summary = line;
    if (!r.summary.empty() && r.summary.back() == '\n') r.summary.pop_back();
    return r;
  }

 private:
  std::size_t jobs_;
  /// (scenario, policy) pairs in submission order.
  std::vector<std::pair<int, int>> tasks_;
  std::vector<Scenario> scenarios_;
};

}  // namespace

std::unique_ptr<Workload> make_slotted_day(std::size_t jobs) {
  return std::make_unique<SlottedDay>(jobs);
}

}  // namespace perfbench
