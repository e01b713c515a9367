// fleet_city: FleetSpec::city at its 600 s horizon on `jobs` workers. Many
// short device runs, so per-device scenario generation, the ledger digests
// and the serial fold weigh far more than in slotted_day.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/registry.h"
#include "bench.h"
#include "exp/fleet.h"
#include "slotted.h"

namespace perfbench {

namespace {

using namespace etrain;
using namespace etrain::experiments;

constexpr std::size_t kDevices = 3000;
constexpr Duration kHorizon = 600.0;
/// Every kProbeStride-th device is re-run through the public per-device
/// calls in the traced run.
constexpr std::size_t kProbeStride = 10;

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Exact partitions of a fleet result and the ledger-re-bills-the-meters
/// invariant (docs/fleet.md).
bool check_fleet(const FleetResult& r, std::size_t devices) {
  const FleetArrays& a = r.arrays;
  std::size_t class_devices = 0;
  std::size_t class_packets = 0;
  bool ok = r.devices == devices && a.size() == devices;
  for (std::size_t c = 0; c < r.classes.size(); ++c) {
    const FleetClassAggregate& agg = r.classes[c];
    class_devices += agg.devices;
    class_packets += agg.packets;
    ok = ok && agg.heartbeat_J + agg.data_J == agg.network_J;
    ok = ok && static_cast<std::size_t>(std::count(
                   a.class_id.begin(), a.class_id.end(),
                   static_cast<std::uint32_t>(c))) == agg.devices;
  }
  double meters = 0.0;
  std::uint64_t slots = 0;
  for (std::size_t d = 0; d < a.size(); ++d) {
    meters += a.meter_J[d];
    slots += a.slots[d];
  }
  ok = ok && class_devices == devices && class_packets == r.total_packets;
  ok = ok && meters == r.device_meter_total_J && slots == r.total_slots;
  ok = ok && std::abs(r.ledger.total() - r.device_meter_total_J) <=
                 1e-9 * std::max<double>(1.0, static_cast<double>(devices));
  return ok;
}

std::uint64_t digest_fleet(const FleetResult& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.devices));
  d.add(r.total_slots);
  d.add(static_cast<std::uint64_t>(r.total_packets));
  d.add(r.device_meter_total_J);
  for (const FleetClassAggregate& c : r.classes) {
    d.add(c.name);
    d.add(static_cast<std::uint64_t>(c.devices));
    d.add(static_cast<std::uint64_t>(c.packets));
    d.add(static_cast<std::uint64_t>(c.violations));
    d.add(static_cast<std::uint64_t>(c.transmissions));
    d.add(static_cast<std::uint64_t>(c.failures));
    d.add(c.network_J);
    d.add(c.heartbeat_J);
    d.add(c.data_J);
    d.add(c.delay_sum_s);
    d.add(c.delay_cost);
  }
  for (const obs::LedgerRow& row : r.ledger.rows) {
    d.add(row.interface_name);
    d.add(static_cast<std::uint64_t>(row.kind));
    d.add(static_cast<std::uint64_t>(row.app));
    d.add(row.tx_J);
    d.add(row.setup_J);
    d.add(row.tail_J);
    d.add(static_cast<std::uint64_t>(row.transmissions));
  }
  return d.value();
}

class FleetCity final : public Workload {
 public:
  explicit FleetCity(std::size_t jobs) : jobs_(jobs) {}

  const char* work_unit() const override { return "devices"; }
  const char* item_unit() const override { return "device"; }
  const char* latency_unit() const override { return "fleet run"; }
  std::map<std::string, std::string> metric_names() const override {
    return {{"rate_per_s", "devices_per_s"}};
  }

  void setup(std::uint64_t seed) override {
    harness_.reset();
    FleetSpec spec = FleetSpec::city(kDevices, kHorizon);
    spec.seed = seed;
    harness_ = std::make_unique<FleetHarness>(spec);
  }

  RoundResult run_round() override {
    const bool traced = trace::enabled();
    const core::PolicyRegistry& registry =
        traced ? traced_registry() : baselines::builtin_registry();
    RoundResult r;
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    FleetResult result;
    {
      trace::Scope span(SpanName::kFleetRun);
      result = harness_->run(registry, jobs_);
    }
    const std::int64_t t1 = now_ns();
    r.wall_s = static_cast<double>(t1 - t0) / 1e9;
    r.cpu_s = process_cpu_s() - cpu0;
    r.work = static_cast<double>(kDevices);
    r.items = r.work;
    r.latencies_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    r.attempted = kDevices;
    const bool ok = check_fleet(result, kDevices);
    if (!ok) r.failed = kDevices;
    r.digest = digest_fleet(result);
    if (traced) record_shard_extents(t0, t1);

    char line[256];
    std::snprintf(line, sizeof line,
                  "fleet_city: %zu devices x %.0f s on %zu jobs, %llu slots, "
                  "%zu packets, meters %.3f J, ledger %.3f J, checks %s",
                  kDevices, kHorizon, jobs_,
                  static_cast<unsigned long long>(result.total_slots),
                  result.total_packets, result.device_meter_total_J,
                  result.ledger.total(), ok ? "ok" : "FAILED");
    r.summary = line;
    return r;
  }

  void layer_values(LayerValues& out) override {
    out["exp.fleet.fold_ms"] = median_of(fold_ms_);
    out["exp.fleet.fold_ms#count"] = static_cast<double>(fold_ms_.size());
    out["common.parallel.idle_frac"] = median_of(idle_frac_);
    out["common.parallel.idle_frac#count"] =
        static_cast<double>(idle_frac_.size());
    // Probe: the per-device calls FleetHarness::run makes internally,
    // through the same public API, on a stride of the fleet.
    const FleetSpec& spec = harness_->spec();
    for (std::size_t d = 0; d < kDevices; d += kProbeStride) {
      Scenario scenario;
      {
        trace::Scope span(SpanName::kScenarioBuild);
        scenario = harness_->device_scenario(d);
      }
      const FleetClass& cls = spec.classes[harness_->class_of(d)];
      ScenarioConfig config = cls.scenario.base_config();
      config.workload_seed =
          harness_->device_seed(d, FleetHarness::kStreamWorkload);
      config.bandwidth_seed =
          harness_->device_seed(d, FleetHarness::kStreamBandwidth);
      probe_scenario_parts(config);
      const auto policy = traced_registry().make(cls.policy);
      (void)run_and_bill(scenario, *policy);
    }
  }

 private:
  /// The pool's workers record select spans through the traced registry:
  /// a worker is busy from its first span to its last, the fold runs after
  /// the last worker's last span.
  void record_shard_extents(std::int64_t t0, std::int64_t t1) {
    const trace::Totals totals = trace::collect();
    double busy = 0.0;
    std::int64_t last = t0;
    for (const auto& [first, end] : totals.thread_extent) {
      if (first < t0 || end > t1) continue;  // another round's workers
      busy += static_cast<double>(end - first);
      last = std::max(last, end);
    }
    const double wall = static_cast<double>(t1 - t0);
    idle_frac_.push_back(1.0 - busy / (static_cast<double>(jobs_) * wall));
    fold_ms_.push_back(static_cast<double>(t1 - last) / 1e6);
  }

  std::size_t jobs_;
  std::unique_ptr<FleetHarness> harness_;
  std::vector<double> fold_ms_;
  std::vector<double> idle_frac_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_city(std::size_t jobs) {
  return std::make_unique<FleetCity>(jobs);
}

}  // namespace perfbench
