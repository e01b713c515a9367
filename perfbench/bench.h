// Shared plumbing of the perfbench harness: clocks, resource readings,
// output digests, the per-workload contract, and the span tracer that the
// traced run (--trace 1) records around calls into each layer.
//
// Tracing is off unless main() enables it. Spans live in per-thread
// in-memory buffers (no locks on the hot path); each closed span adds its
// duration to its parent's child time, so self time = duration - children
// is exact per span and aggregated per name. The raw spans are written out
// as one Chrome trace file when the run ends.
#pragma once

#include <time.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/policy_registry.h"

namespace perfbench {

// ---------------------------------------------------------------- clocks --

/// steady_clock nanoseconds.
std::int64_t now_ns();
/// Seconds on clock `id` (e.g. another thread's pthread_getcpuclockid).
double clock_seconds(clockid_t id);
/// CPU seconds of the whole process (all threads).
double process_cpu_s();
/// CPU seconds of the calling thread.
double thread_cpu_s();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();
/// Current resident set size of the process, KiB.
double current_rss_kb();

// --------------------------------------------------------------- digests --

/// FNV-1a over the exact bits of a workload's outputs. Doubles enter as
/// their IEEE-754 bit patterns, so a digest pins results bit for bit.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const std::string& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// splitmix64 of (seed, stream, index): the seed of one generated input.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index = 0);

// ------------------------------------------------------------- workloads --

/// One fixed-work round: the same inputs every round, so every round of a
/// run must produce the same digest.
struct RoundResult {
  double wall_s = 0.0;
  /// Units of work done (slots, devices, client-seconds, sessions) — the
  /// numerator of rate_per_s.
  double work = 0.0;
  /// CPU seconds charged to the round (process CPU, or the gateway thread's
  /// CPU for gateway_sync) and the items it is divided by.
  double cpu_s = 0.0;
  double items = 0.0;
  /// Per-request latencies, microseconds.
  std::vector<double> latencies_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  /// Human-readable totals printed once per run (first round).
  std::string summary;
};

/// Per-layer values a workload contributes to the traced run beyond the
/// span aggregates (counts, ratios, thread readings).
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// What one unit of `work` and one `item` are, for the printed table.
  virtual const char* work_unit() const = 0;
  virtual const char* item_unit() const = 0;
  virtual const char* latency_unit() const = 0;
  /// The workload-specific names the ROADMAP and issues use for some of the
  /// generic end-to-end metrics (rate_per_s -> slots_per_s, ...).
  virtual std::map<std::string, std::string> metric_names() const = 0;
  /// Generates every input from `seed`. Timed with one warm-up round as
  /// setup_s; main() calls it several times and keeps the last.
  virtual void setup(std::uint64_t seed) = 0;
  /// Runs one round over the inputs.
  virtual RoundResult run_round() = 0;
  /// Traced run only, after the traced rounds: per-layer values the spans
  /// cannot give (thread readings, ratios), plus probe passes over calls
  /// that a round makes out of the benchmark's reach.
  virtual void layer_values(LayerValues& out) { (void)out; }
};

std::unique_ptr<Workload> make_slotted_day(std::size_t jobs);
std::unique_ptr<Workload> make_fleet_city(std::size_t jobs);
std::unique_ptr<Workload> make_gateway_replay(std::size_t jobs);
std::unique_ptr<Workload> make_gateway_sync(std::size_t jobs);

// ---------------------------------------------------------------- tracer --

/// Every span and counter the traced run records.
enum class SpanName : std::uint8_t {
  kScenarioBuild,
  kBandwidthTrace,
  kWorkloadGenerate,
  kTrainSchedule,
  kRunSlotted,
  kSelect,
  kQueuesCost,
  kMeter,
  kLedger,
  kFleetRun,
  kWireDecode,
  kWireEncodeAck,
  kSessionCtor,
  kSessionCargo,
  kSessionHeartbeat,
  kSessionTick,
  kMonitorPredict,
  kGatewayFold,
  kConnect,
  kRequest,
  kAckDecode,
  kCount
};

enum class CounterName : std::uint8_t {
  kSelectOpen,     ///< select calls that chose at least one packet
  kSlots,          ///< slots simulated inside kRunSlotted spans
  kTransmissions,  ///< log entries billed inside kMeter / kLedger spans
  kFrames,         ///< frames decoded inside kWireDecode spans
  kAcks,           ///< ACK frames encoded
  kDepartures,     ///< departures returned by kMonitorPredict spans
  kSimEvents,      ///< simulator events fired inside kSessionTick spans
  kAckRecvs,       ///< recv() calls that returned ACK bytes
  kCount
};

const char* span_label(SpanName name);

namespace trace {

void set_enabled(bool on);
bool enabled();

/// Opens a span on the calling thread; closing it (destructor) records
/// (name, start, end, parent) and charges its duration to the parent.
class Scope {
 public:
  explicit Scope(SpanName name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_;
};

/// Records a finished span [start_ns, end_ns] under the calling thread's
/// innermost open span — for intervals that cross event-loop iterations.
void record(SpanName name, std::int64_t start_ns, std::int64_t end_ns);

void count(CounterName name, std::uint64_t n = 1);

struct Aggregate {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

struct Totals {
  Aggregate spans[static_cast<int>(SpanName::kCount)];
  std::uint64_t counters[static_cast<int>(CounterName::kCount)] = {};
  /// Per thread other than the one that enabled tracing: first span start
  /// and last span end, for busy fractions.
  std::vector<std::pair<std::int64_t, std::int64_t>> thread_extent;
};

/// Folds every thread's buffer (call after worker threads joined).
Totals collect();
/// Writes the kept raw spans as Chrome trace JSON; false on I/O failure.
bool write_chrome_trace(const std::string& path);

}  // namespace trace

/// A registry whose every builtin policy is wrapped in the tracing
/// decorator: select_into runs inside a kSelect span and is preceded by a
/// kQueuesCost span around WaitingQueues::instantaneous_cost.
const etrain::core::PolicyRegistry& traced_registry();

}  // namespace perfbench
