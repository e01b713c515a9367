// perfbench: the repository's benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--expect-digest HEX] [--spans PATH]
//
// Sets the workload up seven times (setup_s is the median), then repeats
// fixed-work rounds for S seconds. Every round must reproduce the first
// round's output digest, and the digest must equal --expect-digest when
// given. With --trace 0 the last stdout line carries the end-to-end
// metrics; with --trace 1 the run is split into an untraced half and a
// traced half, and the last line carries the per-layer metrics instead.
// perfbench/README.md documents the workloads and every metric.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expect_digest;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "slotted_day|fleet_city|gateway_replay|gateway_sync --seed N "
               "--seconds S --trace 0|1 [--expect-digest HEX] "
               "[--spans PATH]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      o.trace = value == "1";
    } else if (flag == "--expect-digest") {
      o.expect_digest = value;
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The rank of the q-quantile among `n` samples, with q capped at the
/// highest quantile that still has at least ten samples beyond it; sets
/// `used_q` to the quantile actually taken.
std::size_t capped_rank(std::size_t n, double q, double& used_q) {
  const double dn = static_cast<double>(n);
  used_q = n > 10 ? std::min(q, 1.0 - 10.0 / dn) : 0.0;
  const auto rank =
      static_cast<std::size_t>(std::max(0.0, std::ceil(used_q * dn) - 1.0));
  return n == 0 ? 0 : std::min(rank, n - 1);
}

/// The capped q-quantile of `sorted` (0 when empty).
double capped_quantile(const std::vector<double>& sorted, double q,
                       double& used_q) {
  const std::size_t rank = capped_rank(sorted.size(), q, used_q);
  return sorted.empty() ? 0.0 : sorted[rank];
}

/// The capped q-quantile of unsorted `values`, which it reorders.
double capped_quantile_unsorted(std::vector<double>& values, double q,
                                double& used_q) {
  const std::size_t rank = capped_rank(values.size(), q, used_q);
  if (values.empty()) return 0.0;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  double count;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Turns a hang anywhere into a failed run: when the budget runs out
/// before destruction, the process exits non-zero without a result line.
class Watchdog {
 public:
  explicit Watchdog(double budget_s)
      : thread_([this, budget_s] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!done_cv_.wait_for(lock,
                                 std::chrono::duration<double>(budget_s),
                                 [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: watchdog fired after %.0f s\n",
                         budget_s);
            _exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    done_cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;  // guarded by mutex_
  std::thread thread_;
};

/// Span-derived per-layer metrics, in BENCHMARK.json order, merged with the
/// workload's own values (which win when both name a metric).
/// `select_calls_per_round` is the select spans of the traced rounds over
/// their number: a round is fixed work, so it moves only when the engine
/// calls select more or less often, not when it runs faster.
std::vector<Metric> layer_metrics(const trace::Totals& t,
                                  const LayerValues& extra,
                                  double overhead_frac,
                                  double select_calls_per_round) {
  const auto span = [&t](SpanName n) -> const trace::Aggregate& {
    return t.spans[static_cast<int>(n)];
  };
  const auto counter = [&t](CounterName n) {
    return static_cast<double>(t.counters[static_cast<int>(n)]);
  };
  const auto mean = [&](SpanName n, double scale) {
    return ratio(span(n).total_ns, static_cast<double>(span(n).count)) / scale;
  };
  const auto calls = [&](SpanName n) {
    return static_cast<double>(span(n).count);
  };
  const double slots = counter(CounterName::kSlots);
  const double txs = counter(CounterName::kTransmissions);
  const double frames = counter(CounterName::kFrames);
  const double events = counter(CounterName::kSimEvents);

  std::vector<Metric> m = {
      {"exp.scenario.build_us", mean(SpanName::kScenarioBuild, 1e3), "us",
       calls(SpanName::kScenarioBuild)},
      {"net.bandwidth.trace_us", mean(SpanName::kBandwidthTrace, 1e3), "us",
       calls(SpanName::kBandwidthTrace)},
      {"apps.workload.generate_us", mean(SpanName::kWorkloadGenerate, 1e3),
       "us", calls(SpanName::kWorkloadGenerate)},
      {"apps.train_schedule.build_us", mean(SpanName::kTrainSchedule, 1e3),
       "us", calls(SpanName::kTrainSchedule)},
      {"exp.run_slotted.ns_per_slot",
       ratio(span(SpanName::kRunSlotted).total_ns, slots), "ns", slots},
      {"exp.run_slotted.self_ns_per_slot",
       ratio(span(SpanName::kRunSlotted).self_ns, slots), "ns", slots},
      {"core.select.ns_per_call", mean(SpanName::kSelect, 1.0), "ns",
       calls(SpanName::kSelect)},
      {"core.select.calls", select_calls_per_round, "1/round",
       calls(SpanName::kSelect)},
      {"core.select.open_frac",
       ratio(counter(CounterName::kSelectOpen), calls(SpanName::kSelect)),
       "ratio", calls(SpanName::kSelect)},
      {"core.queues.pt_ns_per_call", mean(SpanName::kQueuesCost, 1.0), "ns",
       calls(SpanName::kQueuesCost)},
      {"radio.meter.ns_per_tx", ratio(span(SpanName::kMeter).total_ns, txs),
       "ns", txs},
      {"obs.ledger.ns_per_tx", ratio(span(SpanName::kLedger).total_ns, txs),
       "ns", txs},
      {"exp.fleet.fold_ms", 0.0, "ms", calls(SpanName::kFleetRun)},
      {"common.parallel.idle_frac", 0.0, "ratio", 0.0},
      {"system.wire.decode_ns_per_frame", ratio(span(SpanName::kWireDecode).total_ns, frames),
       "ns", frames},
      {"system.wire.encode_ns_per_ack", mean(SpanName::kWireEncodeAck, 1.0),
       "ns", calls(SpanName::kWireEncodeAck)},
      {"gateway.session.ctor_us", mean(SpanName::kSessionCtor, 1e3), "us",
       calls(SpanName::kSessionCtor)},
      {"gateway.session.cargo_ns", mean(SpanName::kSessionCargo, 1.0), "ns",
       calls(SpanName::kSessionCargo)},
      {"gateway.session.heartbeat_ns", mean(SpanName::kSessionHeartbeat, 1.0),
       "ns", calls(SpanName::kSessionHeartbeat)},
      {"gateway.session.tick_ns",
       ratio(span(SpanName::kSessionTick).total_ns, events), "ns", events},
      {"gateway.session.ticks_per_frame", ratio(events, frames), "ratio",
       frames},
      {"gateway.session.drip_frac", 0.0, "ratio", events},
      {"android.monitor.predict_ns", mean(SpanName::kMonitorPredict, 1.0),
       "ns", calls(SpanName::kMonitorPredict)},
      {"android.monitor.departures_per_call",
       ratio(counter(CounterName::kDepartures),
             calls(SpanName::kMonitorPredict)),
       "count", calls(SpanName::kMonitorPredict)},
      {"gateway.fold_ms", mean(SpanName::kGatewayFold, 1e6), "ms",
       calls(SpanName::kGatewayFold)},
      {"gateway.rss_kb_per_closed_session", 0.0, "KiB", 0.0},
      {"gateway.thread.user_us_per_frame", 0.0, "us", 0.0},
      {"gateway.thread.sys_us_per_frame", 0.0, "us", 0.0},
      {"gateway.thread.busy_frac", 0.0, "ratio", 0.0},
      {"loadgen.busy_frac", 0.0, "ratio", 0.0},
      {"loadgen.connect_us", mean(SpanName::kConnect, 1e3), "us",
       calls(SpanName::kConnect)},
      {"loadgen.request_rtt_us", mean(SpanName::kRequest, 1e3), "us",
       calls(SpanName::kRequest)},
      {"loadgen.acks_per_recv",
       ratio(counter(CounterName::kAcks), counter(CounterName::kAckRecvs)),
       "count", counter(CounterName::kAckRecvs)},
      {"loadgen.ack_decode_ns", mean(SpanName::kAckDecode, 1.0), "ns",
       calls(SpanName::kAckDecode)},
      {"trace.overhead_frac", overhead_frac, "ratio", 0.0},
  };
  for (Metric& metric : m) {
    const auto it = extra.find(metric.name);
    if (it != extra.end()) metric.value = it->second;
    const auto count_it = extra.find(metric.name + "#count");
    if (count_it != extra.end()) metric.count = count_it->second;
  }
  return m;
}

/// A uniform subsample of every latency of the run, at most kCap values:
/// when full it keeps every second value and halves its sampling rate, so
/// memory (and peak RSS) does not grow with the number of rounds.
class LatencySample {
 public:
  void add(double v) {
    if (seen_++ % stride_ != 0) return;
    kept_.push_back(v);
    if (kept_.size() < kCap) return;
    std::size_t j = 0;
    for (std::size_t i = 0; i < kept_.size(); i += 2) kept_[j++] = kept_[i];
    kept_.resize(j);
    stride_ *= 2;
  }
  std::vector<double> sorted() const {
    std::vector<double> v = kept_;
    std::sort(v.begin(), v.end());
    return v;
  }
  std::uint64_t seen() const { return seen_; }

 private:
  static constexpr std::size_t kCap = std::size_t{1} << 17;
  std::vector<double> kept_;
  std::uint64_t stride_ = 1;
  std::uint64_t seen_ = 0;
};

/// A round with at least this many latencies yields its own p50 and p99.
/// When every round does, the run reports the median over rounds of each,
/// which a burst of host load in a few rounds does not move; otherwise it
/// takes the quantiles of the latencies pooled over the run.
constexpr std::size_t kRoundQuantileMin = 1000;

struct RunTotals {
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> cpu_per_item;
  LatencySample latencies;
  std::vector<double> round_p50;
  std::vector<double> round_p99;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Repeats rounds until `seconds` have passed (at least `min_rounds`),
/// checking every digest against `first_digest` (set by the first round of
/// the whole run).
void run_rounds(Workload& w, double seconds, std::size_t min_rounds,
                RunTotals& totals, std::uint64_t& first_digest,
                bool& have_digest, bool& consistent) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t rounds = 0;
  while (rounds < min_rounds || now_ns() < deadline) {
    RoundResult r = w.run_round();
    ++rounds;
    if (!have_digest) {
      first_digest = r.digest;
      have_digest = true;
      std::printf("%s\n", r.summary.c_str());
    } else if (r.digest != first_digest) {
      consistent = false;
      r.failed = r.attempted;
      std::printf("round %zu: digest %016" PRIx64 " differs from %016" PRIx64
                  "\n",
                  rounds, r.digest, first_digest);
    }
    totals.walls.push_back(r.wall_s);
    totals.rates.push_back(ratio(r.work, r.wall_s));
    totals.cpu_per_item.push_back(ratio(r.cpu_s * 1e6, r.items));
    for (const double v : r.latencies_us) totals.latencies.add(v);
    if (r.latencies_us.size() >= kRoundQuantileMin) {
      double used_q = 0.0;
      totals.round_p50.push_back(
          capped_quantile_unsorted(r.latencies_us, 0.50, used_q));
      totals.round_p99.push_back(
          capped_quantile_unsorted(r.latencies_us, 0.99, used_q));
    }
    totals.attempted += r.attempted;
    totals.failed += r.failed;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, it
  // rises after the first large free, and whether later large buffers are
  // mapped (and returned on free) or carved from per-thread heaps then
  // depends on the order of earlier frees: peak RSS wandered by 10% from
  // one run to the next on the same input.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const std::size_t nproc =
      std::max(1u, std::thread::hardware_concurrency());
  // Every workload uses all cores: no more threads or connections than
  // nproc, and enough to average out one slow core.
  const std::size_t jobs = nproc;

  std::unique_ptr<Workload> w;
  if (opt.workload == "slotted_day") {
    w = make_slotted_day(jobs);
  } else if (opt.workload == "fleet_city") {
    w = make_fleet_city(jobs);
  } else if (opt.workload == "gateway_replay") {
    w = make_gateway_replay(jobs);
  } else if (opt.workload == "gateway_sync") {
    w = make_gateway_sync(jobs);
  } else {
    usage("unknown workload " + opt.workload);
  }

  const Watchdog watchdog(2.0 * opt.seconds + 60.0);

  // The benchmark is built one fixed way: never -march=native or LTO.
#ifdef ETRAIN_OBS_DISABLED
  const char* obs_disabled = "ON";
#else
  const char* obs_disabled = "OFF";
#endif
  std::printf(
      "fingerprint: cpu=\"%s\" nproc=%zu compiler=\"%s\" build=%s "
      "ETRAIN_NATIVE=OFF ETRAIN_OBS_DISABLED=%s jobs=%zu\n",
      cpu_model().c_str(), nproc, __VERSION__, PERFBENCH_BUILD_TYPE,
      obs_disabled, jobs);
  std::printf("workload %s seed %" PRIu64 " seconds %.3g trace %d\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  // A set-up is input generation plus one warm-up round, timed together as
  // setup_s: pools, allocator and caches settle before the timed rounds,
  // and setup_s is not a few milliseconds of page faults, which wander with
  // the host's load. The traced run records the generation (scenario
  // building lives there for slotted_day), not the warm-up.
  constexpr int kSetups = 7;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = now_ns();
    trace::set_enabled(opt.trace);
    w->setup(opt.seed);
    trace::set_enabled(false);
    (void)w->run_round();
    setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }

  RunTotals untraced;
  RunTotals traced;
  std::uint64_t digest = 0;
  bool have_digest = false;
  bool consistent = true;
  LayerValues extra;
  trace::Totals totals;
  double select_calls_per_round = 0.0;
  if (!opt.trace) {
    run_rounds(*w, opt.seconds, 3, untraced, digest, have_digest, consistent);
  } else {
    run_rounds(*w, opt.seconds / 2, 2, untraced, digest, have_digest,
               consistent);
    trace::set_enabled(true);
    run_rounds(*w, opt.seconds / 2, 2, traced, digest, have_digest,
               consistent);
    // Before layer_values: its probes call select too.
    select_calls_per_round =
        ratio(static_cast<double>(
                  trace::collect().spans[static_cast<int>(SpanName::kSelect)]
                      .count),
              static_cast<double>(traced.rates.size()));
    w->layer_values(extra);
    trace::set_enabled(false);
    totals = trace::collect();
    if (!opt.spans_path.empty() && !trace::write_chrome_trace(opt.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.spans_path.c_str());
    }
  }

  bool correct = consistent;
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, digest);
  std::printf("digest %s", digest_hex);
  if (!opt.expect_digest.empty()) {
    const bool match = opt.expect_digest == digest_hex;
    std::printf(" (pinned %s: %s)", opt.expect_digest.c_str(),
                match ? "match" : "MISMATCH");
    if (!match) {
      correct = false;
      untraced.failed = untraced.attempted;
      traced.failed = traced.attempted;
    }
  }
  std::printf("\n");

  const std::uint64_t attempted = untraced.attempted + traced.attempted;
  const std::uint64_t failed = untraced.failed + traced.failed;
  if (failed != 0) correct = false;

  std::vector<Metric> metrics;
  if (!opt.trace) {
    const double n_rounds = static_cast<double>(untraced.rates.size());
    const bool per_round = untraced.round_p50.size() == untraced.rates.size();
    const std::vector<double> latencies = untraced.latencies.sorted();
    double q50 = 0.0, q99 = 0.0;
    double p50 = capped_quantile(latencies, 0.50, q50);
    double p99 = capped_quantile(latencies, 0.99, q99);
    double n_lat = static_cast<double>(latencies.size());
    if (per_round) {
      p50 = median(untraced.round_p50);
      p99 = median(untraced.round_p99);
      n_lat = n_rounds;
    }
    metrics = {
        {"setup_s", median(setups), "s", static_cast<double>(kSetups)},
        {"peak_rss_mb", peak_rss_mb(), "MiB", 1.0},
        {"rate_per_s", median(untraced.rates), "1/s", n_rounds},
        {"cpu_us_per_item", median(untraced.cpu_per_item), "us", n_rounds},
        {"latency_p50_us", p50, "us", n_lat},
        {"latency_p99_us", p99, "us", n_lat},
    };
    std::printf("rate_per_s is %s per second; cpu_us_per_item is CPU us per "
                "%s; latencies are per %s (",
                w->work_unit(), w->item_unit(), w->latency_unit());
    if (per_round) {
      std::printf("medians over %zu rounds of each round's p50 and p99)\n",
                  untraced.rates.size());
    } else {
      std::printf("p%.4g and p%.4g of %zu sampled from %" PRIu64 ")\n",
                  100 * q50, 100 * q99, latencies.size(),
                  untraced.latencies.seen());
    }
  } else {
    const double overhead =
        ratio(median(traced.walls), median(untraced.walls)) - 1.0;
    metrics = layer_metrics(totals, extra, overhead, select_calls_per_round);
  }
  const std::map<std::string, std::string> names =
      opt.trace ? std::map<std::string, std::string>{} : w->metric_names();
  std::printf("%-40s %22s %-6s %-8s %s\n", "metric", "value", "unit", "count",
              "also known as");
  for (const Metric& m : metrics) {
    const auto alias = names.find(m.name);
    std::printf("%-40s %22.6f %-6s %-8.0f %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.count,
                alias == names.end() ? "" : alias->second.c_str());
  }
  std::printf("attempted %" PRIu64 " failed %" PRIu64 " correct %s\n",
              attempted, failed, correct ? "yes" : "no");
  print_result(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return 0;
}
