#include "bench.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>

#include "baselines/registry.h"
#include "common/parallel.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_s() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(const std::string& s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  add(static_cast<std::uint64_t>(s.size()));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  return etrain::task_seed(etrain::splitmix64(seed ^ stream), index);
}

const char* span_label(SpanName name) {
  switch (name) {
    case SpanName::kScenarioBuild: return "exp.scenario.build";
    case SpanName::kBandwidthTrace: return "net.bandwidth.trace";
    case SpanName::kWorkloadGenerate: return "apps.workload.generate";
    case SpanName::kTrainSchedule: return "apps.train_schedule.build";
    case SpanName::kRunSlotted: return "exp.run_slotted";
    case SpanName::kSelect: return "core.select";
    case SpanName::kQueuesCost: return "core.queues.pt";
    case SpanName::kMeter: return "radio.meter";
    case SpanName::kLedger: return "obs.ledger";
    case SpanName::kFleetRun: return "exp.fleet.run";
    case SpanName::kWireDecode: return "system.wire.decode";
    case SpanName::kWireEncodeAck: return "system.wire.encode_ack";
    case SpanName::kSessionCtor: return "gateway.session.ctor";
    case SpanName::kSessionCargo: return "gateway.session.cargo";
    case SpanName::kSessionHeartbeat: return "gateway.session.heartbeat";
    case SpanName::kSessionTick: return "gateway.session.tick";
    case SpanName::kMonitorPredict: return "android.monitor.predict";
    case SpanName::kGatewayFold: return "gateway.fold";
    case SpanName::kConnect: return "loadgen.connect";
    case SpanName::kRequest: return "loadgen.request";
    case SpanName::kAckDecode: return "loadgen.ack_decode";
    case SpanName::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------- tracer --

namespace trace {

namespace {

constexpr std::uint32_t kNoParent = 0xffffffffu;
/// Raw spans kept for the Chrome trace, across all threads (the first
/// ones recorded); aggregates keep counting past the cap.
constexpr std::uint64_t kRawCap = std::uint64_t{1} << 17;
std::atomic<std::uint64_t> g_raw_kept{0};

/// Claims one slot of the raw-span budget.
bool keep_raw() {
  return g_raw_kept.load(std::memory_order_relaxed) < kRawCap &&
         g_raw_kept.fetch_add(1, std::memory_order_relaxed) < kRawCap;
}

struct RawSpan {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint32_t parent = kNoParent;
  SpanName name = SpanName::kScenarioBuild;
};

struct OpenSpan {
  std::int64_t start = 0;
  std::int64_t child_ns = 0;
  std::uint32_t raw = kNoParent;
  SpanName name = SpanName::kScenarioBuild;
};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::thread::id owner;
  std::vector<RawSpan> raw;
  std::vector<OpenSpan> stack;
  Aggregate agg[static_cast<int>(SpanName::kCount)];
  std::uint64_t counters[static_cast<int>(CounterName::kCount)] = {};
  std::int64_t first = 0;
  std::int64_t last = 0;
  std::uint64_t recorded = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mutex
std::thread::id g_main_thread;                         // guarded by g_mutex
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->tid = static_cast<std::uint32_t>(g_buffers.size());
    t_buffer->owner = std::this_thread::get_id();
  }
  return *t_buffer;
}

}  // namespace

void set_enabled(bool on) {
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_main_thread = std::this_thread::get_id();
  }
  g_enabled.store(on);
}
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(SpanName name) : active_(enabled()) {
  if (!active_) return;
  ThreadBuffer& b = buffer();
  OpenSpan open;
  open.name = name;
  if (keep_raw()) {
    open.raw = static_cast<std::uint32_t>(b.raw.size());
    RawSpan raw;
    raw.name = name;
    raw.parent = b.stack.empty() ? kNoParent : b.stack.back().raw;
    b.raw.push_back(raw);
  }
  open.start = now_ns();
  if (open.raw != kNoParent) b.raw[open.raw].start = open.start;
  b.stack.push_back(open);
}

namespace {

/// Charges a closed span to its name's aggregate, its parent's child time
/// and the thread's extent.
void close_span(ThreadBuffer& b, const OpenSpan& open, std::int64_t end) {
  const std::int64_t duration = end - open.start;
  Aggregate& agg = b.agg[static_cast<int>(open.name)];
  agg.count += 1;
  agg.total_ns += static_cast<double>(duration);
  agg.self_ns += static_cast<double>(duration - open.child_ns);
  if (!b.stack.empty()) b.stack.back().child_ns += duration;
  if (open.raw != kNoParent) b.raw[open.raw].end = end;
  if (b.recorded == 0 || open.start < b.first) b.first = open.start;
  b.last = std::max(b.last, end);
  b.recorded += 1;
}

}  // namespace

Scope::~Scope() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  ThreadBuffer& b = buffer();
  const OpenSpan open = b.stack.back();
  b.stack.pop_back();
  close_span(b, open, end);
}

void record(SpanName name, std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled()) return;
  ThreadBuffer& b = buffer();
  OpenSpan open;
  open.name = name;
  open.start = start_ns;
  if (keep_raw()) {
    open.raw = static_cast<std::uint32_t>(b.raw.size());
    RawSpan raw;
    raw.name = name;
    raw.start = start_ns;
    raw.parent = b.stack.empty() ? kNoParent : b.stack.back().raw;
    b.raw.push_back(raw);
  }
  close_span(b, open, end_ns);
}

void count(CounterName name, std::uint64_t n) {
  if (!enabled()) return;
  buffer().counters[static_cast<int>(name)] += n;
}

Totals collect() {
  Totals totals;
  std::lock_guard<std::mutex> lock(g_mutex);
  for (const auto& b : g_buffers) {
    for (int i = 0; i < static_cast<int>(SpanName::kCount); ++i) {
      const Aggregate& a = b->agg[i];
      if (a.count == 0) continue;
      Aggregate& t = totals.spans[i];
      t.count += a.count;
      t.total_ns += a.total_ns;
      t.self_ns += a.self_ns;
    }
    for (int i = 0; i < static_cast<int>(CounterName::kCount); ++i) {
      totals.counters[i] += b->counters[i];
    }
    if (b->recorded > 0 && b->owner != g_main_thread) {
      totals.thread_extent.emplace_back(b->first, b->last);
    }
  }
  return totals;
}

bool write_chrome_trace(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::int64_t origin = 0;
  bool have_origin = false;
  for (const auto& b : g_buffers) {
    for (const RawSpan& s : b->raw) {
      if (!have_origin || s.start < origin) origin = s.start;
      have_origin = true;
    }
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  char line[256];
  for (const auto& b : g_buffers) {
    for (const RawSpan& s : b->raw) {
      if (s.end == 0) continue;  // still open (never happens after a run)
      const char* parent =
          s.parent == kNoParent ? "" : span_label(b->raw[s.parent].name);
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":\"%s\"}}",
                    first ? "" : ",", span_label(s.name), b->tid,
                    static_cast<double>(s.start - origin) / 1e3,
                    static_cast<double>(s.end - s.start) / 1e3, parent);
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace trace

// ------------------------------------------------------- traced policies --

namespace {

using etrain::core::Selection;
using etrain::core::SlotContext;
using etrain::core::WaitingQueues;

/// Forwarding decorator: times P(t) upkeep and the select kernel of the
/// wrapped policy, and counts the calls that chose something.
class TracedPolicy final : public etrain::core::SchedulingPolicy {
 public:
  explicit TracedPolicy(std::unique_ptr<etrain::core::SchedulingPolicy> inner)
      : inner_(std::move(inner)) {}

  std::vector<Selection> select(const SlotContext& ctx,
                                const WaitingQueues& queues) override {
    std::vector<Selection> out;
    select_into(ctx, queues, out);
    return out;
  }

  void select_into(const SlotContext& ctx, const WaitingQueues& queues,
                   std::vector<Selection>& out) override {
    if (!queues.empty()) {
      trace::Scope pt(SpanName::kQueuesCost);
      (void)queues.instantaneous_cost(ctx.slot_start);
    }
    {
      trace::Scope select(SpanName::kSelect);
      inner_->select_into(ctx, queues, out);
    }
    if (!out.empty()) trace::count(CounterName::kSelectOpen);
  }

  std::string name() const override { return inner_->name(); }
  etrain::Duration preferred_slot_length() const override {
    return inner_->preferred_slot_length();
  }
  void reset() override { inner_->reset(); }
  void bind_interfaces(const std::vector<std::string>& names) override {
    inner_->bind_interfaces(names);
  }

 private:
  std::unique_ptr<etrain::core::SchedulingPolicy> inner_;
};

}  // namespace

const etrain::core::PolicyRegistry& traced_registry() {
  static const etrain::core::PolicyRegistry registry = [] {
    const etrain::core::PolicyRegistry& builtin =
        etrain::baselines::builtin_registry();
    etrain::core::PolicyRegistry wrapped;
    for (const std::string& name : builtin.names()) {
      wrapped.register_policy_raw(
          name, builtin.help(name),
          [&builtin, name](const std::string& tail,
                           const etrain::core::PolicyRegistry&) {
            return std::make_unique<TracedPolicy>(
                builtin.make(tail.empty() ? name : name + ":" + tail));
          });
    }
    return wrapped;
  }();
  return registry;
}

}  // namespace perfbench
