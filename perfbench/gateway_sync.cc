// gateway_sync: the live serving path. A fresh 1-shard Gateway per round
// runs on a benchmark-owned thread at time scale 1; one generator thread
// drives up to four closed-loop client slots over loopback TCP. Each slot
// repeats connect -> HELLO + B cargo + 1 heartbeat in one send -> B ACKs ->
// BYE -> the gateway's close, with B seeded in 1..16. One heartbeat per
// session means no tick ever fires, so the per-frame work does not depend
// on how fast the gateway runs.
#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "bench.h"
#include "common/rng.h"
#include "gateway/gateway.h"
#include "system/protocol.h"

namespace perfbench {

namespace {

using namespace etrain;
namespace wire = etrain::system::wire;

constexpr int kSessions = 3000;
constexpr int kMaxSlots = 4;
constexpr int kMaxBatch = 16;
constexpr std::uint32_t kTrainApp = 1;
constexpr std::uint32_t kCargoApp = 100;
constexpr std::uint64_t kStreamBatches = 0x5e55;
/// Wall-clock budget of one round; a round that overruns it closes its
/// slots and counts every unfinished session as failed.
constexpr double kRoundBudgetS = 30.0;

struct Request {
  std::string bytes;  ///< HELLO + B CARGO + 1 HEARTBEAT
  int batch = 0;
};

/// utime/stime of one thread of this process, seconds.
struct ThreadTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};

ThreadTimes read_thread_times(long tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  std::getline(in, line);
  const auto paren = line.rfind(')');
  ThreadTimes t;
  if (paren == std::string::npos) return t;
  std::istringstream fields(line.substr(paren + 2));
  std::string field;
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  // Fields after "(comm)" start at field 3 (state); utime is 14, stime 15.
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) t.user_s = std::strtod(field.c_str(), nullptr) / hz;
    if (i == 15) t.sys_s = std::strtod(field.c_str(), nullptr) / hz;
  }
  return t;
}

/// One closed-loop client slot.
struct Slot {
  int fd = -1;
  int session = -1;
  std::int64_t start_ns = 0;    ///< connect start
  std::int64_t request_ns = 0;  ///< request sent
  int acks = 0;
  bool bye_sent = false;
  wire::FrameReader reader;
};

struct DriveResult {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t frames = 0;
  std::vector<double> latencies_us;
};

/// Runs sessions [0, count) of `requests` against the gateway on `port`
/// from `slot_count` closed-loop slots on the calling thread.
DriveResult drive(int port, const std::vector<Request>& requests, int count,
                  int slot_count) {
  DriveResult out;
  out.latencies_us.reserve(static_cast<std::size_t>(count));
  const std::string bye = wire::encode_bye();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));

  const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd < 0) {
    out.failed = static_cast<std::uint64_t>(count);
    return out;
  }
  std::vector<Slot> slots(static_cast<std::size_t>(slot_count));
  int next = 0;
  int active = 0;

  const auto close_slot = [&](Slot& s) {
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, s.fd, nullptr);
    ::close(s.fd);
    s.fd = -1;
    s.session = -1;
    --active;
  };
  // Starts the slot's next session; a refused connect or a failed send
  // counts as a failed session and the slot moves on.
  const auto start_next = [&](std::size_t index) {
    Slot& s = slots[index];
    while (next < count) {
      const int session = next++;
      s = Slot{};
      s.session = session;
      s.start_ns = now_ns();
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) {
        ++out.failed;
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      int rc = 0;
      {
        trace::Scope span(SpanName::kConnect);
        rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof addr);
      }
      const std::string& bytes =
          requests[static_cast<std::size_t>(session)].bytes;
      s.request_ns = now_ns();
      if (rc != 0 || ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) !=
                         static_cast<ssize_t>(bytes.size())) {
        ::close(fd);
        ++out.failed;
        continue;
      }
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = index;
      if (::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        ++out.failed;
        continue;
      }
      s.fd = fd;
      ++active;
      return;
    }
  };
  const auto fail_and_restart = [&](std::size_t index) {
    ++out.failed;
    close_slot(slots[index]);
    start_next(index);
  };

  // Reads everything the gateway sent: ACKs until the batch is complete
  // (then BYE), and finally the gateway's close.
  const auto on_readable = [&](std::size_t index) {
    Slot& s = slots[index];
    const int batch = requests[static_cast<std::size_t>(s.session)].batch;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(s.fd, buf, sizeof buf, 0);
      if (n > 0) {
        trace::count(CounterName::kAckRecvs);
        s.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        wire::Frame frame;
        while (true) {
          wire::FrameReader::Status status;
          wire::AckFrame ack;
          bool decoded = false;
          {
            // The generator's own decoding, not the gateway's: it costs
            // generator time only.
            trace::Scope span(SpanName::kAckDecode);
            status = s.reader.next(frame);
            decoded = status == wire::FrameReader::Status::kFrame &&
                      frame.type == wire::FrameType::kAck &&
                      wire::decode_ack(frame.payload, ack);
          }
          if (status == wire::FrameReader::Status::kNeedMore) break;
          const bool ours =
              decoded && ack.packet_id >> 8 ==
                             static_cast<std::uint64_t>(s.session) &&
              ack.boarded == 1;
          if (!ours || ++s.acks > batch) {
            fail_and_restart(index);
            return;
          }
          trace::count(CounterName::kAcks);
        }
        if (s.acks == batch && !s.bye_sent) {
          const std::int64_t done = now_ns();
          out.latencies_us.push_back(static_cast<double>(done - s.start_ns) /
                                     1e3);
          trace::record(SpanName::kRequest, s.request_ns, done);
          s.bye_sent = true;
          if (::send(s.fd, bye.data(), bye.size(), MSG_NOSIGNAL) !=
              static_cast<ssize_t>(bye.size())) {
            fail_and_restart(index);
            return;
          }
        }
        continue;
      }
      if (n == 0) {  // the gateway closed: the session is folded
        if (s.bye_sent) {
          ++out.completed;
          out.frames += static_cast<std::uint64_t>(batch) + 3;
          close_slot(s);
          start_next(index);
        } else {
          fail_and_restart(index);  // missing ACKs
        }
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      fail_and_restart(index);
      return;
    }
  };

  for (std::size_t i = 0; i < slots.size(); ++i) start_next(i);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(kRoundBudgetS * 1e9);
  epoll_event events[kMaxSlots];
  while (active > 0) {
    const int n = ::epoll_wait(epfd, events, kMaxSlots, 100);
    if (now_ns() > deadline) {
      std::fprintf(stderr, "gateway_sync: round over its %.0f s budget\n",
                   kRoundBudgetS);
      for (Slot& s : slots) {
        if (s.fd >= 0) {
          ++out.failed;
          close_slot(s);
        }
      }
      out.failed += static_cast<std::uint64_t>(count - next);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const auto index = static_cast<std::size_t>(events[i].data.u64);
      if (slots[index].fd >= 0) on_readable(index);
    }
  }
  ::close(epfd);
  return out;
}

class GatewaySync final : public Workload {
 public:
  explicit GatewaySync(std::size_t jobs)
      : slots_(static_cast<int>(std::min<std::size_t>(kMaxSlots, jobs))) {}

  const char* work_unit() const override { return "sessions"; }
  const char* item_unit() const override {
    return "client frame (gateway-thread CPU)";
  }
  const char* latency_unit() const override {
    return "session (connect start to last ACK)";
  }
  std::map<std::string, std::string> metric_names() const override {
    return {{"rate_per_s", "sessions_per_s"},
            {"cpu_us_per_item", "cpu_us_per_frame"},
            {"latency_p50_us", "sync_p50_us"},
            {"latency_p99_us", "sync_p99_us"}};
  }

  void setup(std::uint64_t seed) override {
    requests_.clear();
    requests_.shrink_to_fit();
    Rng rng(derive_seed(seed, kStreamBatches));
    for (int i = 0; i < kSessions; ++i) {
      Request req;
      req.batch = static_cast<int>(rng.uniform_int(1, kMaxBatch));
      wire::HelloFrame hello;
      hello.client_id = static_cast<std::uint64_t>(i);
      hello.cargo_apps.push_back(
          wire::CargoAppSpec{kCargoApp, static_cast<wire::ProfileCode>(i % 3)});
      hello.train_apps.push_back(kTrainApp);
      req.bytes = wire::encode_hello(hello);
      for (int j = 0; j < req.batch; ++j) {
        wire::CargoFrame cargo;
        cargo.cargo_app = kCargoApp;
        cargo.packet_id = (static_cast<std::uint64_t>(i) << 8) |
                          static_cast<std::uint64_t>(j);
        cargo.bytes = static_cast<std::uint64_t>(rng.uniform_int(500, 5000));
        cargo.deadline_s = rng.uniform(10.0, 120.0);
        req.bytes += wire::encode_cargo(cargo);
      }
      req.bytes += wire::encode_heartbeat(wire::HeartbeatFrame{kTrainApp, 0});
      requests_.push_back(std::move(req));
    }
  }

  RoundResult run_round() override { return run_sessions(kSessions); }

  void layer_values(LayerValues& out) override {
    const auto per = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    out["gateway.thread.user_us_per_frame"] = per(user_s_ * 1e6, frames_);
    out["gateway.thread.sys_us_per_frame"] = per(sys_s_ * 1e6, frames_);
    out["gateway.thread.busy_frac"] = per(gateway_cpu_s_, drive_s_);
    out["loadgen.busy_frac"] = per(generator_cpu_s_, drive_s_);
    std::vector<double> rss = rss_kb_per_session_;
    std::sort(rss.begin(), rss.end());
    out["gateway.rss_kb_per_closed_session"] =
        rss.empty() ? 0.0 : rss[rss.size() / 2];
    for (const char* name :
         {"gateway.thread.user_us_per_frame", "gateway.thread.sys_us_per_frame",
          "gateway.thread.busy_frac", "loadgen.busy_frac"}) {
      out[std::string(name) + "#count"] = frames_;
    }
    out["gateway.rss_kb_per_closed_session#count"] =
        static_cast<double>(rss.size());
  }

 private:
  RoundResult run_sessions(int count) {
    const bool traced = trace::enabled();
    const core::PolicyRegistry& registry =
        traced ? traced_registry() : baselines::builtin_registry();
    gateway::GatewayConfig config;
    config.time_scale = 1.0;
    config.shards = 1;
    config.stats_port = -1;
    // Never trip the tick-lag watchdog (it would dump a flight recorder
    // file); no tick is ever due in this workload anyway.
    config.watchdog_budget_s = 1e9;
    gateway::Gateway gw(registry, config);
    const int port = gw.open();

    std::atomic<long> tid{0};
    std::exception_ptr gateway_error;
    std::thread server([&] {
      tid.store(static_cast<long>(::syscall(SYS_gettid)));
      try {
        gw.run();
      } catch (...) {
        gateway_error = std::current_exception();
      }
    });
    while (tid.load() == 0) std::this_thread::yield();
    clockid_t gateway_clock{};
    pthread_getcpuclockid(server.native_handle(), &gateway_clock);

    if (traced) malloc_trim(0);
    const double rss0 = current_rss_kb();
    const ThreadTimes times0 = read_thread_times(tid.load());
    const double gateway_cpu0 = clock_seconds(gateway_clock);
    const double generator_cpu0 = thread_cpu_s();
    const std::int64_t t0 = now_ns();
    DriveResult d = drive(port, requests_, count, slots_);
    const std::int64_t t1 = now_ns();
    const double generator_cpu = thread_cpu_s() - generator_cpu0;
    const double gateway_cpu = clock_seconds(gateway_clock) - gateway_cpu0;
    const ThreadTimes times1 = read_thread_times(tid.load());
    const double rss1 = current_rss_kb();
    {
      trace::Scope span(SpanName::kGatewayFold);
      gw.request_stop();
      server.join();
    }

    RoundResult r;
    r.wall_s = static_cast<double>(t1 - t0) / 1e9;
    r.work = static_cast<double>(d.completed);
    r.cpu_s = gateway_cpu;
    r.items = static_cast<double>(d.frames);
    r.latencies_us = std::move(d.latencies_us);
    r.attempted = static_cast<std::uint64_t>(count);
    r.failed = d.failed;
    if (traced) {
      user_s_ += times1.user_s - times0.user_s;
      sys_s_ += times1.sys_s - times0.sys_s;
      frames_ += static_cast<double>(d.frames);
      gateway_cpu_s_ += gateway_cpu;
      generator_cpu_s_ += generator_cpu;
      drive_s_ += r.wall_s;
      if (d.completed > 0) {
        rss_kb_per_session_.push_back((rss1 - rss0) /
                                      static_cast<double>(d.completed));
      }
    }

    // Exact GatewayStats: one heartbeat per session, every cargo boarded
    // it, nothing dripped or flushed, no protocol errors.
    const gateway::GatewayStats& s = gw.stats();
    const auto n = static_cast<std::uint64_t>(count);
    std::uint64_t batch_total = 0;
    for (int i = 0; i < count; ++i) {
      batch_total += static_cast<std::uint64_t>(
          requests_[static_cast<std::size_t>(i)].batch);
    }
    const bool ok =
        !gateway_error && d.completed == n && s.clients_accepted == n &&
        s.clients_disconnected == n && s.clients_at_shutdown == 0 &&
        s.protocol_errors == 0 && s.heartbeats == n &&
        s.packets_enqueued == batch_total &&
        s.packets_piggybacked == batch_total && s.packets_dripped == 0 &&
        s.packets_flushed == 0 && s.transmissions == n + batch_total &&
        std::abs(gw.ledger().total() - s.meter_total_J) <=
            1e-9 * std::max(1.0, static_cast<double>(n));
    if (!ok) r.failed = r.attempted;
    Digest digest;
    for (const std::uint64_t v :
         {s.clients_accepted, s.clients_disconnected, s.heartbeats,
          s.packets_enqueued, s.packets_piggybacked, s.packets_dripped,
          s.packets_flushed, s.protocol_errors, s.transmissions}) {
      digest.add(v);
    }
    r.digest = digest.value();

    char line[320];
    std::snprintf(
        line, sizeof line,
        "gateway_sync: %d sessions from %d slots, %llu completed, %llu "
        "client frames; accepted %llu, heartbeats %llu, cargo %llu = "
        "piggybacked %llu, protocol errors %llu, checks %s",
        count, slots_, static_cast<unsigned long long>(d.completed),
        static_cast<unsigned long long>(d.frames),
        static_cast<unsigned long long>(s.clients_accepted),
        static_cast<unsigned long long>(s.heartbeats),
        static_cast<unsigned long long>(s.packets_enqueued),
        static_cast<unsigned long long>(s.packets_piggybacked),
        static_cast<unsigned long long>(s.protocol_errors),
        ok ? "ok" : "FAILED");
    r.summary = line;
    return r;
  }

  int slots_;
  std::vector<Request> requests_;
  double user_s_ = 0.0;
  double sys_s_ = 0.0;
  double frames_ = 0.0;
  double gateway_cpu_s_ = 0.0;
  double generator_cpu_s_ = 0.0;
  double drive_s_ = 0.0;
  std::vector<double> rss_kb_per_session_;
};

}  // namespace

std::unique_ptr<Workload> make_gateway_sync(std::size_t jobs) {
  return std::make_unique<GatewaySync>(jobs);
}

}  // namespace perfbench
