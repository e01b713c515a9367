// gateway_replay: shards' work at production rhythm, free of sockets. A
// seeded long-lived script (heartbeats every 20-40 s, cargo every ~40 s
// with 10-120 s deadlines over three cost profiles) is encoded to wire
// frames in set-up. A round replays each shard's script through
// FrameReader and decode_* into ClientSessions sharing the shard's one
// VirtualClock, then bills every session with one gateway::fold_shards
// over all shards. The per-frame calls are those of
// GatewayShard::dispatch_frames and close_connection; the shard's own
// bookkeeping around them (flight recorder, live counters, the per-ACK
// latency histogram, socket writes) is not replayed. Shards outnumber the
// `jobs` pool threads, so a slow core stretches the round by one shard,
// not by a quarter of it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/registry.h"
#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "gateway/fold.h"
#include "gateway/session.h"
#include "sim/clock.h"
#include "sim/simulator.h"
#include "system/protocol.h"

namespace perfbench {

namespace {

using namespace etrain;
namespace wire = etrain::system::wire;

constexpr int kShards = 16;
constexpr int kClientsPerShard = 250;
constexpr Duration kDuration = 900.0;
constexpr std::uint32_t kTrainApp = 1;
constexpr std::uint32_t kFirstCargoApp = 100;
constexpr std::uint64_t kStreamScript = 0x5c819;
/// The traced run asks a session's monitor for its predicted departures
/// on every kPredictStride-th frame.
constexpr std::uint64_t kPredictStride = 64;

/// One scripted frame: clock time, client (shard-local), and its bytes in
/// the shard's blob.
struct ScriptEvent {
  double t = 0.0;
  std::uint32_t client = 0;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
};

struct ShardScript {
  std::string blob;
  std::vector<ScriptEvent> events;
  std::uint64_t heartbeats = 0;
  std::uint64_t cargo = 0;
};

/// What replaying one shard's script produced.
struct ShardRun {
  gateway::ShardContribution contribution;
  std::vector<double> latencies_us;
  std::uint64_t frames = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t acks = 0;
  double ack_latency_s = 0.0;
  std::uint64_t sim_events = 0;
};

struct Client {
  wire::FrameReader reader;
  std::unique_ptr<gateway::ClientSession> session;
  /// ACK bytes the session produced since the last frame (what the shard
  /// would write to the socket).
  std::string outbox;
  std::uint64_t acks = 0;
  double ack_latency_s = 0.0;
};

ShardScript make_script(std::uint64_t seed, int shard) {
  ShardScript script;
  const auto add = [&script](double t, int client, const std::string& bytes) {
    script.events.push_back(
        ScriptEvent{t, static_cast<std::uint32_t>(client),
                    static_cast<std::uint32_t>(script.blob.size()),
                    static_cast<std::uint32_t>(bytes.size())});
    script.blob += bytes;
  };
  for (int c = 0; c < kClientsPerShard; ++c) {
    const auto id =
        static_cast<std::uint64_t>(shard) * kClientsPerShard +
        static_cast<std::uint64_t>(c);
    Rng rng(derive_seed(seed, kStreamScript, id));
    wire::HelloFrame hello;
    hello.client_id = id;
    hello.train_apps.push_back(kTrainApp);
    for (std::uint32_t a = 0; a < 3; ++a) {
      hello.cargo_apps.push_back(wire::CargoAppSpec{
          kFirstCargoApp + a, static_cast<wire::ProfileCode>(a)});
    }
    add(0.0, c, wire::encode_hello(hello));

    const double period = rng.uniform(20.0, 40.0);
    std::uint32_t seq = 0;
    for (double t = rng.uniform(0.0, period); t < kDuration; t += period) {
      add(t, c, wire::encode_heartbeat(wire::HeartbeatFrame{kTrainApp, seq++}));
      ++script.heartbeats;
    }
    std::uint64_t packet = 0;
    for (double t = rng.exponential_mean(40.0); t < kDuration;
         t += rng.exponential_mean(40.0)) {
      wire::CargoFrame cargo;
      cargo.cargo_app =
          kFirstCargoApp + static_cast<std::uint32_t>(rng.uniform_int(0, 2));
      cargo.packet_id = (id << 20) | packet++;
      cargo.bytes = static_cast<std::uint64_t>(rng.uniform_int(500, 50000));
      cargo.deadline_s = rng.uniform(10.0, 120.0);
      add(t, c, wire::encode_cargo(cargo));
      ++script.cargo;
    }
    add(kDuration, c, wire::encode_bye());
  }
  std::stable_sort(script.events.begin(), script.events.end(),
                   [](const ScriptEvent& a, const ScriptEvent& b) {
                     return a.t < b.t;
                   });
  return script;
}

/// Decodes one frame and makes the session calls GatewayShard makes for it,
/// without the shard's flight recorder, live counters and latency
/// histogram. False on a protocol error.
bool dispatch(Client& client, const wire::Frame& frame, TimePoint t,
              const core::PolicyRegistry& registry,
              const gateway::SessionConfig& config, sim::Clock& clock,
              gateway::ShardContribution& shard) {
  switch (frame.type) {
    case wire::FrameType::kHello: {
      wire::HelloFrame hello;
      {
        trace::Scope decode(SpanName::kWireDecode);
        if (!wire::decode_hello(frame.payload, hello)) return false;
      }
      if (client.session) return false;
      trace::Scope ctor(SpanName::kSessionCtor);
      Client* owner = &client;
      client.session = std::make_unique<gateway::ClientSession>(
          hello, registry, config, clock,
          [owner](const gateway::ScheduledPacket& packet) {
            trace::Scope encode(SpanName::kWireEncodeAck);
            wire::AckFrame ack;
            ack.packet_id = packet.packet_id;
            ack.latency_s = packet.latency();
            ack.boarded = packet.piggybacked ? 1 : 0;
            owner->outbox += wire::encode_ack(ack);
            owner->acks += 1;
            owner->ack_latency_s += ack.latency_s;
          });
      ++shard.io.clients_accepted;
      return true;
    }
    case wire::FrameType::kHeartbeat: {
      wire::HeartbeatFrame hb;
      {
        trace::Scope decode(SpanName::kWireDecode);
        if (!wire::decode_heartbeat(frame.payload, hb)) return false;
      }
      if (!client.session) return false;
      trace::Scope span(SpanName::kSessionHeartbeat);
      return client.session->on_heartbeat(hb.train_app, t);
    }
    case wire::FrameType::kCargo: {
      wire::CargoFrame cargo;
      {
        trace::Scope decode(SpanName::kWireDecode);
        if (!wire::decode_cargo(frame.payload, cargo)) return false;
      }
      if (!client.session) return false;
      trace::Scope span(SpanName::kSessionCargo);
      return client.session->on_cargo(cargo, t);
    }
    case wire::FrameType::kBye: {
      if (!client.session || !frame.payload.empty()) return false;
      client.session->flush(t);
      gateway::SessionFoldRecord record;
      record.client_id = client.session->client_id();
      record.seq = shard.records.size();
      record.counters = client.session->counters();
      record.horizon = client.session->energy_horizon(t);
      record.log = client.session->release_log();
      shard.records.push_back(std::move(record));
      ++shard.io.clients_disconnected;
      client.session.reset();
      return true;
    }
    case wire::FrameType::kAck:
      return false;  // clients never send ACK
  }
  return false;
}

/// Replays one shard's script on its own simulator.
ShardRun replay(const ShardScript& script, const core::PolicyRegistry& registry,
                const gateway::SessionConfig& config) {
  ShardRun out;
  out.latencies_us.reserve(script.events.size());
  sim::Simulator simulator;
  sim::VirtualClock clock(simulator);
  std::vector<Client> clients(kClientsPerShard);
  std::vector<TimePoint> departures;
  const std::string_view blob(script.blob);
  wire::Frame frame;
  for (const ScriptEvent& e : script.events) {
    const std::int64_t start = now_ns();
    {
      trace::Scope tick(SpanName::kSessionTick);
      const std::uint64_t before = simulator.events_executed();
      simulator.run_until(e.t);
      trace::count(CounterName::kSimEvents,
                   simulator.events_executed() - before);
    }
    Client& client = clients[e.client];
    client.outbox.clear();
    client.reader.feed(blob.substr(e.offset, e.length));
    bool ok = true;
    while (true) {
      wire::FrameReader::Status status;
      {
        trace::Scope decode(SpanName::kWireDecode);
        status = client.reader.next(frame);
      }
      if (status != wire::FrameReader::Status::kFrame) {
        ok = ok && status == wire::FrameReader::Status::kNeedMore;
        break;
      }
      ++out.frames;
      trace::count(CounterName::kFrames);
      ok = ok && dispatch(client, frame, e.t, registry, config, clock,
                          out.contribution);
    }
    if (!ok) ++out.bad_frames;
    if (trace::enabled() && out.frames % kPredictStride == 0 &&
        client.session) {
      trace::Scope predict(SpanName::kMonitorPredict);
      client.session->monitor().predict_departures(
          e.t, e.t + config.prediction_horizon, departures);
      trace::count(CounterName::kDepartures, departures.size());
    }
    out.latencies_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  for (const Client& c : clients) {
    out.acks += c.acks;
    out.ack_latency_s += c.ack_latency_s;
  }
  out.sim_events = simulator.events_executed();
  return out;
}

class GatewayReplay final : public Workload {
 public:
  explicit GatewayReplay(std::size_t jobs) : jobs_(jobs) {}

  const char* work_unit() const override { return "client-seconds"; }
  const char* item_unit() const override { return "frame"; }
  const char* latency_unit() const override {
    return "frame (due ticks + decode + session call)";
  }
  std::map<std::string, std::string> metric_names() const override {
    return {{"rate_per_s", "client_seconds_per_s"}};
  }

  void setup(std::uint64_t seed) override {
    scripts_.clear();
    std::vector<int> shards(kShards);
    for (int s = 0; s < kShards; ++s) shards[s] = s;
    scripts_ = parallel_map(
        shards, [seed](int shard) { return make_script(seed, shard); }, jobs_);
    heartbeat_frames_ = 0;
    cargo_frames_ = 0;
    for (const ShardScript& s : scripts_) {
      heartbeat_frames_ += s.heartbeats;
      cargo_frames_ += s.cargo;
    }
  }

  RoundResult run_round() override {
    const bool traced = trace::enabled();
    const core::PolicyRegistry& registry =
        traced ? traced_registry() : baselines::builtin_registry();
    const gateway::SessionConfig config;
    RoundResult r;
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    std::vector<ShardRun> runs = parallel_map(
        scripts_,
        [&registry, &config](const ShardScript& script) {
          return replay(script, registry, config);
        },
        jobs_);
    std::vector<gateway::ShardContribution> contributions;
    std::uint64_t acks = 0;
    double ack_latency = 0.0;
    std::uint64_t sim_events = 0;
    for (ShardRun& run : runs) {
      contributions.push_back(std::move(run.contribution));
      r.latencies_us.insert(r.latencies_us.end(), run.latencies_us.begin(),
                            run.latencies_us.end());
      r.attempted += run.frames;
      r.failed += run.bad_frames;
      acks += run.acks;
      ack_latency += run.ack_latency_s;
      sim_events += run.sim_events;
    }
    gateway::GatewayFold fold;
    {
      trace::Scope span(SpanName::kGatewayFold);
      fold = gateway::fold_shards(std::move(contributions), config.model);
    }
    r.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    r.cpu_s = process_cpu_s() - cpu0;
    r.work = static_cast<double>(kShards * kClientsPerShard) * kDuration;
    r.items = static_cast<double>(r.attempted);
    if (traced) {
      dripped_ += fold.stats.packets_dripped;
      ticks_ += sim_events;
    }

    // Fold totals, the exact packet partition, one ACK per packet, and the
    // ledger re-billing the summed session meters.
    const gateway::GatewayStats& s = fold.stats;
    const std::uint64_t clients = kShards * kClientsPerShard;
    const bool ok =
        s.clients_accepted == clients && s.clients_disconnected == clients &&
        s.protocol_errors == 0 && s.heartbeats == heartbeat_frames_ &&
        s.packets_enqueued == cargo_frames_ &&
        s.packets_enqueued ==
            s.packets_piggybacked + s.packets_dripped + s.packets_flushed &&
        acks == s.packets_enqueued &&
        std::abs(fold.ledger.total() - s.meter_total_J) <=
            1e-9 * static_cast<double>(clients);
    if (!ok) r.failed = r.attempted;

    Digest d;
    for (const std::uint64_t v :
         {s.clients_accepted, s.heartbeats, s.packets_enqueued,
          s.packets_piggybacked, s.packets_dripped, s.packets_flushed,
          s.transmissions, acks}) {
      d.add(v);
    }
    d.add(s.meter_total_J);
    d.add(ack_latency);
    for (const obs::LedgerRow& row : fold.ledger.rows) {
      d.add(static_cast<std::uint64_t>(row.kind));
      d.add(static_cast<std::uint64_t>(row.app));
      d.add(row.total());
    }
    r.digest = d.value();

    char line[360];
    std::snprintf(
        line, sizeof line,
        "gateway_replay: %d shards x %d clients x %.0f clock s on %zu jobs, "
        "%llu frames, %llu simulator events; heartbeats %llu, cargo %llu = "
        "piggybacked %llu + dripped %llu + flushed %llu, meter %.3f J, "
        "checks %s",
        kShards, kClientsPerShard, kDuration, jobs_,
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(sim_events),
        static_cast<unsigned long long>(s.heartbeats),
        static_cast<unsigned long long>(s.packets_enqueued),
        static_cast<unsigned long long>(s.packets_piggybacked),
        static_cast<unsigned long long>(s.packets_dripped),
        static_cast<unsigned long long>(s.packets_flushed), s.meter_total_J,
        ok ? "ok" : "FAILED");
    r.summary = line;
    return r;
  }

  void layer_values(LayerValues& out) override {
    out["gateway.session.drip_frac"] =
        ticks_ == 0 ? 0.0
                    : static_cast<double>(dripped_) / static_cast<double>(ticks_);
    out["gateway.session.drip_frac#count"] = static_cast<double>(ticks_);
  }

 private:
  std::size_t jobs_;
  std::vector<ShardScript> scripts_;
  std::uint64_t heartbeat_frames_ = 0;
  std::uint64_t cargo_frames_ = 0;
  std::uint64_t dripped_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_gateway_replay(std::size_t jobs) {
  return std::make_unique<GatewayReplay>(jobs);
}

}  // namespace perfbench
