// The three traffic mixes. Each drives real packets, one closed-loop
// round at a time, through the production path:
//
//   client enclave egress batch ecall (Click + seal)
//     -> gateway VpnServer::open_batch -> route -> VpnServer::seal_jobs
//     -> peer enclave ingress batch ecall (open + Click unless bypassed)
//
// and then checks every delivered packet against what was sent.
// Deployments come from the tests' World harness (attestation,
// provisioning, rule compile, config install, handshakes); no traffic
// crosses a link — everything is in-process function calls.
#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"
#include "endbox_world.hpp"

namespace perfbench {
namespace {

using namespace endbox;

constexpr std::size_t kBurst = click::PacketBatch::kMaxBurst;
constexpr std::size_t kSampleCap = 4096;
constexpr std::uint8_t kTcpSyn = 0x02;
constexpr std::uint8_t kTcpAck = 0x10;

/// Random-alphanumeric bytes every payload is sliced from (the
/// evaluation traffic of the paper's section V-B). Community rule
/// contents all contain '_', so no slice of this pool can match one.
Bytes make_alnum_pool(Rng& rng, std::size_t n) {
  static constexpr char kAlnum[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
  Bytes pool(n);
  for (auto& b : pool) b = static_cast<std::uint8_t>(kAlnum[rng.next_u32() % 62]);
  return pool;
}

/// Tunnel address of client i (10.8.0.0/16, like World::benign_packet_from).
net::Ipv4 client_addr(std::size_t i) {
  auto host = static_cast<std::uint32_t>(i + 2);
  return net::Ipv4(10, 8, static_cast<std::uint8_t>(host >> 8),
                   static_cast<std::uint8_t>(host & 0xff));
}

/// Destination address of a serialised IPv4 packet (0 when too short).
std::uint32_t ip_dst(const Bytes& ip) {
  return ip.size() >= net::kIpv4HeaderSize ? get_u32(ip.data() + 16) : 0;
}

bool same_bytes(const Bytes& a, const std::uint8_t* b, std::size_t n) {
  return a.size() == n && (n == 0 || std::memcmp(a.data(), b, n) == 0);
}

/// Runs `call` as one timed stage: wall time, call count, items and —
/// in the traced phase — a span and the heap allocations it made.
template <typename F>
std::pair<std::uint64_t, std::uint64_t> timed(Stage& stage, std::size_t items,
                                              Tracer& tracer, std::uint32_t span,
                                              F&& call) {
  std::int32_t s = tracer.open(span);
  std::uint64_t a0 = tracer.enabled ? allocs_now() : 0;
  std::uint64_t t0 = now_ns();
  call();
  std::uint64_t t1 = now_ns();
  if (tracer.enabled) stage.allocs += allocs_now() - a0;
  tracer.close(s);
  stage.ns += t1 - t0;
  stage.items += items;
  return {t0, t1};
}

/// One deployment: World + per-client handles + gateway scratch.
class Deployment : public Workload {
 public:
  void teardown() override {
    world_.reset();
    enclaves_.clear();
    sessions_.clear();
    by_addr_.clear();
    by_session_.clear();
  }

  void reset_counters() override {
    vpn::VpnServer& vpn = world_->server.vpn();
    vpn.reset_lane_stats();
    starved_base_ = 0;
    for (std::size_t l = 0; l < vpn.session_shard_count(); ++l)
      starved_base_ += vpn.pool_starved(l);
    stream_base_ = stream_totals();
    gw_rejected_ = 0;
  }

  SystemCounters counters() const override {
    SystemCounters c;
    const vpn::VpnServer& vpn = world_->server.vpn();
    std::uint64_t frames_max = 0, frames_sum = 0, starved = 0;
    std::size_t lanes = vpn.session_shard_count();
    for (std::size_t l = 0; l < lanes; ++l) {
      c.ring_peak = std::max(c.ring_peak, vpn.lane_ring_peak(l));
      frames_max = std::max(frames_max, vpn.lane_frames(l));
      frames_sum += vpn.lane_frames(l);
      starved += vpn.pool_starved(l);
    }
    c.lane_imbalance = frames_sum == 0
                           ? 1.0
                           : static_cast<double>(frames_max) * static_cast<double>(lanes) /
                                 static_cast<double>(frames_sum);
    c.pool_starved = starved - starved_base_;
    c.vpn_rejected = gw_rejected_;
    EndBoxEnclave::StreamStatsSnapshot now = stream_totals();
    c.segments_parked = now.segments_parked - stream_base_.segments_parked;
    c.bytes_buffered_peak = now.bytes_buffered_peak;
    c.flows_killed = now.flows_killed - stream_base_.flows_killed;
    c.evasions_caught = now.evasions_caught - stream_base_.evasions_caught;
    return c;
  }

  void set_sampling(bool on) override { sampling_ = on; }
  const TrafficSample& sample() const override { return sample_; }
  const std::vector<idps::SnortRule>& rules() const override {
    return world_->community_rules;
  }
  void corrupt_next_check() override { corrupt_ = true; }

 protected:
  /// Builds the World: `clients` attested, provisioned, configured and
  /// connected EndBox clients running `use_case`; a 2-lane gateway.
  void build_world(std::uint64_t seed, std::size_t clients, UseCase use_case) {
    testing::WorldOptions opts;
    opts.seed = seed;
    opts.clients = clients;
    opts.use_case = use_case;
    opts.vpn_config.session_shards = 2;
    opts.client_options.shards = 1;
    world_ = std::make_unique<testing::World>(opts);
    for (std::size_t i = 0; i < clients; ++i) {
      EndBoxEnclave& enclave = world_->rigs[i]->client.enclave();
      enclaves_.push_back(&enclave);
      sessions_.push_back(enclave.session()->session_id());
      by_addr_[client_addr(i).value()] = i;
      by_session_[sessions_.back()] = i;
    }
    in_frames_.assign(clients, std::vector<Bytes>(kBurst));
    in_count_.assign(clients, 0);
    in_.resize(clients);
    egress_.resize(clients);
    t_done_.assign(clients, 0);
  }

  /// Client index owning tunnel address `addr`, or -1.
  long client_of(std::uint32_t addr) const {
    auto it = by_addr_.find(addr);
    return it == by_addr_.end() ? -1 : static_cast<long>(it->second);
  }

  /// Gateway downlink: seals `jobs_` towards their sessions and moves
  /// each frame into the ingress burst of the client owning the
  /// session named in its wire header (fragments included).
  void gateway_seal(Tally& tally, Tracer& tracer) {
    std::size_t n = 0;
    timed(tally.seal, jobs_.size(), tracer, span_seal_,
          [&] { n = world_->server.vpn().seal_jobs(jobs_, seal_frames_); });
    tally.seal_frames += n;
    for (std::size_t q = 0; q < n; ++q) {
      const Bytes& frame = seal_frames_[q];
      auto it = frame.size() >= 5 ? by_session_.find(get_u32(frame.data() + 1))
                                  : by_session_.end();
      if (it == by_session_.end()) continue;  // shows as a missing delivery
      std::size_t c = it->second;
      if (in_count_[c] == kBurst) throw std::runtime_error("gateway: ingress burst overflow");
      std::swap(seal_frames_[q], in_frames_[c][in_count_[c]++]);
    }
  }

  /// Delivers every client's pending ingress frames with one batch
  /// ecall each; stamps the end of each call.
  void deliver_ingress(Tally& tally, Tracer& tracer) {
    for (std::size_t c = 0; c < enclaves_.size(); ++c) {
      if (in_count_[c] == 0) continue;
      EndBoxEnclave& enclave = *enclaves_[c];
      Status status;
      auto [t0, t1] = timed(tally.ingress, in_count_[c], tracer, span_ingress_, [&] {
        status = enclave.ecall_process_ingress_batch(
            std::span<const Bytes>(in_frames_[c].data(), in_count_[c]), in_[c]);
      });
      if (!status.ok()) throw std::runtime_error("ingress ecall: " + status.error());
      t_done_[c] = t1;
      in_count_[c] = 0;
    }
  }

  /// Hands every delivered packet's buffers back to its enclave pool.
  void release_delivered() {
    for (std::size_t c = 0; c < enclaves_.size(); ++c) {
      for (net::Packet& packet : in_[c].packets)
        enclaves_[c]->packet_pool().release(std::move(packet));
      in_[c].packets.clear();
    }
  }

  /// Flips one payload byte of the first delivered packet that has one
  /// (the benchmark's copy), when a self-test asked for it.
  void apply_corruption() {
    if (!corrupt_) return;
    for (auto& in : in_)
      for (net::Packet& packet : in.packets)
        if (!packet.payload.empty()) {
          packet.payload[packet.payload.size() / 2] ^= 0x01;
          corrupt_ = false;
          return;
        }
  }

  /// Copies `packet` into a replay sample while sampling is on and the
  /// sample has room; returns the copy (or nullptr).
  net::Packet* sample_packet(std::vector<net::Packet>& into, const net::Packet& packet) {
    if (!sampling_ || into.size() >= kSampleCap) return nullptr;
    into.push_back(packet);
    return &into.back();
  }

  void intern_spans(Tracer& tracer) {
    if (spans_interned_) return;
    spans_interned_ = true;
    span_round_ = tracer.intern("round");
    span_egress_ = tracer.intern("endbox.egress_batch");
    span_open_ = tracer.intern("vpn.open_batch");
    span_seal_ = tracer.intern("vpn.seal_jobs");
    span_ingress_ = tracer.intern("endbox.ingress_batch");
    span_strip_ = tracer.intern("endbox.strip_external_qos");
  }

  EndBoxEnclave::StreamStatsSnapshot stream_totals() const {
    EndBoxEnclave::StreamStatsSnapshot total;
    for (const EndBoxEnclave* enclave : enclaves_) {
      auto s = enclave->stream_stats();
      total.segments_parked += s.segments_parked;
      total.bytes_buffered_peak = std::max(total.bytes_buffered_peak, s.bytes_buffered_peak);
      total.flows_killed += s.flows_killed;
      total.evasions_caught += s.evasions_caught;
    }
    return total;
  }

  std::unique_ptr<testing::World> world_;
  std::vector<EndBoxEnclave*> enclaves_;
  std::vector<std::uint32_t> sessions_;
  std::unordered_map<std::uint32_t, std::size_t> by_addr_;
  std::unordered_map<std::uint32_t, std::size_t> by_session_;

  // Per-client data-path state, reused across rounds.
  std::vector<EgressBatch> egress_;
  std::vector<std::vector<Bytes>> in_frames_;
  std::vector<std::size_t> in_count_;
  std::vector<IngressBatch> in_;
  std::vector<std::uint64_t> t_done_;

  // Gateway scratch.
  vpn::VpnServer::OpenBatch open_out_;
  std::vector<vpn::VpnServer::SealJob> jobs_;
  std::vector<Bytes> seal_frames_;
  std::vector<Bytes> gw_frames_;
  std::uint64_t gw_rejected_ = 0;

  std::uint32_t span_round_ = 0, span_egress_ = 0, span_open_ = 0, span_seal_ = 0,
                span_ingress_ = 0, span_strip_ = 0;
  bool spans_interned_ = false;
  bool sampling_ = false;
  bool corrupt_ = false;
  TrafficSample sample_;
  std::uint64_t starved_base_ = 0;
  EndBoxEnclave::StreamStatsSnapshot stream_base_;
};

// ---------------------------------------------------------------------------
// UDP ring: client i sends one 64-packet burst per round to client i+1.
// ---------------------------------------------------------------------------
struct RingShape {
  std::size_t clients;
  UseCase use_case;
  std::size_t ip_bytes;   ///< serialised IPv4 packet size
  std::size_t flows;      ///< UDP flows (source ports) per sender
  bool interleave;        ///< gateway bursts take one frame per session
};

class RingWorkload : public Deployment {
 public:
  explicit RingWorkload(RingShape shape) : shape_(shape) {}

  void setup(std::uint64_t seed) override {
    build_world(seed, shape_.clients, shape_.use_case);
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    gen_ = rng.fork(1);
    pool_ = make_alnum_pool(rng, std::size_t{1} << 20);
    payload_len_ = shape_.ip_bytes - net::kIpv4HeaderSize - net::kUdpHeaderSize;
    batches_ = std::vector<click::PacketBatch>(shape_.clients);
    offsets_.assign(shape_.clients, std::vector<std::uint32_t>(kBurst));
    t_start_.assign(shape_.clients, 0);
    gw_frames_.assign(shape_.clients, Bytes{});
    sample_.use_case = shape_.use_case;
  }

  void prepare_round() override {
    for (std::size_t s = 0; s < shape_.clients; ++s) {
      net::PacketPool& pool = enclaves_[s]->packet_pool();
      for (std::size_t k = 0; k < kBurst; ++k) {
        auto off = static_cast<std::uint32_t>(gen_.uniform(0, pool_.size() - payload_len_));
        offsets_[s][k] = off;
        net::Packet packet = pool.acquire();
        packet.src = client_addr(s);
        packet.dst = client_addr((s + 1) % shape_.clients);
        packet.proto = net::IpProto::Udp;
        packet.tos = 0;
        packet.ttl = 64;
        packet.ip_id = static_cast<std::uint16_t>(k);
        packet.src_port = static_cast<std::uint16_t>(40000 + k % shape_.flows);
        packet.dst_port = 5001;
        packet.payload.assign(pool_.begin() + off, pool_.begin() + off + payload_len_);
        sample_packet(sample_.uplink, packet);
        sample_packet(sample_.delivered, packet);
        batches_[s].push_back(std::move(packet));
      }
    }
  }

  void run_round(Tally& tally, Tracer& tracer) override {
    intern_spans(tracer);
    Scope round(tracer, span_round_);
    std::uint64_t t_round = now_ns();
    for (std::size_t s = 0; s < shape_.clients; ++s) {
      Status status;
      auto [t0, t1] = timed(tally.egress, kBurst, tracer, span_egress_, [&] {
        status = enclaves_[s]->ecall_process_egress_batch(std::move(batches_[s]), egress_[s]);
      });
      if (!status.ok()) throw std::runtime_error("egress ecall: " + status.error());
      batches_[s].clear();
      t_start_[s] = t0;
      tally.click_seen += kBurst;
      tally.click_rejected += egress_[s].rejected;
    }
    if (shape_.interleave) {
      // Uplink shared by every client: gateway burst j carries frame j
      // of each session. Frames are swapped (not copied) in and back
      // out, so both sides keep their buffer capacity.
      for (std::size_t j = 0; j < kBurst; ++j) {
        std::size_t n = 0;
        for (std::size_t s = 0; s < shape_.clients; ++s)
          if (j < egress_[s].frame_count) std::swap(gw_frames_[n++], egress_[s].frames[j]);
        gateway_burst(std::span<const Bytes>(gw_frames_.data(), n), tally, tracer);
        n = 0;
        for (std::size_t s = 0; s < shape_.clients; ++s)
          if (j < egress_[s].frame_count) std::swap(gw_frames_[n++], egress_[s].frames[j]);
      }
    } else {
      for (std::size_t s = 0; s < shape_.clients; ++s)
        gateway_burst(std::span<const Bytes>(egress_[s].frames.data(), egress_[s].frame_count),
                      tally, tracer);
    }
    deliver_ingress(tally, tracer);
    tally.round_ns += now_ns() - t_round;
  }

  void check_round(Tally& tally) override {
    apply_corruption();
    const std::size_t n = shape_.clients;
    for (std::size_t r = 0; r < n; ++r) {
      std::size_t s = (r + n - 1) % n;
      const IngressBatch& in = in_[r];
      tally.attempted += kBurst;
      tally.bypassed += in.bypassed;
      tally.ingress_complete += in.complete;
      tally.click_rejected += in.rejected;
      tally.click_seen += in.complete - in.bypassed;
      // Per-flow cursors: flow f carries packets f, f+flows, ... in
      // send order; order across flows is not part of the contract.
      std::vector<std::size_t> cursor(shape_.flows, 0);
      std::uint64_t matched = 0, extra = 0;
      for (const net::Packet& packet : in.packets) {
        std::size_t f = static_cast<std::size_t>(packet.src_port) - 40000;
        std::size_t k = f < shape_.flows ? f + cursor[f] * shape_.flows : kBurst;
        bool ok = k < kBurst && packet.src == client_addr(s) &&
                  packet.dst == client_addr(r) && packet.dst_port == 5001 &&
                  packet.proto == net::IpProto::Udp && !packet.processed_flag() &&
                  same_bytes(packet.payload, pool_.data() + offsets_[s][k], payload_len_);
        if (k < kBurst) ++cursor[f];
        if (!ok) {
          ++extra;
          continue;
        }
        ++matched;
        ++tally.delivered;
        tally.payload_bytes += payload_len_;
        tally.latency_ns.push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(t_done_[r] - t_start_[s], UINT32_MAX)));
      }
      tally.failed += std::max<std::uint64_t>(kBurst - matched, extra);
    }
    release_delivered();
  }

 private:
  /// open_batch -> route by destination address -> seal_jobs.
  void gateway_burst(std::span<const Bytes> frames, Tally& tally, Tracer& tracer) {
    if (frames.empty()) return;
    vpn::VpnServer& vpn = world_->server.vpn();
    timed(tally.open, frames.size(), tracer, span_open_,
          [&] { vpn.open_batch(frames, world_->clock.now(), open_out_); });
    gw_rejected_ += open_out_.rejected;
    tally.open_packets += open_out_.complete;
    jobs_.clear();
    for (std::size_t q = 0; q < open_out_.packet_count; ++q) {
      const auto& opened = open_out_.packets[q];
      long c = client_of(ip_dst(opened.ip_packet));
      if (c < 0) continue;  // unroutable: shows as a missing delivery
      jobs_.push_back({sessions_[static_cast<std::size_t>(c)], ByteView(opened.ip_packet)});
    }
    gateway_seal(tally, tracer);
  }

  RingShape shape_;
  Rng gen_;
  Bytes pool_;
  std::size_t payload_len_ = 0;
  std::vector<click::PacketBatch> batches_;
  std::vector<std::vector<std::uint32_t>> offsets_;
  std::vector<std::uint64_t> t_start_;
};

// ---------------------------------------------------------------------------
// Downlink: external TCP flows enter at the gateway towards 4 clients
// running STREAM+IDPS; clients return one delayed ACK per flow per round.
// ---------------------------------------------------------------------------
class DownlinkWorkload : public Deployment {
 public:
  static constexpr std::size_t kClients = 4;
  static constexpr std::size_t kActiveFlows = 8;  ///< concurrent flows per client
  static constexpr std::uint16_t kServicePort = 80;

  void setup(std::uint64_t seed) override {
    build_world(seed, kClients, UseCase::StreamIdps);
    Rng rng(seed ^ 0xd1b54a32d192ed03ULL);
    gen_ = rng.fork(2);
    pool_ = make_alnum_pool(rng, std::size_t{1} << 20);
    // Plantable contents: TCP-applicable single-content rules with any
    // destination port, split before their '_' so the first part can
    // never complete a match on its own.
    plantable_.clear();
    for (const idps::SnortRule& rule : world_->community_rules) {
      bool tcp = !rule.proto || *rule.proto == net::IpProto::Tcp;
      if (tcp && rule.dst_port.any && rule.contents.size() == 1)
        plantable_.push_back(&rule.contents[0].bytes);
    }
    next_flow_id_ = 0;
    flows_.assign(kClients, {});
    for (auto& flows : flows_)
      for (std::size_t f = 0; f < kActiveFlows; ++f) flows.push_back(new_flow());
    segs_.assign(kClients, {});
    acks_.assign(kClients, {});
    ack_batches_ = std::vector<click::PacketBatch>(kClients);
    ip_bytes_.assign(kClients * kBurst, Bytes{});
    gw_frames_.assign(kClients * kBurst, Bytes{});
    sample_.use_case = UseCase::StreamIdps;
  }

  void prepare_round() override {
    for (std::size_t c = 0; c < kClients; ++c) {
      auto& segs = segs_[c];
      segs.clear();
      while (segs.size() < kBurst) emit_segments(c, segs);
      // Delayed ACKs: one per flow that received data this round,
      // acknowledging what the check expects the client to accept.
      auto& acks = acks_[c];
      acks.clear();
      for (const Seg& seg : segs) {
        auto it = std::find_if(acks.begin(), acks.end(),
                               [&](const Ack& a) { return a.flow_id == seg.flow_id; });
        if (it == acks.end()) {
          acks.push_back({seg.flow_id, seg.packet.src, seg.packet.src_port, 0});
          it = acks.end() - 1;
        }
        if (seg.deliver) it->ack = std::max(it->ack, seg.packet.seq + seg_len(seg.packet));
      }
      net::PacketPool& pool = enclaves_[c]->packet_pool();
      for (const Ack& a : acks) {
        net::Packet packet = pool.acquire();
        packet.src = client_addr(c);
        packet.dst = a.peer;
        packet.proto = net::IpProto::Tcp;
        packet.tos = 0;
        packet.ttl = 64;
        packet.src_port = kServicePort;
        packet.dst_port = a.peer_port;
        packet.seq = 1;
        packet.ack = a.ack;
        packet.tcp_flags = kTcpAck;
        sample_packet(sample_.uplink, packet);
        ack_batches_[c].push_back(std::move(packet));
      }
      // The gateway strips the flag before a segment reaches a client.
      for (const Seg& seg : segs)
        if (net::Packet* copy = sample_packet(sample_.delivered, seg.packet))
          copy->clear_processed_flag();
    }
  }

  void run_round(Tally& tally, Tracer& tracer) override {
    intern_spans(tracer);
    Scope round(tracer, span_round_);
    std::uint64_t t_round = now_ns();
    // Gateway ingest: strip the processed flag from outside traffic
    // (section IV-A), serialise, seal towards each client's session.
    jobs_.clear();
    {
      Scope strip(tracer, span_strip_);
      for (std::size_t c = 0; c < kClients; ++c)
        for (std::size_t k = 0; k < kBurst; ++k) {
          net::Packet& packet = segs_[c][k].packet;
          EndBoxServer::strip_external_qos(packet);
          Bytes& ip = ip_bytes_[c * kBurst + k];
          packet.serialize_into(ip);
          jobs_.push_back({sessions_[c], ByteView(ip)});
        }
    }
    gateway_seal(tally, tracer);
    deliver_ingress(tally, tracer);
    // Uplink: each client's ACK burst, then one gateway open for all.
    std::size_t n = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      std::size_t acks = ack_batches_[c].size();
      Status status;
      timed(tally.egress, acks, tracer, span_egress_, [&] {
        status = enclaves_[c]->ecall_process_egress_batch(std::move(ack_batches_[c]), egress_[c]);
      });
      if (!status.ok()) throw std::runtime_error("egress ecall: " + status.error());
      ack_batches_[c].clear();
      tally.click_seen += acks;
      tally.click_rejected += egress_[c].rejected;
      for (std::size_t f = 0; f < egress_[c].frame_count; ++f)
        std::swap(gw_frames_[n++], egress_[c].frames[f]);
    }
    vpn::VpnServer& vpn = world_->server.vpn();
    timed(tally.open, n, tracer, span_open_, [&] {
      vpn.open_batch(std::span<const Bytes>(gw_frames_.data(), n), world_->clock.now(),
                     open_out_);
    });
    gw_rejected_ += open_out_.rejected;
    tally.open_packets += open_out_.complete;
    n = 0;
    for (std::size_t c = 0; c < kClients; ++c)
      for (std::size_t f = 0; f < egress_[c].frame_count; ++f)
        std::swap(gw_frames_[n++], egress_[c].frames[f]);
    t_round_ = t_round;
    tally.round_ns += now_ns() - t_round;
  }

  void check_round(Tally& tally) override {
    apply_corruption();
    for (std::size_t c = 0; c < kClients; ++c) {
      const IngressBatch& in = in_[c];
      const auto& segs = segs_[c];
      tally.attempted += kBurst + acks_[c].size();
      tally.ingress_complete += in.complete;
      tally.bypassed += in.bypassed;
      tally.click_seen += in.complete - in.bypassed;
      tally.click_rejected += in.rejected;
      // Expected deliveries per flow, in stream (sequence) order: TCPIn
      // releases a parked segment right after the one that fills the hole.
      std::map<std::pair<std::uint32_t, std::uint16_t>, std::vector<const Seg*>> expect;
      std::uint64_t expected_total = 0;
      for (const Seg& seg : segs) {
        if (!seg.deliver) {
          ++tally.expected_drops;
          continue;
        }
        expect[{seg.packet.src.value(), seg.packet.src_port}].push_back(&seg);
        ++expected_total;
      }
      for (auto& [key, list] : expect)
        std::sort(list.begin(), list.end(),
                  [](const Seg* a, const Seg* b) { return a->packet.seq < b->packet.seq; });
      std::map<std::pair<std::uint32_t, std::uint16_t>, std::size_t> cursor;
      std::uint64_t matched = 0, bad = 0;
      for (const net::Packet& packet : in.packets) {
        auto key = std::make_pair(packet.src.value(), packet.src_port);
        auto it = expect.find(key);
        std::size_t& at = cursor[key];
        const Seg* want = (it != expect.end() && at < it->second.size()) ? it->second[at] : nullptr;
        bool ok = want && packet.seq == want->packet.seq &&
                  packet.dst == client_addr(c) && packet.dst_port == kServicePort &&
                  packet.proto == net::IpProto::Tcp && !packet.processed_flag() &&
                  packet.tcp_flags == want->packet.tcp_flags &&
                  same_bytes(packet.payload, want->packet.payload.data(),
                             want->packet.payload.size());
        if (want) ++at;
        if (!ok) {
          ++bad;
          continue;
        }
        ++matched;
        ++tally.delivered;
        tally.payload_bytes += packet.payload.size();
        tally.latency_ns.push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(t_done_[c] - t_round_, UINT32_MAX)));
      }
      // A clean segment rejected shows as missing; a segment that should
      // have died (completing a planted content, or after it) shows as bad.
      tally.failed += (expected_total - matched) + bad;
    }
    check_acks(tally);
    release_delivered();
  }

 private:
  struct Flow {
    std::uint64_t id = 0;
    net::Ipv4 peer;
    std::uint16_t peer_port = 0;
    std::uint32_t next_seq = 0;
    std::uint32_t data_segments = 0;  ///< flow length
    std::uint32_t sent = 0;           ///< data segments emitted so far
    bool syn_sent = false;
    long plant_at = -1;               ///< content split across data k, k+1
    const Bytes* content = nullptr;
    std::size_t split = 0;            ///< bytes of content in segment k
  };
  struct Seg {
    std::uint64_t flow_id = 0;
    bool deliver = true;
    net::Packet packet;
  };
  struct Ack {
    std::uint64_t flow_id = 0;
    net::Ipv4 peer;
    std::uint16_t peer_port = 0;
    std::uint32_t ack = 0;
  };

  static std::uint32_t seg_len(const net::Packet& packet) {
    return static_cast<std::uint32_t>(packet.payload.size()) +
           ((packet.tcp_flags & kTcpSyn) ? 1u : 0u);
  }

  Flow new_flow() {
    Flow flow;
    flow.id = next_flow_id_++;
    // Unique external 5-tuple per flow for the whole run (no reuse of
    // a killed flow's context): 198.18.0.0/15 x ports 10000..59999.
    std::uint64_t host = flow.id / 50000;
    flow.peer = net::Ipv4(198, static_cast<std::uint8_t>(18 + ((host >> 16) & 1)),
                          static_cast<std::uint8_t>(host >> 8),
                          static_cast<std::uint8_t>(host & 0xff));
    flow.peer_port = static_cast<std::uint16_t>(10000 + flow.id % 50000);
    flow.next_seq = static_cast<std::uint32_t>(gen_.next_u32() & 0x7fffffff);
    flow.data_segments = static_cast<std::uint32_t>(gen_.uniform(8, 40));
    if (gen_.uniform(0, 7) == 0) {
      flow.plant_at = static_cast<long>(gen_.uniform(0, flow.data_segments - 2));
      flow.content = plantable_[gen_.uniform(0, plantable_.size() - 1)];
      std::size_t underscore = 0;
      for (std::size_t i = 0; i < flow.content->size(); ++i)
        if ((*flow.content)[i] == '_') underscore = i;
      flow.split = gen_.uniform(1, std::max<std::size_t>(1, underscore));
    }
    return flow;
  }

  /// IMIX-like payload size: 7:4:1 of 64, 576 and 1460 bytes.
  std::size_t imix_size() {
    std::uint64_t w = gen_.uniform(0, 11);
    return w < 7 ? 64 : (w < 11 ? 576 : 1460);
  }

  net::Packet make_segment(const Flow& flow, std::size_t c, std::size_t len,
                           std::uint8_t flags) {
    net::Packet packet = net::Packet::tcp(flow.peer, client_addr(c), flow.peer_port,
                                          kServicePort, flow.next_seq, 1, flags, Bytes{});
    if (len > 0) {
      std::size_t off = gen_.uniform(0, pool_.size() - len);
      packet.payload.assign(pool_.begin() + off, pool_.begin() + off + len);
    }
    // 1 segment in 16 arrives with a forged processed flag; the gateway
    // must strip it or the client would skip inspection.
    if (gen_.uniform(0, 15) == 0) packet.set_processed_flag();
    return packet;
  }

  /// Builds data segment number flow.sent (planting content if due).
  Seg data_segment(Flow& flow, std::size_t c) {
    std::size_t len = imix_size();
    Seg seg;
    seg.flow_id = flow.id;
    seg.packet = make_segment(flow, c, len, kTcpAck);
    long d = static_cast<long>(flow.sent);
    if (flow.plant_at >= 0) {
      const Bytes& content = *flow.content;
      if (d == flow.plant_at)
        std::copy(content.begin(), content.begin() + static_cast<long>(flow.split),
                  seg.packet.payload.end() - static_cast<long>(flow.split));
      if (d == flow.plant_at + 1)
        std::copy(content.begin() + static_cast<long>(flow.split), content.end(),
                  seg.packet.payload.begin());
      // The segment completing the content and every later one die.
      seg.deliver = d <= flow.plant_at;
    }
    flow.next_seq += static_cast<std::uint32_t>(len);
    ++flow.sent;
    return seg;
  }

  /// Appends the next segment(s) of a random active flow of client c:
  /// a SYN for a fresh flow, one data segment, or — for a fixed share
  /// — two data segments swapped (out of order within the burst).
  void emit_segments(std::size_t c, std::vector<Seg>& segs) {
    auto& flows = flows_[c];
    Flow& flow = flows[gen_.uniform(0, flows.size() - 1)];
    if (!flow.syn_sent) {
      Seg seg;
      seg.flow_id = flow.id;
      seg.packet = make_segment(flow, c, 0, kTcpSyn);
      flow.next_seq += 1;
      flow.syn_sent = true;
      segs.push_back(std::move(seg));
      return;
    }
    std::uint32_t left = flow.data_segments - flow.sent;
    if (left >= 2 && segs.size() + 2 <= kBurst && gen_.uniform(0, 7) == 0) {
      Seg first = data_segment(flow, c);
      Seg second = data_segment(flow, c);
      segs.push_back(std::move(second));
      segs.push_back(std::move(first));
    } else {
      segs.push_back(data_segment(flow, c));
    }
    if (flow.sent == flow.data_segments) flow = new_flow();
  }

  /// Every ACK a client sent must come out of the gateway unchanged.
  void check_acks(Tally& tally) {
    std::vector<std::size_t> cursor(kClients, 0);
    std::uint64_t matched = 0, total = 0;
    for (const auto& acks : acks_) total += acks.size();
    for (std::size_t q = 0; q < open_out_.packet_count; ++q) {
      auto parsed = net::Packet::parse(open_out_.packets[q].ip_packet);
      if (!parsed.ok()) continue;
      long c = client_of(parsed->src.value());
      if (c < 0) continue;
      auto& at = cursor[static_cast<std::size_t>(c)];
      const auto& acks = acks_[static_cast<std::size_t>(c)];
      if (at >= acks.size()) continue;
      const Ack& want = acks[at++];
      if (parsed->dst == want.peer && parsed->dst_port == want.peer_port &&
          parsed->src_port == kServicePort && parsed->ack == want.ack &&
          parsed->tcp_flags == kTcpAck && parsed->payload.empty())
        ++matched;
    }
    tally.failed += total - matched;
  }

  Rng gen_;
  Bytes pool_;
  std::vector<const Bytes*> plantable_;
  std::vector<std::vector<Flow>> flows_;  ///< active flows per client
  std::vector<std::vector<Seg>> segs_;
  std::vector<std::vector<Ack>> acks_;
  std::vector<click::PacketBatch> ack_batches_;
  std::vector<Bytes> ip_bytes_;
  std::uint64_t next_flow_id_ = 0;
  std::uint64_t t_round_ = 0;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"c2c_mtu_idps", "fanin_small_fw", "downlink_stream_dirty"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "c2c_mtu_idps")
    return std::make_unique<RingWorkload>(
        RingShape{8, UseCase::Idps, 1500, 4, false});
  if (name == "fanin_small_fw")
    return std::make_unique<RingWorkload>(
        RingShape{64, UseCase::Fw, 64, 1, true});
  if (name == "downlink_stream_dirty") return std::make_unique<DownlinkWorkload>();
  return nullptr;
}

}  // namespace perfbench
