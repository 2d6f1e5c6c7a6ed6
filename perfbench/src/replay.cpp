// Per-layer replays: each layer's public functions timed from outside,
// on the run's own traffic sample, plus the in-run calibration rows.
// Every replay repeats its pass over the sample and reports the median
// pass, so one descheduled pass does not move the row.
#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"
#include "click/router.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "elements/context.hpp"
#include "idps/engine.hpp"

namespace perfbench {
namespace {

using namespace endbox;

constexpr int kMinPasses = 5;
constexpr std::uint64_t kMinReplayNs = 150'000'000;  ///< per replay row
constexpr std::size_t kMacLabel = 4;                  ///< "data"
constexpr std::size_t kWireExtra = 16 + 16;           ///< fragment header + IV

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Runs `pass` (which returns the nanoseconds it timed) at least
/// kMinPasses times and for at least kMinReplayNs; returns the median
/// pass divided by `per`.
template <typename F>
double median_pass(double per, F&& pass) {
  if (per <= 0) return 0;
  std::vector<double> passes;
  std::uint64_t spent = 0;
  while (passes.size() < kMinPasses || spent < kMinReplayNs) {
    std::uint64_t ns = pass();
    spent += ns;
    passes.push_back(static_cast<double>(ns) / per);
    if (passes.size() >= 1000) break;
  }
  return median(std::move(passes));
}

template <typename F>
std::uint64_t time_ns(F&& f) {
  std::uint64_t t0 = now_ns();
  f();
  return now_ns() - t0;
}

/// Keeps a value alive past the optimiser.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

struct CryptoCosts {
  double enc = 0, dec = 0, mac = 0;
};

/// Replays the data channel's crypto:: calls at the sample's serialised
/// packet lengths: AES-128-CBC over the padded packet, and one
/// HMAC-SHA-256 over label + fragment header + IV + ciphertext.
CryptoCosts replay_crypto(const std::vector<net::Packet>& packets) {
  CryptoCosts costs;
  if (packets.empty()) return costs;
  std::vector<std::size_t> lens;
  for (const net::Packet& p : packets) lens.push_back(p.wire_size());
  std::uint8_t key_bytes[32];
  for (int i = 0; i < 32; ++i) key_bytes[i] = static_cast<std::uint8_t>(i * 7 + 1);
  crypto::Aes128 aes(crypto::make_aes_key(ByteView(key_bytes, 16)));
  crypto::HmacKey hmac(ByteView(key_bytes, 32));
  std::uint8_t iv[16] = {};
  std::size_t max_padded = crypto::cbc_padded_size(*std::max_element(lens.begin(), lens.end()));
  std::vector<std::uint8_t> buf(kMacLabel + kWireExtra + max_padded, 0x5a);
  // One valid ciphertext per packet for the decrypt replay.
  std::vector<std::vector<std::uint8_t>> cts;
  for (std::size_t len : lens) {
    std::vector<std::uint8_t> ct(crypto::cbc_padded_size(len), 0x3c);
    crypto::aes128_cbc_encrypt_inplace(aes, iv, ct, len);
    cts.push_back(std::move(ct));
  }
  auto n = static_cast<double>(lens.size());
  costs.enc = median_pass(n, [&] {
    return time_ns([&] {
      for (std::size_t len : lens)
        crypto::aes128_cbc_encrypt_inplace(
            aes, iv, std::span<std::uint8_t>(buf.data(), crypto::cbc_padded_size(len)), len);
      keep(buf);
    });
  });
  // Decrypt works in place, so each packet restores its ciphertext
  // first (one memcpy, ~1% of a 1500-byte decrypt).
  costs.dec = median_pass(n, [&] {
    return time_ns([&] {
      for (const auto& ct : cts) {
        std::memcpy(buf.data(), ct.data(), ct.size());
        auto len = crypto::aes128_cbc_decrypt_inplace(
            aes, iv, std::span<std::uint8_t>(buf.data(), ct.size()));
        keep(len);
      }
    });
  });
  costs.mac = median_pass(n, [&] {
    return time_ns([&] {
      for (std::size_t len : lens) {
        auto mac = hmac.begin();
        mac.update(ByteView(buf.data(), kMacLabel));
        mac.update(ByteView(buf.data() + kMacLabel, kWireExtra + crypto::cbc_padded_size(len)));
        auto digest = mac.finish();
        keep(digest);
      }
    });
  });
  return costs;
}

struct NetCosts {
  double parse = 0, serialize = 0;
};

NetCosts replay_net(const std::vector<net::Packet>& packets) {
  NetCosts costs;
  if (packets.empty()) return costs;
  std::vector<Bytes> wire(packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) packets[i].serialize_into(wire[i]);
  auto n = static_cast<double>(packets.size());
  Bytes out;
  costs.serialize = median_pass(n, [&] {
    return time_ns([&] {
      for (const net::Packet& p : packets) {
        p.serialize_into(out);
        keep(out);
      }
    });
  });
  net::Packet parsed;
  costs.parse = median_pass(n, [&] {
    return time_ns([&] {
      for (const Bytes& w : wire) {
        auto status = net::Packet::parse_into(w, parsed);
        keep(status);
      }
    });
  });
  return costs;
}

/// Pushes the sample, one 64-packet burst at a time, through a fresh
/// router built from `config` per pass (stream state starts empty each
/// pass, as it did in the run). Only push_batch_to is timed.
double replay_graph(const std::string& config, const std::vector<net::Packet>& packets,
                    const std::vector<idps::SnortRule>& rules) {
  if (packets.empty()) return 0;
  elements::ElementContext context;
  context.rulesets["community"] = rules;
  context.trusted_time = [] { return sim::Time{0}; };
  context.untrusted_time = [] { return sim::Time{0}; };
  std::vector<net::Packet> sink;
  sink.reserve(click::PacketBatch::kMaxBurst * 2);
  context.to_device = [&](net::Packet&& packet, bool) { sink.push_back(std::move(packet)); };
  click::ElementRegistry registry = elements::make_endbox_registry(context);
  click::PacketBatch batch;
  return median_pass(static_cast<double>(packets.size()), [&] {
    auto router = click::Router::from_config(config, registry);
    if (!router.ok()) throw std::runtime_error("replay config: " + router.error());
    std::uint64_t ns = 0;
    for (std::size_t i = 0; i < packets.size(); i += click::PacketBatch::kMaxBurst) {
      std::size_t end = std::min(packets.size(), i + click::PacketBatch::kMaxBurst);
      for (std::size_t k = i; k < end; ++k) batch.push_back(net::Packet(packets[k]));
      ns += time_ns([&] { (*router)->push_batch_to("from_device", std::move(batch)); });
      batch.clear();
      sink.clear();
    }
    return ns;
  });
}

const char* kStreamGraph =
    "from_device :: FromDevice;\n"
    "to_device :: ToDevice;\n"
    "ctx :: CTXManager(CAPACITY 4096, IDLE_PKTS 8192);\n"
    "tcp_in :: TCPIn;\n"
    "tcp_out :: TCPOut;\n"
    "from_device -> ctx -> tcp_in -> tcp_out -> to_device;\n"
    "tcp_in[1] -> [1]to_device;\n";

struct IdpsCosts {
  double inspect = 0, prefilter_ns_per_kb = 0, confirm_windows_per_kb = 0, fallback = 0;
};

/// IdpsEngine replay: TCP samples take the stream path (one
/// StreamMatchState per flow, fresh each pass), everything else the
/// per-packet burst path.
IdpsCosts replay_idps(const std::vector<net::Packet>& packets,
                      const std::vector<idps::SnortRule>& rules) {
  IdpsCosts costs;
  if (packets.empty()) return costs;
  idps::IdpsEngine engine(rules);
  idps::IdpsEngine::BatchScratch scratch;
  bool stream = std::all_of(packets.begin(), packets.end(), [](const net::Packet& p) {
    return p.proto == net::IpProto::Tcp;
  });
  std::unordered_map<net::FlowKey, std::size_t> flows;
  std::vector<std::size_t> flow_of;
  for (const net::Packet& p : packets)
    flow_of.push_back(flows.emplace(net::FlowKey::of(p), flows.size()).first->second);
  std::vector<idps::StreamMatchState> states;
  std::vector<const net::Packet*> ptrs;
  std::vector<ByteView> views;
  std::vector<idps::StreamMatchState*> state_ptrs;
  std::vector<idps::IdpsVerdict> verdicts(click::PacketBatch::kMaxBurst);
  std::uint64_t bytes = 0;
  for (const net::Packet& p : packets) bytes += p.payload.size();

  std::uint64_t passes = 0;
  costs.inspect = median_pass(static_cast<double>(packets.size()), [&] {
    states.assign(flows.size(), idps::StreamMatchState{});
    ++passes;
    std::uint64_t ns = 0;
    for (std::size_t i = 0; i < packets.size(); i += click::PacketBatch::kMaxBurst) {
      std::size_t end = std::min(packets.size(), i + click::PacketBatch::kMaxBurst);
      ptrs.clear();
      views.clear();
      state_ptrs.clear();
      for (std::size_t k = i; k < end; ++k) {
        ptrs.push_back(&packets[k]);
        views.push_back(ByteView(packets[k].payload));
        state_ptrs.push_back(&states[flow_of[k]]);
      }
      ns += time_ns([&] {
        if (stream)
          engine.inspect_stream_batch(ptrs, views, state_ptrs, scratch, verdicts.data());
        else
          engine.inspect_batch(ptrs, views, scratch, verdicts.data());
      });
    }
    return ns;
  });
  const idps::PrefilterStats& stats = engine.prefilter_stats();  // fresh engine: this replay only
  double kb = static_cast<double>(stats.prefiltered_bytes) / 1024.0;
  costs.confirm_windows_per_kb = kb > 0 ? static_cast<double>(stats.confirmed_windows) / kb : 0;
  costs.fallback = static_cast<double>(stats.fallback_scans) /
                   static_cast<double>(std::max<std::uint64_t>(passes, 1));

  // Tier 1 alone: both automatons' literal prefilters over every payload.
  std::vector<idps::CandidateRun> runs;
  costs.prefilter_ns_per_kb = median_pass(static_cast<double>(bytes) / 1024.0, [&] {
    return time_ns([&] {
      for (const net::Packet& p : packets) {
        runs.clear();
        engine.cs_automaton().prefilter().find_runs(p.payload, runs);
        runs.clear();
        engine.ci_automaton().prefilter().find_runs(p.payload, runs);
        keep(runs);
      }
    });
  });
  return costs;
}

}  // namespace

double probe_ns() {
  static const auto table = [] {
    std::array<std::array<std::uint32_t, 256>, 4> t{};
    for (std::uint32_t j = 0; j < 4; ++j)
      for (std::uint32_t i = 0; i < 256; ++i)
        t[j][i] = (i * 2654435761u) ^ (j * 0x9e3779b9u) ^ (i << j);
    return t;
  }();
  double runs[3];
  for (double& run : runs) {
    std::uint64_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    std::uint32_t st[4] = {1, 2, 3, 4};
    run = static_cast<double>(time_ns([&] {
      for (int i = 0; i < 500; ++i)
        for (std::uint64_t k = 0; k < 8; ++k) x[k] = (x[k] ^ (x[k] >> 29)) * 0xbf58476d1ce4e5b9ULL + k;
      for (std::uint32_t i = 0; i < 500; ++i) {
        std::uint32_t n[4];
        for (int k = 0; k < 4; ++k)
          n[k] = table[0][st[k] & 255] ^ table[1][(st[(k + 1) & 3] >> 8) & 255] ^
                 table[2][(st[(k + 2) & 3] >> 16) & 255] ^ table[3][st[(k + 3) & 3] >> 24];
        st[0] = n[0] + i;
        st[1] = n[1];
        st[2] = n[2];
        st[3] = n[3];
      }
    }));
    keep(x);
    keep(st);
  }
  std::sort(std::begin(runs), std::end(runs));
  return runs[1];
}

Calibration measure_calibration() {
  Calibration calib;
  std::vector<std::uint8_t> src(1500, 0xa5), dst(1500);
  constexpr int kCopies = 20000;
  calib.memcpy_1500B_ns = median_pass(kCopies, [&] {
    return time_ns([&] {
      for (int i = 0; i < kCopies; ++i) {
        std::memcpy(dst.data(), src.data(), src.size());
        keep(dst);
      }
    });
  });
  constexpr int kChains = 2000;
  calib.alu_ns = median_pass(kChains, [&] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t ns = time_ns([&] {
      for (int c = 0; c < kChains; ++c)
        for (int i = 0; i < 1000; ++i) x = (x ^ (x >> 29)) * 0xbf58476d1ce4e5b9ULL + 1;
    });
    keep(x);
    return ns;
  });
  return calib;
}

ReplayCosts measure_replays(const TrafficSample& sample,
                            const std::vector<idps::SnortRule>& rules) {
  ReplayCosts costs;
  CryptoCosts down = replay_crypto(sample.delivered);
  CryptoCosts up = replay_crypto(sample.uplink);
  costs.aes_enc = down.enc;
  costs.aes_dec = down.dec;
  costs.hmac = down.mac;
  costs.up_aes_enc = up.enc;
  costs.up_aes_dec = up.dec;
  costs.up_hmac = up.mac;
  NetCosts net_down = replay_net(sample.delivered);
  NetCosts net_up = replay_net(sample.uplink);
  costs.parse = net_down.parse;
  costs.serialize = net_down.serialize;
  costs.up_parse = net_up.parse;
  costs.up_serialize = net_up.serialize;
  std::string config = use_case_config(sample.use_case);
  costs.click_sender = replay_graph(config, sample.uplink, rules);
  costs.click_receiver = replay_graph(config, sample.delivered, rules);
  costs.stream = replay_graph(kStreamGraph, sample.delivered, rules);
  IdpsCosts ids = replay_idps(sample.delivered, rules);
  costs.idps_inspect = ids.inspect;
  costs.prefilter_ns_per_kb = ids.prefilter_ns_per_kb;
  costs.confirm_windows_per_kb = ids.confirm_windows_per_kb;
  costs.fallback_scans = ids.fallback;
  double ip = 0, payload = 0;
  for (const net::Packet& p : sample.delivered) {
    ip += static_cast<double>(p.wire_size());
    payload += static_cast<double>(p.payload.size());
  }
  if (!sample.delivered.empty()) {
    costs.avg_ip_bytes = ip / static_cast<double>(sample.delivered.size());
    costs.avg_payload_bytes = payload / static_cast<double>(sample.delivered.size());
  }
  return costs;
}

}  // namespace perfbench
