// Shared plumbing of the EndBox data-path benchmark: wall-clock stamps,
// the metric sink, the in-memory span recorder and the per-stage tally
// a workload fills while it drives real packets through
// client enclave egress -> gateway VpnServer -> peer enclave ingress.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "endbox/configs.hpp"
#include "idps/snort_rules.hpp"
#include "net/packet.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- Heap allocation counter (alloc_count.cpp) ---------------------------
// The binary replaces global operator new; it counts only while
// `g_count_allocs` is set, which only the traced phase does.
extern std::atomic<bool> g_count_allocs;
extern std::atomic<std::uint64_t> g_allocs;
inline std::uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }

// ---- Metrics ----------------------------------------------------------------
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  double get(const std::string& name) const {
    for (const Metric& m : metrics)
      if (m.name == name) return m.value;
    return 0;
  }
};

// ---- Span recorder ----------------------------------------------------------
// One span per public call the benchmark makes into a layer: name,
// start, end, the enclosing span (-1 at top level) and the round it
// belongs to. Kept in memory, written out when the run ends.
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::uint32_t round = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 21;

  bool enabled = false;
  std::uint32_t round = 0;

  std::uint32_t intern(const std::string& name);
  /// Opens a span (no-op when disabled or full); returns its index or -1.
  std::int32_t open(std::uint32_t name);
  void close(std::int32_t span);
  /// Writes one JSON object per span. Returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;
  std::size_t span_count() const { return spans_.size(); }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, std::uint32_t name) : tracer_(tracer), span_(tracer.open(name)) {}
  ~Scope() { tracer_.close(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t span_;
};

// ---- Per-stage tally --------------------------------------------------------
/// Wall time, work count and heap allocations of one stage (one kind of
/// public call) summed over the timed rounds.
struct Stage {
  std::uint64_t ns = 0;
  std::uint64_t items = 0;   ///< packets (ecalls) or frames (gateway)
  std::uint64_t allocs = 0;  ///< traced phase only
};

/// One checked round's share of a Tally.
struct RoundRecord {
  double scale = 1;  ///< kReferenceProbeNs / probe time around the round
  std::uint64_t ns = 0;
  std::uint64_t delivered = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t client_ns = 0;  ///< egress + ingress ecalls
  std::uint64_t server_ns = 0;  ///< open_batch + seal_jobs
};

/// Fixed-size uniform sample of per-packet latencies (Algorithm R with
/// a fixed-seed generator), so memory does not grow with run length.
class LatencySample {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;
  void add(double ns) {
    ++seen_;
    if (values_.size() < kCapacity) {
      values_.push_back(ns);
      return;
    }
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    std::uint64_t slot = state_ % seen_;
    if (slot < kCapacity) values_[slot] = ns;
  }
  std::uint64_t seen() const { return seen_; }
  /// q-quantile of the sample (nearest rank); 0 when empty.
  double quantile(double q) const;

 private:
  std::vector<double> values_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x2545f4914f6cdd1dULL;
};

/// What the timed rounds of one phase measured and what the output
/// check found.
struct Tally {
  std::uint64_t round_ns = 0;        ///< sum of round wall times
  std::uint64_t attempted = 0;       ///< packets offered (all directions)
  std::uint64_t failed = 0;          ///< check mismatches
  std::uint64_t delivered = 0;       ///< data packets at the receiving endpoint
  std::uint64_t payload_bytes = 0;   ///< their L4 payload bytes
  std::uint64_t expected_drops = 0;  ///< middlebox rejects the check expected
  std::uint64_t click_rejected = 0;  ///< rejects the enclaves reported
  std::uint64_t click_seen = 0;      ///< packets that entered a Click graph
  std::uint64_t bypassed = 0;        ///< ingress packets that skipped Click (c2c flag)
  std::uint64_t ingress_complete = 0;
  std::uint64_t open_packets = 0;    ///< packets open_batch completed
  std::uint64_t seal_frames = 0;     ///< frames seal_jobs produced (items = jobs)
  Stage egress, ingress, open, seal;
  /// Latencies of the round being checked (check_round appends one per
  /// delivered data packet; the round loop moves them into the samples).
  std::vector<std::uint32_t> latency_ns;
  LatencySample latency_raw, latency_norm;
  std::vector<RoundRecord> round_log;
};

// ---- Workloads --------------------------------------------------------------
/// Sample of the traffic a run offered, the input of the per-layer
/// replays (traced mode).
struct TrafficSample {
  std::vector<endbox::net::Packet> uplink;    ///< packets entering the egress ecall
  std::vector<endbox::net::Packet> delivered; ///< packets the ingress ecall delivers
  endbox::UseCase use_case = endbox::UseCase::Nop;  ///< every client's config
};

/// Counters read from the system under test at the end of a phase.
struct SystemCounters {
  std::uint64_t segments_parked = 0;
  std::uint64_t bytes_buffered_peak = 0;
  std::uint64_t flows_killed = 0;
  std::uint64_t evasions_caught = 0;
  std::uint64_t ring_peak = 0;
  std::uint64_t pool_starved = 0;
  std::uint64_t vpn_rejected = 0;
  double lane_imbalance = 1;  ///< max / mean of lane_frames
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the deployment (World). Timed by the caller as setup_s.
  virtual void setup(std::uint64_t seed) = 0;
  /// Destroys the deployment (between repeated set-ups).
  virtual void teardown() = 0;
  /// Generates the next round's inputs (untimed).
  virtual void prepare_round() = 0;
  /// Drives the round through the system; stamps every call.
  virtual void run_round(Tally& tally, Tracer& tracer) = 0;
  /// Checks the round's outputs against the inputs; adds mismatches to
  /// tally.failed and releases delivered buffers.
  virtual void check_round(Tally& tally) = 0;
  /// Flips one byte in the benchmark's copy of the next round's
  /// delivered data, so check_round must report a mismatch.
  virtual void corrupt_next_check() = 0;
  /// Resets the counters read by counters() (start of a traced phase).
  virtual void reset_counters() = 0;
  virtual SystemCounters counters() const = 0;
  /// Starts/stops recording a traffic sample during rounds.
  virtual void set_sampling(bool on) = 0;
  virtual const TrafficSample& sample() const = 0;
  virtual const std::vector<endbox::idps::SnortRule>& rules() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name);
std::vector<std::string> workload_names();

// ---- Per-layer replays and calibration (replay.cpp) ------------------------
/// Machine-state reference rows, measured in the run's own process.
struct Calibration {
  double memcpy_1500B_ns = 0;  ///< one 1500-byte memcpy
  double alu_ns = 0;           ///< a fixed 1000-step dependent integer chain
};
Calibration measure_calibration();

/// Host-speed probe: wall time of a fixed benchmark-owned kernel of
/// throughput-bound integer work (independent multiply/xor-shift chains
/// and 4-way table lookups — the instruction mix of the data path's
/// AES and SHA-256), median of three short runs. On a shared host the
/// data path and this kernel slow down together when a co-tenant
/// competes for the core, so per-round costs are normalised by it.
double probe_ns();
/// The probe time the end-to-end metrics are normalised to.
inline constexpr double kReferenceProbeNs = 10'000;

/// Each layer's public functions timed from outside on the run's own
/// traffic (ns per packet unless named otherwise). Plain names refer to
/// the delivered (data) sample, up_* to the packets the egress ecall
/// sealed (the same packets for the UDP rings, ACKs on the downlink).
struct ReplayCosts {
  double aes_enc = 0, aes_dec = 0, hmac = 0, parse = 0, serialize = 0;
  double up_aes_enc = 0, up_aes_dec = 0, up_hmac = 0, up_parse = 0, up_serialize = 0;
  double click_sender = 0;    ///< sender config, uplink sample
  double click_receiver = 0;  ///< receiver config, delivered sample
  double stream = 0;          ///< CTXManager -> TCPIn -> TCPOut, delivered sample
  double idps_inspect = 0;    ///< inspect_batch / inspect_stream_batch
  double prefilter_ns_per_kb = 0;
  double confirm_windows_per_kb = 0;
  double fallback_scans = 0;  ///< per replay pass over the sample
  double avg_ip_bytes = 0;
  double avg_payload_bytes = 0;
};
ReplayCosts measure_replays(const TrafficSample& sample,
                            const std::vector<endbox::idps::SnortRule>& rules);

}  // namespace perfbench
