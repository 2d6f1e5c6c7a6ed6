// endbox_perfbench: one wall-clock run of one EndBox workload.
//
//   endbox_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans-out <file>]
//
// Untraced (--trace 0): sets the deployment up several times (setup_s
// is the median), warms up, proves the output check catches a
// corrupted delivery, then runs closed-loop rounds for --seconds in 14
// windows and prints the end-to-end metrics (medians over windows).
// Traced (--trace 1): an untraced half, then a traced half with spans
// and allocation counting around every call, then per-layer replays;
// prints the per-layer metrics and the waterfall. The last stdout line
// is one JSON object; the exit code is non-zero when a check failed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "sim/perf_model.hpp"

namespace perfbench {

// ---- Tracer -------------------------------------------------------------------
std::uint32_t Tracer::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t Tracer::open(std::uint32_t name) {
  if (!enabled || spans_.size() >= kMaxSpans) return -1;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.round = round;
  span.start = now_ns();
  spans_.push_back(span);
  auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end = now_ns();
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_)
    out << "{\"name\":\"" << names_[s.name] << "\",\"start_ns\":" << s.start
        << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent << ",\"round\":" << s.round
        << "}\n";
  return static_cast<bool>(out);
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

constexpr int kSetups = 9;           ///< deployments built per run (setup_s median)
constexpr int kWindows = 14;         ///< untraced run: windows the metrics take medians over
constexpr double kWarmupSeconds = 0.5;
constexpr int kWarmupRounds = 4;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

double LatencySample::quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> v = values_;
  auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

namespace {

void merge(Tally& into, const Tally& t) {
  into.round_ns += t.round_ns;
  into.attempted += t.attempted;
  into.failed += t.failed;
  into.delivered += t.delivered;
  into.payload_bytes += t.payload_bytes;
  into.expected_drops += t.expected_drops;
  into.click_rejected += t.click_rejected;
  into.click_seen += t.click_seen;
  into.bypassed += t.bypassed;
  into.ingress_complete += t.ingress_complete;
  into.open_packets += t.open_packets;
  into.seal_frames += t.seal_frames;
  for (auto [a, b] : {std::pair{&into.egress, &t.egress}, {&into.ingress, &t.ingress},
                      {&into.open, &t.open}, {&into.seal, &t.seal}}) {
    a->ns += b->ns;
    a->items += b->items;
    a->allocs += b->allocs;
  }
  into.round_log.insert(into.round_log.end(), t.round_log.begin(), t.round_log.end());
}

/// One round: generate inputs, drive them through, check the outputs.
/// Each round is bracketed by host-speed probes (outside its timing);
/// their mean sets the round's normalisation scale.
void round_trip(Workload& w, Tally& tally, Tracer& tracer) {
  double probe_before = probe_ns();
  RoundRecord rec;
  rec.ns = tally.round_ns;
  rec.delivered = tally.delivered;
  rec.payload_bytes = tally.payload_bytes;
  rec.client_ns = tally.egress.ns + tally.ingress.ns;
  rec.server_ns = tally.open.ns + tally.seal.ns;
  w.prepare_round();
  w.run_round(tally, tracer);
  ++tracer.round;
  w.check_round(tally);
  rec.ns = tally.round_ns - rec.ns;
  rec.delivered = tally.delivered - rec.delivered;
  rec.payload_bytes = tally.payload_bytes - rec.payload_bytes;
  rec.client_ns = tally.egress.ns + tally.ingress.ns - rec.client_ns;
  rec.server_ns = tally.open.ns + tally.seal.ns - rec.server_ns;
  rec.scale = kReferenceProbeNs / (0.5 * (probe_before + probe_ns()));
  tally.round_log.push_back(rec);
  for (std::uint32_t ns : tally.latency_ns) {
    tally.latency_raw.add(ns);
    tally.latency_norm.add(ns * rec.scale);
  }
  tally.latency_ns.clear();
}

/// Runs rounds for `seconds` of wall time split into `windows` windows.
std::vector<Tally> run_phase(Workload& w, Tracer& tracer, double seconds, int windows) {
  std::vector<Tally> out(static_cast<std::size_t>(windows));
  auto window_ns = static_cast<std::uint64_t>(seconds * 1e9 / windows);
  for (Tally& tally : out) {
    std::uint64_t start = now_ns();
    do round_trip(w, tally, tracer);
    while (now_ns() - start < window_ns);
  }
  return out;
}

Tally total_of(const std::vector<Tally>& windows) {
  Tally total;
  for (const Tally& t : windows) merge(total, t);
  return total;
}

struct EndToEnd {
  double pps = 0, goodput_mbps = 0, lat_p50_us = 0, lat_p99_us = 0;
  double server_ns_per_pkt = 0, client_ns_per_pkt = 0;
};

/// End-to-end metrics of a set of rounds. Normalised: every round's
/// times are scaled by its probe scale, i.e. expressed at the host
/// speed where the probe takes kReferenceProbeNs. Raw: as measured.
EndToEnd end_to_end(const Tally& t, bool normalised = true) {
  double ns = 0, server = 0, client = 0, delivered = 0, payload = 0;
  for (const RoundRecord& r : t.round_log) {
    double scale = normalised ? r.scale : 1.0;
    ns += static_cast<double>(r.ns) * scale;
    server += static_cast<double>(r.server_ns) * scale;
    client += static_cast<double>(r.client_ns) * scale;
    delivered += static_cast<double>(r.delivered);
    payload += static_cast<double>(r.payload_bytes);
  }
  const LatencySample& lat = normalised ? t.latency_norm : t.latency_raw;
  EndToEnd e;
  e.pps = ratio(delivered, ns / 1e9);
  e.goodput_mbps = ratio(payload * 8.0, ns / 1e9) / 1e6;
  e.lat_p50_us = lat.quantile(0.50) / 1000.0;
  e.lat_p99_us = lat.quantile(0.99) / 1000.0;
  e.server_ns_per_pkt = ratio(server, delivered);
  e.client_ns_per_pkt = ratio(client, delivered);
  return e;
}

/// Medians over windows, so one disturbed window does not move a row.
EndToEnd median_end_to_end(const std::vector<Tally>& windows, bool normalised = true) {
  std::vector<double> cols[6];
  for (const Tally& t : windows) {
    EndToEnd e = end_to_end(t, normalised);
    double row[6] = {e.pps, e.goodput_mbps, e.lat_p50_us, e.lat_p99_us, e.server_ns_per_pkt,
                     e.client_ns_per_pkt};
    for (int i = 0; i < 6; ++i) cols[i].push_back(row[i]);
  }
  return {median(cols[0]), median(cols[1]), median(cols[2]),
          median(cols[3]), median(cols[4]), median(cols[5])};
}

void pin_to_current_cpu() {
  int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    try {
      if (key == "--workload") args.workload = value;
      else if (key == "--seed") args.seed = std::stoull(value);
      else if (key == "--seconds") args.seconds = std::stod(value);
      else if (key == "--trace") args.trace = value == "1";
      else if (key == "--spans-out") args.spans_out = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const Report& report) {
  std::ostringstream os;
  os.precision(12);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0;
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_rows(const Report& report) {
  for (const Metric& m : report.metrics)
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// Waterfall of the traced phase: each call's wall time per item, the
/// replayed layer costs it contains, and the unattributed remainder.
void print_waterfall(const std::string& workload, const Tally& t, const ReplayCosts& r,
                     const Report& layers) {
  double round = static_cast<double>(t.round_ns);
  auto stage = [&](const char* name, const Stage& s, double per) {
    std::printf("  %-40s %12.1f ns  (%5.1f%% of round time)\n", name,
                ratio(static_cast<double>(s.ns), per), 100.0 * ratio(static_cast<double>(s.ns), round));
  };
  auto part = [&](const char* name, double ns) { std::printf("    %-38s %12.1f ns\n", name, ns); };
  double click_share = 1.0 - ratio(static_cast<double>(t.bypassed), static_cast<double>(t.ingress_complete));
  std::printf("waterfall %s (traced phase, wall ns per item of each call)\n", workload.c_str());
  stage("endbox.egress_batch (per packet)", t.egress, static_cast<double>(t.egress.items));
  part("click.graph (sender config)", r.click_sender);
  part("net.serialize", r.up_serialize);
  part("crypto.aes_enc", r.up_aes_enc);
  part("crypto.hmac", r.up_hmac);
  part("endbox.egress_unattributed_ns", layers.get("endbox.egress_unattributed_ns"));
  stage("vpn.open_batch (per frame)", t.open, static_cast<double>(t.open.items));
  part("crypto.aes_dec", r.up_aes_dec);
  part("crypto.hmac", r.up_hmac);
  part("vpn.open_unattributed_ns", layers.get("vpn.open_unattributed_ns"));
  stage("vpn.seal_jobs (per frame)", t.seal, static_cast<double>(t.seal_frames));
  part("crypto.aes_enc", r.aes_enc);
  part("crypto.hmac", r.hmac);
  part("vpn.seal_unattributed_ns", layers.get("vpn.seal_unattributed_ns"));
  stage("endbox.ingress_batch (per packet)", t.ingress, static_cast<double>(t.ingress.items));
  part("crypto.aes_dec", r.aes_dec);
  part("crypto.hmac", r.hmac);
  part("net.parse", r.parse);
  part("click.graph (receiver config x share)", r.click_receiver * click_share);
  part("endbox.ingress_unattributed_ns", layers.get("endbox.ingress_unattributed_ns"));
  std::uint64_t calls = t.egress.ns + t.open.ns + t.seal.ns + t.ingress.ns;
  std::printf("  %-40s %12.1f ns per delivered packet (%5.1f%% of round time)\n",
              "harness (routing, strip, swaps)",
              ratio(round - static_cast<double>(calls), static_cast<double>(t.delivered)),
              100.0 * ratio(round - static_cast<double>(calls), round));
}

/// Per-layer rows of the traced phase (names as in BENCHMARK.json).
Report per_layer(const Tally& t, const SystemCounters& c, const ReplayCosts& r,
                 const Calibration& calib, double untraced_pps) {
  Report rep;
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  double egress = ratio(d(t.egress.ns), d(t.egress.items));
  double ingress = ratio(d(t.ingress.ns), d(t.ingress.items));
  double open = ratio(d(t.open.ns), d(t.open.items));
  double seal = ratio(d(t.seal.ns), d(t.seal_frames));
  double click_ingress = d(t.ingress_complete - t.bypassed);
  double click_share = ratio(click_ingress, d(t.ingress_complete));
  rep.add("endbox.egress_ns_per_pkt", egress, "ns");
  rep.add("endbox.ingress_ns_per_pkt", ingress, "ns");
  rep.add("endbox.egress_unattributed_ns",
          egress - (r.click_sender + r.up_serialize + r.up_aes_enc + r.up_hmac), "ns");
  rep.add("endbox.ingress_unattributed_ns",
          ingress - (r.aes_dec + r.hmac + r.parse + r.click_receiver * click_share), "ns");
  rep.add("endbox.c2c_bypass_ratio", ratio(d(t.bypassed), d(t.ingress_complete)), "ratio");
  rep.add("endbox.click_reject_ratio", ratio(d(t.click_rejected), d(t.click_seen)), "ratio");
  rep.add("endbox.alloc_per_pkt",
          ratio(d(t.egress.allocs + t.ingress.allocs), d(t.egress.items + t.ingress.items)),
          "count");
  rep.add("vpn.open_ns_per_frame", open, "ns");
  rep.add("vpn.seal_ns_per_frame", seal, "ns");
  rep.add("vpn.open_unattributed_ns", open - (r.up_aes_dec + r.up_hmac), "ns");
  rep.add("vpn.seal_unattributed_ns", seal - (r.aes_enc + r.hmac), "ns");
  rep.add("vpn.alloc_per_frame",
          ratio(d(t.open.allocs + t.seal.allocs), d(t.open.items + t.seal_frames)), "count");
  rep.add("vpn.frames_per_pkt",
          ratio(d(t.open.items + t.seal_frames), d(t.open_packets + t.seal.items)), "ratio");
  rep.add("vpn.lane_imbalance", c.lane_imbalance, "ratio");
  rep.add("vpn.ring_peak", d(c.ring_peak), "count");
  rep.add("vpn.pool_starved", d(c.pool_starved), "count");
  rep.add("vpn.rejected", d(c.vpn_rejected), "count");
  rep.add("crypto.aes_enc_ns_per_pkt", r.aes_enc, "ns");
  rep.add("crypto.aes_dec_ns_per_pkt", r.aes_dec, "ns");
  rep.add("crypto.hmac_ns_per_pkt", r.hmac, "ns");
  rep.add("net.parse_ns_per_pkt", r.parse, "ns");
  rep.add("net.serialize_ns_per_pkt", r.serialize, "ns");
  // Weighted over the packets that entered a graph in the traced phase:
  // sender graphs on egress, receiver graphs on non-bypassed ingress.
  rep.add("click.graph_ns_per_pkt",
          ratio(r.click_sender * d(t.egress.items) + r.click_receiver * click_ingress,
                d(t.egress.items) + click_ingress),
          "ns");
  rep.add("elements.stream_ns_per_pkt", r.stream, "ns");
  rep.add("elements.segments_parked", d(c.segments_parked), "count");
  rep.add("elements.bytes_buffered_peak", d(c.bytes_buffered_peak), "bytes");
  rep.add("elements.flows_killed", d(c.flows_killed), "count");
  rep.add("elements.evasions_caught", d(c.evasions_caught), "count");
  rep.add("idps.inspect_ns_per_pkt", r.idps_inspect, "ns");
  rep.add("idps.prefilter_ns_per_kb", r.prefilter_ns_per_kb, "ns/KiB");
  rep.add("idps.confirm_windows_per_kb", r.confirm_windows_per_kb, "1/KiB");
  rep.add("idps.fallback_scans", r.fallback_scans, "count");
  const endbox::sim::PerfModel& model = endbox::sim::default_perf_model();
  double model_vpn_ns = 2.0 * model.vpn_data_cycles(static_cast<std::size_t>(r.avg_ip_bytes), true) /
                        model.server_hz * 1e9;
  double model_idps_ns = model.idps_cycles_per_byte * r.avg_payload_bytes / model.client_hz * 1e9;
  rep.add("sim.model_vpn_ratio", ratio(open + seal, model_vpn_ns), "ratio");
  rep.add("sim.model_idps_ratio", ratio(r.idps_inspect, model_idps_ns), "ratio");
  rep.add("calib.memcpy_1500B_ns", calib.memcpy_1500B_ns, "ns");
  rep.add("calib.alu_ns", calib.alu_ns, "ns");
  double probe = 0;
  for (const RoundRecord& rec : t.round_log) probe += kReferenceProbeNs / rec.scale;
  rep.add("calib.probe_ns", ratio(probe, d(t.round_log.size())), "ns");
  rep.add("trace.overhead_ratio", ratio(untraced_pps, end_to_end(t).pps), "ratio");
  return rep;
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (!w) {
    std::cerr << "unknown workload '" << args.workload << "'; one of:";
    for (const std::string& name : workload_names()) std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  Calibration calib = measure_calibration();
  std::printf("calibration: memcpy 1500B %.1f ns, 1000-step ALU chain %.1f ns\n",
              calib.memcpy_1500B_ns, calib.alu_ns);

  // Set-up: World construction — attestation, provisioning, rule
  // compile, config install, handshakes. Built kSetups times; the last
  // deployment carries the run.
  std::vector<double> setups, setups_raw;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) w->teardown();
    double probe_before = probe_ns();
    std::uint64_t t0 = now_ns();
    w->setup(args.seed);
    double secs = static_cast<double>(now_ns() - t0) / 1e9;
    setups_raw.push_back(secs);
    setups.push_back(secs * kReferenceProbeNs / (0.5 * (probe_before + probe_ns())));
  }
  double setup_s = median(setups);
  // Keep the driving thread (egress/ingress ecalls, lane dispatch, the
  // probes) on one CPU from here on, so each round's probe measures the
  // CPU its ecalls ran on. The gateway's lane workers were created
  // during set-up and keep the full CPU set.
  pin_to_current_cpu();
  std::printf("setup: %d builds, median %.4f s normalised, %.4f s raw\n", kSetups, setup_s,
              median(setups_raw));

  Tracer tracer;
  Tally checked;  // every checked round except the deliberate self-test one
  {
    Tally warm;
    std::uint64_t start = now_ns();
    for (int i = 0; i < kWarmupRounds || now_ns() - start < kWarmupSeconds * 1e9; ++i)
      round_trip(*w, warm, tracer);
    merge(checked, warm);
  }
  // Self-test: the check must catch one flipped byte in the benchmark's
  // copy of a delivered packet.
  bool self_test_ok;
  {
    Tally probe;
    w->corrupt_next_check();
    round_trip(*w, probe, tracer);
    self_test_ok = probe.failed > 0;
    std::printf("self_test: corrupted delivery %s (%llu mismatch)\n",
                self_test_ok ? "caught" : "NOT caught",
                static_cast<unsigned long long>(probe.failed));
  }

  double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  int windows = args.trace ? kWindows / 2 : kWindows;
  std::vector<Tally> untraced = run_phase(*w, tracer, untraced_seconds, windows);
  Tally phase = total_of(untraced);
  merge(checked, phase);
  EndToEnd e2e = median_end_to_end(untraced);
  std::uint64_t latency_samples = 0;
  for (const Tally& t : untraced) latency_samples += t.latency_norm.seen();
  {
    EndToEnd raw = median_end_to_end(untraced, false);
    double scale = 0;
    for (const RoundRecord& r : phase.round_log) scale += r.scale;
    scale /= static_cast<double>(std::max<std::size_t>(phase.round_log.size(), 1));
    std::printf("raw (as measured, not normalised): pps %.1f, goodput %.2f Mbit/s, "
                "lat p50 %.1f us, p99 %.1f us, server %.1f ns/pkt, client %.1f ns/pkt; "
                "mean probe scale %.3f (probe %.0f ns vs reference %.0f ns)\n",
                raw.pps, raw.goodput_mbps, raw.lat_p50_us, raw.lat_p99_us, raw.server_ns_per_pkt,
                raw.client_ns_per_pkt, scale, kReferenceProbeNs / scale, kReferenceProbeNs);
  }

  Report report;
  if (!args.trace) {
    report.add("pps", e2e.pps, "1/s");
    report.add("goodput_mbps", e2e.goodput_mbps, "Mbit/s");
    report.add("lat_p50_us", e2e.lat_p50_us, "us");
    report.add("lat_p99_us", e2e.lat_p99_us, "us");
    report.add("server_ns_per_pkt", e2e.server_ns_per_pkt, "ns");
    report.add("client_ns_per_pkt", e2e.client_ns_per_pkt, "ns");
    report.add("setup_s", setup_s, "s");
    report.add("rss_mb", peak_rss_mb(), "MB");
  } else {
    w->reset_counters();
    w->set_sampling(true);
    tracer.enabled = true;
    g_count_allocs = true;
    std::vector<Tally> traced_windows = run_phase(*w, tracer, args.seconds / 2, 1);
    g_count_allocs = false;
    tracer.enabled = false;
    w->set_sampling(false);
    Tally traced = total_of(traced_windows);
    merge(checked, traced);
    SystemCounters counters = w->counters();
    ReplayCosts costs = measure_replays(w->sample(), w->rules());
    report = per_layer(traced, counters, costs, calib, e2e.pps);
    print_waterfall(args.workload, traced, costs, report);
    if (!args.spans_out.empty()) {
      bool ok = tracer.write_jsonl(args.spans_out);
      std::printf("spans: %zu %s %s\n", tracer.span_count(), ok ? "written to" : "FAILED to write",
                  args.spans_out.c_str());
    }
  }

  double fail_ratio = ratio(static_cast<double>(checked.failed), static_cast<double>(checked.attempted));
  std::printf("rounds=%llu delivered=%llu attempted=%llu failed=%llu expected_drops=%llu "
              "latency_samples=%zu\n",
              static_cast<unsigned long long>(phase.round_log.size()),
              static_cast<unsigned long long>(phase.delivered),
              static_cast<unsigned long long>(checked.attempted),
              static_cast<unsigned long long>(checked.failed),
              static_cast<unsigned long long>(phase.expected_drops),
              static_cast<std::size_t>(latency_samples));
  std::printf("fail_ratio %.6g (%llu/%llu)\n", fail_ratio,
              static_cast<unsigned long long>(checked.failed),
              static_cast<unsigned long long>(checked.attempted));
  print_rows(report);
  bool correct = checked.failed == 0 && self_test_ok && checked.attempted > 0;
  print_json(correct, checked.attempted, checked.failed, report);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: endbox_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <file>]\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
