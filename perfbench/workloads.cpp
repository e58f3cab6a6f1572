// The benchmark's workloads, the pass runner that times them, and the
// correctness pass each workload runs once per benchmark run.
//
// aquamac-lint: allow-file(wall-clock) -- host-time measurement only.

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "checks.hpp"
#include "harness/scenario.hpp"
#include "perf.hpp"
#include "util/json_writer.hpp"

namespace aquamac::perf {

std::string stats_json(const RunStats& stats) {
  std::ostringstream os;
  JsonWriter json{os};
  write_run_stats_json(json, stats);
  return os.str();
}

double JobResult::run_s() const {
  double total = 0.0;
  for (const double s : slices_s) total += s;
  return total;
}

double PassResult::setup_s() const {
  double total = 0.0;
  for (const JobResult& job : jobs) total += job.setup_s;
  return total;
}

double PassResult::run_s() const {
  double total = 0.0;
  for (const JobResult& job : jobs) total += job.run_s();
  return total;
}

std::uint64_t PassResult::events() const {
  std::uint64_t total = 0;
  for (const JobResult& job : jobs) total += job.events;
  return total;
}

JobResult run_job(const Job& job, std::size_t index, Observer* observer) {
  JobResult result;
  ScenarioConfig config = job.config;
  std::vector<Time> boundaries = job.boundaries;
  if (observer != nullptr) {
    observer->configure(index, config);
    for (const Time t : observer->extra_boundaries(index)) boundaries.push_back(t);
    std::sort(boundaries.begin(), boundaries.end());
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()), boundaries.end());
  }
  result.slices_s.reserve(boundaries.size() + 1);
  try {
    const Clock::time_point setup_start = Clock::now();
    Simulator sim{config.logger};
    Network network{sim, config};
    result.setup_s = seconds_since(setup_start);
    if (observer != nullptr) observer->constructed(index, network);

    RunBoundaryHooks hooks;
    hooks.boundaries = boundaries;
    Clock::time_point slice_start = Clock::now();
    hooks.on_boundary = [&](Time at) {
      result.slices_s.push_back(seconds_since(slice_start));
      slice_start = Clock::now();
      if (job.checkpoint_every > Duration::zero() &&
          (at - Time::zero()).count_ns() % job.checkpoint_every.count_ns() == 0) {
        result.last_checkpoint = make_checkpoint(network, job.config, at);
      }
      if (observer != nullptr) observer->boundary(index, network, at);
      return true;
    };
    slice_start = Clock::now();
    result.stats = network.run(hooks);
    result.slices_s.push_back(seconds_since(slice_start));
    result.events = sim.events_executed();
    result.windows = sim.windows_executed();
    if (observer != nullptr) observer->finished(index, network);
  } catch (const std::exception& e) {
    result.failed = true;
    result.error = e.what();
  }
  result.stats_json = stats_json(result.stats);
  return result;
}

PassResult run_pass(const std::vector<Job>& jobs, Observer* observer) {
  PassResult pass;
  pass.jobs.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) pass.jobs.push_back(run_job(jobs[i], i, observer));
  return pass;
}

namespace {

/// Fixed payload size of every workload (Table 2 data packets).
constexpr std::uint32_t kPacketBits = 2'048;
constexpr std::size_t kScaleNodes = 10'000;
constexpr std::size_t kMultihopNodes = 300;
/// EW-MAC on paper_default_scenario() at 1.0 kbps with this seed: the
/// fixed input on which the §4 extra-overlap theorem is gated.
constexpr std::uint64_t kOverlapCaseSeed = 3'028;

std::vector<Time> every(Duration step, Time from, Time to) {
  std::vector<Time> out;
  for (Time t = from + step; t < to; t += step) out.push_back(t);
  return out;
}

/// Paper Figs. 6 and 8 over paper_comparison_set() with three seeds per
/// (figure, load) cell, each simulation one slice (no boundaries). The
/// four protocols of a cell share its seeds, as in run_sweep, so the
/// Fig. 6 ordering is a paired comparison; unlike the figure benches,
/// every load draws its own seeds, so one run spans 48 deployments and
/// its work varies little from one --seed to the next.
Workload paper_figures(std::uint64_t seed) {
  Workload w;
  w.name = "paper-figures";
  w.nominal_pass_s = 3.6;
  const double fig6_loads[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  const double fig8_loads[] = {0.01, 0.2, 0.4, 0.6, 0.8, 1.0};
  std::uint64_t cell_seed = 1'000 * seed + 1;
  for (const double load : fig6_loads) {
    for (const MacKind mac : paper_comparison_set()) {
      for (std::uint64_t k = 0; k < 3; ++k) {
        Job job;
        job.figure = "fig6";
        job.x = load;
        job.config = paper_default_scenario();
        job.config.mac = mac;
        job.config.seed = cell_seed + k;
        job.config.traffic.offered_load_kbps = load;
        if (mac == MacKind::kEwMac && load == 1.0 && k == 0) w.representative = w.jobs.size();
        w.jobs.push_back(job);
      }
    }
    cell_seed += 3;
  }
  for (const double load : fig8_loads) {
    for (const MacKind mac : paper_comparison_set()) {
      for (std::uint64_t k = 0; k < 3; ++k) {
        Job job;
        job.figure = "fig8";
        job.x = load;
        job.config = paper_default_scenario();
        job.config.mac = mac;
        job.config.seed = cell_seed + k;
        job.config.traffic.mode = TrafficMode::kBatch;
        job.config.sim_time = Duration::seconds(1'200);
        job.config.traffic.batch_packets = static_cast<std::uint32_t>(
            std::max(1.0, std::round(load * 1'000.0 * 300.0 / kPacketBits)));
        w.jobs.push_back(job);
      }
    }
    cell_seed += 3;
  }
  return w;
}

ScenarioConfig scale_config(std::uint64_t seed) {
  ScenarioConfig config = grid3d_scenario(kScaleNodes, seed);
  config.sim_time = Duration::seconds(8);
  return config;
}

/// grid3d at ~10^4 nodes (EW-MAC, Bellhop-lite, mobility) over an 18 s
/// horizon, sliced every 0.1 simulated seconds.
Workload scale_grid(std::uint64_t seed) {
  Workload w;
  w.name = "scale-grid";
  w.nominal_pass_s = 2.2;
  Job job;
  job.config = scale_config(seed);
  job.boundaries = every(Duration::milliseconds(100), Time::zero(),
                         Time::zero() + job.config.hello_window + job.config.sim_time);
  w.jobs.push_back(job);
  return w;
}

/// A static grid under DV routing with custody ARQ, node outages and
/// Gilbert-Elliott loss, run for a simulated hour with a checkpoint
/// every ten minutes.
Workload multihop_dv(std::uint64_t seed) {
  Workload w;
  w.name = "multihop-dv";
  w.nominal_pass_s = 2.0;
  Job job;
  ScenarioConfig& c = job.config;
  c = grid3d_scenario(kMultihopNodes, seed);
  c.propagation = PropagationKind::kStraightLine;
  c.enable_mobility = false;
  c.multi_hop = true;
  c.routing = RoutingKind::kDv;
  c.sim_time = Duration::seconds(3'600);
  c.traffic.offered_load_kbps = 0.2;
  c.mac_config.max_retries = 4;
  c.mac_config.dead_neighbor_threshold = 3;
  c.reliability.max_retries = 3;
  c.reliability.queue_limit = 8;
  c.fault.outage_rate_per_hour = 0.5;
  c.fault.outage_mean_duration = Duration::seconds(60);
  c.fault.ge_p_bad = 0.02;
  job.checkpoint_every = Duration::seconds(600);
  job.boundaries = every(Duration::seconds(30), Time::zero(),
                         Time::zero() + c.hello_window + c.sim_time);
  w.jobs.push_back(job);
  return w;
}

// ----------------------------------------------------------------------
// Correctness passes.

/// Builds the multi-hop packet ledger from the relay events and forwards
/// the stream to the auditor.
class LedgerRecorder final : public TraceSink {
 public:
  explicit LedgerRecorder(TraceSink& next) : next_{next} {}
  void record(const TraceEvent& event) override {
    const PacketId packet{event.src, event.seq};
    switch (event.kind) {
      case TraceEventKind::kRelayOriginate: ledger.originated.push_back(packet); break;
      case TraceEventKind::kRelayArrive: ledger.arrivals.push_back({event.node, packet}); break;
      case TraceEventKind::kRelayDeadLetter:
        ledger.dead_letters.push_back({packet, event.b});
        break;
      default: break;
    }
    next_.record(event);
  }
  E2eLedger ledger;

 private:
  TraceSink& next_;
};

/// A serial run with a HashTrace and a channel audit that checks every
/// 64th transmission's receiver set against a brute-force scan of all
/// modems through the propagation model.
class SampledReachAudit final : public Observer {
 public:
  void configure(std::size_t, ScenarioConfig& config) override { config.trace = &hash; }
  void constructed(std::size_t, Network& network) override {
    network.channel().set_audit([this, &network](const TransmissionAudit& audit) {
      if (transmissions++ % 64 != 0) return;
      ++sampled;
      AcousticChannel& channel = network.channel();
      const Vec3 from = network.node(audit.sender).modem().position();
      const double cutoff = channel.interference_cutoff_m();
      std::vector<std::uint32_t> reported;
      double farthest = 0.0;
      for (const TransmissionAudit::Reach& reach : audit.reaches) {
        reported.push_back(reach.receiver);
        farthest = std::max(
            farthest, from.distance_to(network.node(reach.receiver).modem().position()));
      }
      std::sort(reported.begin(), reported.end());
      std::vector<std::uint32_t> brute;
      for (std::size_t j = 0; j < network.node_count(); ++j) {
        if (j == audit.sender) continue;
        const Vec3 to = network.node(static_cast<NodeId>(j)).modem().position();
        if (from.distance_to(to) > cutoff) continue;
        if (channel.path_between(from, to).length_m <= channel.config().interference_range_m) {
          brute.push_back(static_cast<std::uint32_t>(j));
        }
      }
      if (!receivers_match(reported, brute, farthest, cutoff)) ++mismatches;
    });
  }

  HashTrace hash;
  std::uint64_t transmissions{0};
  std::uint64_t sampled{0};
  std::uint64_t mismatches{0};
};

class HashOnly final : public Observer {
 public:
  void configure(std::size_t, ScenarioConfig& config) override { config.trace = &hash; }
  HashTrace hash;
};

bool passes_identical(const std::vector<PassResult>& passes) {
  for (const PassResult& pass : passes) {
    if (pass.jobs.size() != passes.front().jobs.size()) return false;
    for (std::size_t j = 0; j < pass.jobs.size(); ++j) {
      const JobResult& a = passes.front().jobs[j];
      const JobResult& b = pass.jobs[j];
      if (a.failed || b.failed || !same_stats(a.stats_json, b.stats_json) ||
          a.events != b.events || a.slices_s.size() != b.slices_s.size()) {
        return false;
      }
    }
  }
  return true;
}

void check_paper_figures(const Workload& w, const PassResult& pass, Verdict& verdict) {
  bool bits = true;
  bool throughput = true;
  bool offered = true;
  bool energy = true;
  // fig6 mean throughput per (load, protocol) over the seeds.
  std::map<double, std::map<MacKind, double>> fig6;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const Job& job = w.jobs[i];
    const RunStats& stats = pass.jobs[i].stats;
    bits = bits && bits_match_packets(stats, kPacketBits);
    throughput = throughput && throughput_matches_bits(stats);
    offered = offered && delivered_within_offered(stats);
    energy = energy && energy_within_power_bounds(stats, job.config.power);
    if (job.figure == "fig6") fig6[job.x][job.config.mac] += stats.throughput_kbps / 3.0;
  }
  verdict.check("bits_delivered = packets_delivered x packet_bits", bits);
  verdict.check("throughput_kbps recomputed from bits / traffic_duration_s", throughput);
  verdict.check("delivered <= offered", offered);
  verdict.check("energy within N*idle_w*elapsed .. N*tx_w*elapsed", energy);
  bool ordering = true;
  for (const auto& [load, by_mac] : fig6) {
    if (load >= 0.8 - 1e-9) ordering = ordering && fig6_ordering_holds(by_mac);
  }
  verdict.check("Fig. 6: EW-MAC > ROPA and EW-MAC > S-FAMA at load >= 0.8", ordering);

  // One audit per protocol at the heaviest Fig. 6 load.
  for (const MacKind mac : paper_comparison_set()) {
    Job job = w.jobs[w.representative];
    job.config.mac = mac;
    InvariantAuditor auditor{auditor_config_for(job.config)};
    job.config.trace = &auditor;
    const JobResult run = run_job(job, 0, nullptr);
    verdict.count(run);
    const std::string name{to_string(mac)};
    verdict.check("auditor clean: " + name, !run.failed && auditor_clean(auditor));
    verdict.note(name + " extra packets overlapping a negotiated packet: " +
                 std::to_string(extra_overlaps(auditor)));
  }

  // The §4 extra-overlap theorem binds EW-MAC, which claims it, on a
  // fixed input: a run whose audit records an overlap is a failed
  // simulation. On this input EW-MAC breaks the theorem, so until that
  // fault is mended every run reports the same one failed simulation.
  Job theorem_case;
  theorem_case.config = paper_default_scenario();
  theorem_case.config.mac = MacKind::kEwMac;
  theorem_case.config.seed = kOverlapCaseSeed;
  theorem_case.config.traffic.offered_load_kbps = 1.0;
  InvariantAuditor theorem{auditor_config_for(theorem_case.config)};
  theorem_case.config.trace = &theorem;
  JobResult run = run_job(theorem_case, 0, nullptr);
  if (!run.failed) verdict.check("auditor clean: EW-MAC, fixed input", auditor_clean(theorem));
  for (const InvariantAuditor::Violation& v : theorem.violations()) {
    if (run.failed || v.kind != InvariantKind::kExtraOverlap) continue;
    run.failed = true;
    run.error = "EW-MAC seed " + std::to_string(kOverlapCaseSeed) +
                " breaks the extra-overlap theorem: " + v.detail;
  }
  verdict.count(run);
}

void check_scale(const Workload& w, const PassResult& pass, Verdict& verdict) {
  SampledReachAudit audit;
  const JobResult traced = run_job(w.jobs.front(), 0, &audit);
  verdict.count(traced);
  verdict.check("traced serial run reproduces the timed RunStats",
                !traced.failed && same_stats(traced.stats_json, pass.jobs.front().stats_json) &&
                    traced.events == pass.jobs.front().events);
  verdict.check("channel receiver sets equal a brute-force scan (" +
                    std::to_string(audit.sampled) + " transmissions sampled)",
                audit.sampled > 0 && audit.mismatches == 0);

  Job sharded = w.jobs.front();
  sharded.config.shards = 2;
  HashOnly hash;
  const JobResult two = run_job(sharded, 0, &hash);
  verdict.count(two);
  verdict.check("serial and 2-shard HashTrace digests equal",
                !two.failed && hash.hash.digest() == audit.hash.digest());
}

void check_multihop(const Workload& w, const PassResult& pass, Verdict& verdict) {
  const Job& job = w.jobs.front();
  const JobResult& timed = pass.jobs.front();

  bool resumed_ok = false;
  if (timed.last_checkpoint) {
    ++verdict.attempted;
    try {
      const RunStats resumed = resume_scenario(*timed.last_checkpoint, job.config);
      resumed_ok = same_stats(stats_json(resumed), timed.stats_json);
    } catch (const std::exception&) {
      ++verdict.failed;
    }
  }
  verdict.check("resume from the last checkpoint reproduces the straight run", resumed_ok);

  Job audited = job;
  InvariantAuditor auditor{auditor_config_for(job.config)};
  LedgerRecorder recorder{auditor};
  audited.config.trace = &recorder;
  const JobResult run = run_job(audited, 0, nullptr);
  verdict.count(run);
  verdict.check("auditor clean", !run.failed && auditor_clean(auditor));
  verdict.note("extra packets overlapping a negotiated packet: " +
               std::to_string(extra_overlaps(auditor)));
  verdict.check("RunStats e2e counters equal the trace ledger (" +
                    std::to_string(recorder.ledger.originated.size()) + " originated, " +
                    std::to_string(recorder.ledger.arrivals.size()) + " sink arrivals, " +
                    std::to_string(recorder.ledger.dead_letters.size()) + " dead letters)",
                !run.failed && e2e_conserved(recorder.ledger, run.stats));
  verdict.check("zero duplicate sink deliveries (" +
                    std::to_string(recorder.ledger.arrivals.size()) + " arrivals)",
                !run.failed && !recorder.ledger.arrivals.empty() &&
                    no_duplicate_arrivals(recorder.ledger.arrivals));
  const RunStats& s = timed.stats;
  const std::uint64_t counted = s.e2e_arrived_at_sink + s.e2e_dropped_no_route +
                                s.e2e_dropped_hop_limit + s.e2e_dropped_mac +
                                s.e2e_dead_letter_exhausted + s.e2e_dead_letter_overflow +
                                s.e2e_dead_letter_no_route;
  verdict.note("RunStats counts copies: arrived_at_sink + drops + dead letters = " +
               std::to_string(counted) + " vs originated = " + std::to_string(s.e2e_originated));
  verdict.check("audited run reproduces the timed RunStats",
                same_stats(run.stats_json, timed.stats_json));
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper-figures") return paper_figures(seed);
  if (name == "scale-grid") return scale_grid(seed);
  if (name == "multihop-dv") return multihop_dv(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

void check_workload(const Workload& workload, const std::vector<PassResult>& passes,
                    Verdict& verdict) {
  verdict.check("every pass gives identical RunStats and event counts",
                passes_identical(passes));
  const PassResult& first = passes.front();
  if (workload.name == "paper-figures") check_paper_figures(workload, first, verdict);
  if (workload.name == "scale-grid") check_scale(workload, first, verdict);
  if (workload.name == "multihop-dv") check_multihop(workload, first, verdict);

  const Job& sample = workload.jobs[workload.representative];
  const std::vector<std::string> broken =
      self_test(first.jobs[workload.representative].stats, sample.config.power, kPacketBits);
  std::string names;
  for (const std::string& name : broken) names += " " + name;
  verdict.check("self-test: every check rejects its perturbed input" +
                    (broken.empty() ? std::string{} : ":" + names),
                broken.empty());
}

}  // namespace aquamac::perf
