// aquamac-lint: allow-file(wall-clock) -- host-time measurement only.

#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>

#include "channel/acoustic_channel.hpp"
#include "checks.hpp"
#include "harness/scenario.hpp"
#include "net/route_table.hpp"
#include "net/routing.hpp"
#include "util/rng.hpp"

namespace aquamac::perf {

#ifndef AQUAMAC_PERF_COUNT_ALLOCS
AllocSnapshot alloc_snapshot() { return {}; }
bool alloc_counting() { return false; }
#endif

// ----------------------------------------------------------------------
// SpanTracer

void SpanTracer::open(const char* name) {
  ++seen_;
  std::int64_t stored = -1;
  const double start = now();
  if (spans_.size() < kMaxStoredSpans) {
    stored = static_cast<std::int64_t>(spans_.size());
    std::int64_t parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->stored >= 0) {
        parent = it->stored;
        break;
      }
    }
    spans_.push_back({name, start, start, parent});
  }
  stack_.push_back({name, start, 0.0, stored});
}

void SpanTracer::close() {
  const double end = now();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double duration = end - frame.start;
  self_[frame.name] += duration - frame.child;
  if (!stack_.empty()) stack_.back().child += duration;
  if (frame.stored >= 0) spans_[static_cast<std::size_t>(frame.stored)].end = end;
}

void SpanTracer::begin(SimPhase phase) {
  if (sim_ != nullptr) pending_peak_ = std::max(pending_peak_, sim_->pending_count());
  open(phase == SimPhase::kChannelDelivery ? "channel.delivery" : "mac.processing");
}

void SpanTracer::end(SimPhase /*phase*/) { close(); }

double SpanTracer::self_s(const std::string& name) const {
  const auto it = self_.find(name);
  return it == self_.end() ? 0.0 : it->second;
}

bool SpanTracer::write(const std::string& path) const {
  std::ofstream os{path};
  if (!os) return false;
  os << "id\tparent\tname\tstart_s\tend_s\n";
  os.precision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << '\t' << s.parent << '\t' << s.name << '\t' << s.start << '\t' << s.end << '\n';
  }
  return static_cast<bool>(os);
}

// ----------------------------------------------------------------------
// Probes

namespace {

template <typename Fn>
double best_of_three(Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 3; ++i) best = std::min(best, fn());
  return best;
}

/// Hold model: every fired event schedules its successor a random delay
/// ahead, and every fourth also cancels and re-arms another slot, so the
/// live set stays at `pending` while push, pop and cancel all run.
class QueueHold {
 public:
  QueueHold(std::size_t pending, std::uint64_t budget)
      : rng_{0x9e3779b97f4a7c15ULL}, handles_(pending), budget_{budget} {
    for (std::size_t slot = 0; slot < handles_.size(); ++slot) arm(slot);
  }

  std::uint64_t run() {
    sim_.run();
    return ops_;
  }

 private:
  void arm(std::size_t slot) {
    const Duration delay = Duration::from_seconds(rng_.uniform(0.0, 1.0));
    handles_[slot] = sim_.in(delay, [this, slot] { fire(slot); });
    ++ops_;
  }
  void fire(std::size_t slot) {
    ++ops_;  // the pop
    if (fired_++ >= budget_) return;
    arm(slot);
    if (fired_ % 4 == 0) {
      const std::size_t other = rng_.below(handles_.size());
      if (other != slot && sim_.cancel(handles_[other])) {
        ++ops_;
        arm(other);
      }
    }
  }

  Simulator sim_;
  Rng rng_;
  std::vector<EventHandle> handles_;
  std::uint64_t budget_;
  std::uint64_t fired_{0};
  std::uint64_t ops_{0};
};

}  // namespace

double queue_ops_per_s(std::size_t pending) {
  pending = std::max<std::size_t>(pending, 16);
  return 1.0 / best_of_three([pending] {
           constexpr std::uint64_t kEvents = 1'000'000;
           const Clock::time_point start = Clock::now();
           QueueHold hold{pending, kEvents};
           const std::uint64_t ops = hold.run();
           return seconds_since(start) / static_cast<double>(ops);
         });
}

double attach_s(const ScenarioConfig& config, const std::vector<Vec3>& positions) {
  return best_of_three([&config, &positions] {
    Simulator sim;
    const StraightLinePropagation propagation{config.sound_speed_mps};
    const DeterministicCollisionModel reception;
    std::vector<std::unique_ptr<AcousticModem>> modems;
    modems.reserve(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      modems.push_back(std::make_unique<AcousticModem>(sim, static_cast<NodeId>(i),
                                                       ModemConfig{}, reception, Rng{i}));
      modems.back()->set_position(positions[i]);
    }
    AcousticChannel channel{sim, propagation, config.channel};
    const Clock::time_point start = Clock::now();
    for (const auto& modem : modems) channel.attach(*modem);
    return seconds_since(start);
  });
}

double uphill_router_build_s(const std::vector<Vec3>& positions, double range_m) {
  return best_of_three([&positions, range_m] {
    const Clock::time_point start = Clock::now();
    const UphillRouter router{positions, range_m};
    const double s = seconds_since(start);
    return router.source_count() > positions.size() ? 0.0 : s;
  });
}

double route_table_build_s(const std::vector<std::map<NodeId, Duration>>& delays,
                           const std::vector<bool>& sinks) {
  return best_of_three([&delays, &sinks] {
    const Clock::time_point start = Clock::now();
    const RouteTable table = RouteTable::build(delays, sinks);
    const double s = seconds_since(start);
    return table.size() == delays.size() ? s : 0.0;
  });
}

double neighbor_update_per_s(std::size_t degree) {
  degree = std::max<std::size_t>(degree, 1);
  constexpr std::uint64_t kUpdates = 2'000'000;
  // aquamac-lint: allow(rng-root) -- probe-local stream; feeds no simulation run.
  Rng rng{0x5eedULL};
  std::vector<NodeId> ids(degree);
  for (NodeId& id : ids) id = static_cast<NodeId>(rng.below(60'000));
  return static_cast<double>(kUpdates) / best_of_three([&ids] {
           NeighborTable table;
           const Clock::time_point start = Clock::now();
           for (std::uint64_t k = 0; k < kUpdates; ++k) {
             table.update(ids[k % ids.size()], Duration::nanoseconds(static_cast<std::int64_t>(k)),
                          Time::from_ns(static_cast<std::int64_t>(k)), 0.5);
           }
           return seconds_since(start);
         });
}

// ----------------------------------------------------------------------
// The traced run

namespace {

std::uint64_t fold(std::uint64_t acc, std::uint64_t digest) {
  return (acc ^ digest) * 0x100000001b3ULL;
}

/// Allocation tallies around construction and run (no other
/// instrumentation: the plain pass of the traced run).
class AllocObserver final : public Observer {
 public:
  void configure(std::size_t, ScenarioConfig&) override { mark_ = alloc_snapshot(); }
  void constructed(std::size_t, Network&) override {
    const AllocSnapshot now = alloc_snapshot();
    setup_allocs += now.allocs - mark_.allocs;
    setup_bytes += now.bytes - mark_.bytes;
    mark_ = alloc_snapshot();
  }
  void finished(std::size_t, Network&) override {
    run_allocs += alloc_snapshot().allocs - mark_.allocs;
  }

  std::uint64_t setup_allocs{0};
  std::uint64_t setup_bytes{0};
  std::uint64_t run_allocs{0};

 private:
  AllocSnapshot mark_{};
};

class HashObserver final : public Observer {
 public:
  explicit HashObserver(std::size_t jobs) : hashes_(jobs) {}
  void configure(std::size_t job, ScenarioConfig& config) override {
    config.trace = &hashes_[job];
  }
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t acc = 0xcbf29ce484222325ULL;
    for (const HashTrace& h : hashes_) acc = fold(acc, h.digest());
    return acc;
  }

 private:
  std::vector<HashTrace> hashes_;
};

class AuditObserver final : public Observer {
 public:
  void configure(std::size_t, ScenarioConfig& config) override {
    auditors.push_back(std::make_unique<InvariantAuditor>(auditor_config_for(config)));
    config.trace = auditors.back().get();
  }
  std::vector<std::unique_ptr<InvariantAuditor>> auditors;
};

class ShardObserver final : public Observer {
 public:
  void configure(std::size_t, ScenarioConfig& config) override { config.shards = 2; }
};

/// The traced pass: spans, phase hooks and the channel reach audit, plus
/// the representative job's layer inputs and a mid-horizon checkpoint.
/// With `hash` set, the pass also digests its trace (and skips the
/// checkpoint, which would then carry a trace position).
class TracedObserver final : public Observer {
 public:
  TracedObserver(const Workload& workload, SpanTracer& tracer, HashObserver* hash)
      : workload_{workload}, tracer_{tracer}, hash_{hash} {
    const ScenarioConfig& rep = workload.jobs[workload.representative].config;
    capture_at_ = Time::zero() + rep.hello_window + rep.sim_time / 2;
  }

  void configure(std::size_t job, ScenarioConfig& config) override {
    if (hash_ != nullptr) hash_->configure(job, config);
    tracer_.open("setup");
  }

  void constructed(std::size_t job, Network& network) override {
    tracer_.close();
    tracer_.set_simulator(&network.simulator());
    AcousticChannel& channel = network.channel();
    channel.set_phase_hook(&tracer_);
    for (std::size_t i = 0; i < network.node_count(); ++i) {
      network.node(static_cast<NodeId>(i)).modem().set_phase_hook(&tracer_);
    }
    channel.set_audit([this](const TransmissionAudit& audit) {
      ++audited_;
      reaches_ += audit.reaches.size();
    });
    if (job == workload_.representative) {
      for (std::size_t i = 0; i < network.node_count(); ++i) {
        positions.push_back(network.node(static_cast<NodeId>(i)).modem().position());
      }
    }
    tracer_.open("run");
  }

  [[nodiscard]] std::vector<Time> extra_boundaries(std::size_t job) const override {
    if (hash_ == nullptr && job == workload_.representative) return {capture_at_};
    return {};
  }

  void boundary(std::size_t job, Network& network, Time at) override {
    if (hash_ != nullptr || job != workload_.representative || at != capture_at_) return;
    tracer_.open("harness.checkpoint_save");
    const Clock::time_point start = Clock::now();
    checkpoint = make_checkpoint(network, workload_.jobs[job].config, at);
    checkpoint_save_s = seconds_since(start);
    tracer_.close();
    checkpoint_bytes = checkpoint->scenario_text.size() + checkpoint->payload.size();
  }

  void finished(std::size_t job, Network& network) override {
    tracer_.close();
    tracer_.set_simulator(nullptr);
    const AcousticChannel& channel = network.channel();
    transmissions += channel.transmissions();
    cache_hits += channel.path_cache_hits();
    cache_misses += channel.path_cache_misses();
    rebins += channel.spatial_rebins();
    if (job == workload_.representative) {
      delays.resize(network.node_count());
      sinks.resize(network.node_count());
      for (std::size_t i = 0; i < network.node_count(); ++i) {
        const auto id = static_cast<NodeId>(i);
        for (const auto& [neighbor, entry] : network.node(id).neighbors().entries()) {
          delays[i][neighbor] = entry.delay;
        }
        sinks[i] = network.router().is_sink(id);
      }
      mean_degree = network.deployed_mean_degree();
    }
  }

  [[nodiscard]] double receivers_per_tx() const {
    return audited_ > 0 ? static_cast<double>(reaches_) / static_cast<double>(audited_) : 0.0;
  }

  std::uint64_t transmissions{0};
  std::uint64_t cache_hits{0};
  std::uint64_t cache_misses{0};
  std::uint64_t rebins{0};
  std::vector<Vec3> positions;
  std::vector<std::map<NodeId, Duration>> delays;
  std::vector<bool> sinks;
  double mean_degree{0.0};
  std::optional<Checkpoint> checkpoint;
  double checkpoint_save_s{0.0};
  std::size_t checkpoint_bytes{0};

 private:
  const Workload& workload_;
  SpanTracer& tracer_;
  HashObserver* hash_;
  Time capture_at_{};
  std::uint64_t audited_{0};
  std::uint64_t reaches_{0};
};

}  // namespace

std::vector<Metric> traced_run(const Workload& workload, const std::string& span_path,
                               Verdict& verdict) {
  const std::vector<Job>& jobs = workload.jobs;
  const Job& rep = jobs[workload.representative];

  AllocObserver allocs;
  const PassResult plain = run_pass(jobs, &allocs);
  verdict.count(plain);

  HashObserver hash{jobs.size()};
  const PassResult hashed = run_pass(jobs, &hash);
  verdict.count(hashed);

  SpanTracer tracer;
  TracedObserver traced_obs{workload, tracer, nullptr};
  const PassResult traced = run_pass(jobs, &traced_obs);
  verdict.count(traced);

  SpanTracer discarded;
  HashObserver traced_hash{jobs.size()};
  TracedObserver hashed_traced_obs{workload, discarded, &traced_hash};
  const PassResult hashed_traced = run_pass(jobs, &hashed_traced_obs);
  verdict.count(hashed_traced);

  AuditObserver audit;
  const PassResult audited = run_pass(jobs, &audit);
  verdict.count(audited);

  ShardObserver shard;
  const PassResult sharded = run_pass(jobs, &shard);
  verdict.count(sharded);
  std::uint64_t windows = 0;
  for (const JobResult& job : sharded.jobs) windows += job.windows;

  bool stats_same = true;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const PassResult* pass : {&hashed, &traced, &hashed_traced, &audited, &sharded}) {
      stats_same = stats_same && same_stats(plain.jobs[j].stats_json, pass->jobs[j].stats_json);
    }
  }
  verdict.check("traced, hashed, audited and 2-shard passes reproduce the untraced RunStats",
                stats_same);
  verdict.check("traced passes execute the untraced passes' events (" +
                    std::to_string(plain.events()) + " without a trace sink, " +
                    std::to_string(hashed.events()) + " with one)",
                traced.events() == plain.events() && hashed_traced.events() == hashed.events());
  verdict.check("traced pass trace digest equals the untraced HashTrace digest",
                traced_hash.digest() == hash.digest());
  bool audits_clean = true;
  std::size_t overlaps = 0;
  for (const auto& auditor : audit.auditors) {
    audits_clean = audits_clean && auditor_clean(*auditor);
    overlaps += extra_overlaps(*auditor);
  }
  verdict.check("auditor clean on every job", audits_clean);
  verdict.note("extra packets overlapping a negotiated packet: " + std::to_string(overlaps));

  double resume_s = 0.0;
  bool resumed_ok = false;
  if (traced_obs.checkpoint) {
    ++verdict.attempted;
    try {
      const Clock::time_point start = Clock::now();
      const RunStats resumed = resume_scenario(*traced_obs.checkpoint, rep.config);
      resume_s = seconds_since(start);
      resumed_ok =
          same_stats(stats_json(resumed), plain.jobs[workload.representative].stats_json);
    } catch (const std::exception& e) {
      ++verdict.failed;
      verdict.note(std::string{"resume failed: "} + e.what());
    }
  }
  verdict.check("resume from the mid-run checkpoint reproduces the run", resumed_ok);

  const std::size_t degree = static_cast<std::size_t>(std::lround(traced_obs.mean_degree));
  const double run_plain = plain.run_s();
  const double channel_self = tracer.self_s("channel.delivery");
  const double mac_self = tracer.self_s("mac.processing");
  const std::uint64_t events = plain.events();

  RunStats total{};
  for (const JobResult& job : plain.jobs) {
    const RunStats& s = job.stats;
    total.handshake_attempts += s.handshake_attempts;
    total.handshake_successes += s.handshake_successes;
    total.extra_attempts += s.extra_attempts;
    total.extra_successes += s.extra_successes;
    total.rx_collisions += s.rx_collisions;
    total.total_bits_sent += s.total_bits_sent;
    total.e2e_originated += s.e2e_originated;
    total.e2e_arrived_at_sink += s.e2e_arrived_at_sink;
    total.e2e_forwarded += s.e2e_forwarded;
    total.e2e_retransmissions += s.e2e_retransmissions;
    total.e2e_failovers += s.e2e_failovers;
    total.relay_queue_highwater = std::max(total.relay_queue_highwater, s.relay_queue_highwater);
  }
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::uint64_t lookups = traced_obs.cache_hits + traced_obs.cache_misses;

  std::vector<Metric> m{
      {"sim.events", count(events), "count"},
      {"sim.events_per_s", static_cast<double>(events) / run_plain, "1/s"},
      {"sim.other_self_s", tracer.self_s("run"), "s"},
      {"sim.queue_ops_per_s", queue_ops_per_s(tracer.pending_peak()), "1/s"},
      {"sim.pending_peak", count(tracer.pending_peak()), "count"},
      {"sim.sharded_run_s", sharded.run_s(), "s"},
      {"sim.windows", count(windows), "count"},
      {"channel.delivery_self_s", channel_self, "s"},
      {"channel.transmissions", count(traced_obs.transmissions), "count"},
      {"channel.receivers_per_tx", traced_obs.receivers_per_tx(), "count"},
      {"channel.path_cache_hit_ratio",
       lookups > 0 ? count(traced_obs.cache_hits) / count(lookups) : 0.0, "ratio"},
      {"channel.path_computes", count(traced_obs.cache_misses), "count"},
      {"channel.spatial_rebins", count(traced_obs.rebins), "count"},
      {"channel.attach_s", attach_s(rep.config, traced_obs.positions), "s"},
      {"mac.processing_self_s", mac_self, "s"},
      {"mac.handshake_attempts", count(total.handshake_attempts), "count"},
      {"mac.handshake_successes", count(total.handshake_successes), "count"},
      {"mac.extra_attempts", count(total.extra_attempts), "count"},
      {"mac.extra_successes", count(total.extra_successes), "count"},
      {"mac.rx_collisions", count(total.rx_collisions), "count"},
      {"phy.bits_sent", count(total.total_bits_sent), "bit"},
      {"net.uphill_router_build_s",
       uphill_router_build_s(traced_obs.positions, rep.config.channel.comm_range_m), "s"},
      {"net.route_table_build_s", route_table_build_s(traced_obs.delays, traced_obs.sinks), "s"},
      {"net.neighbor_update_per_s", neighbor_update_per_s(degree), "1/s"},
      {"net.e2e_originated", count(total.e2e_originated), "count"},
      {"net.e2e_arrived", count(total.e2e_arrived_at_sink), "count"},
      {"net.e2e_forwarded", count(total.e2e_forwarded), "count"},
      {"net.e2e_retransmissions", count(total.e2e_retransmissions), "count"},
      {"net.e2e_failovers", count(total.e2e_failovers), "count"},
      {"net.relay_queue_highwater", count(total.relay_queue_highwater), "count"},
      {"harness.checkpoint_save_s", traced_obs.checkpoint_save_s, "s"},
      {"harness.checkpoint_bytes", count(traced_obs.checkpoint_bytes), "B"},
      {"harness.resume_s", resume_s, "s"},
      {"stats.trace_overhead_s", hashed.run_s() - run_plain, "s"},
      {"stats.audit_s", audited.run_s() - run_plain, "s"},
      {"stats.span_overhead_s", traced.run_s() - run_plain, "s"},
      {"alloc.run_allocs_per_event", count(allocs.run_allocs) / count(events), "count"},
      {"alloc.setup_allocs", count(allocs.setup_allocs), "count"},
      {"alloc.setup_bytes", count(allocs.setup_bytes), "B"},
  };
  verdict.check("operator new counted (traced build)", alloc_counting());
  if (!span_path.empty()) {
    verdict.check("span file written (" + std::to_string(tracer.spans_seen()) + " spans)",
                  tracer.write(span_path));
  }
  return m;
}

}  // namespace aquamac::perf
