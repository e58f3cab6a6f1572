#pragma once
// Shared vocabulary of the AquaMAC benchmark (see README.md): a workload
// is a list of simulations (jobs), a pass runs every job once, and the
// timed metrics keep the fastest host time of each simulated-time slice
// across identical passes.
//
// aquamac-lint: allow-file(wall-clock) -- the benchmark measures host
// time by design; no clock reading feeds a simulation.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/checkpoint_run.hpp"
#include "net/network.hpp"
#include "stats/invariant_auditor.hpp"

namespace aquamac::perf {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One simulation of a workload.
struct Job {
  std::string figure;  ///< paper figure the job belongs to ("fig6", "fig8")
  double x{0.0};       ///< the figure's x value (offered load)
  ScenarioConfig config;
  /// Host time is read at each of these simulated times (ascending); the
  /// slices between them are the unit of best-of-pass timing.
  std::vector<Time> boundaries;
  /// Every multiple of this, the run snapshots itself into an in-memory
  /// checkpoint (make_checkpoint). Zero: never.
  Duration checkpoint_every{};
};

/// Optional instrumentation of a pass; timed passes carry none. Each call
/// names the job by its index in the workload.
class Observer {
 public:
  virtual ~Observer() = default;
  /// Before the job's Simulator is constructed.
  virtual void configure(std::size_t /*job*/, ScenarioConfig& /*config*/) {}
  /// After construction, before Network::run.
  virtual void constructed(std::size_t /*job*/, Network& /*network*/) {}
  /// At every boundary, after the slice ending there was timed.
  virtual void boundary(std::size_t /*job*/, Network& /*network*/, Time /*at*/) {}
  /// After Network::run returned.
  virtual void finished(std::size_t /*job*/, Network& /*network*/) {}
  /// Extra boundaries to pause at (merged with the job's own).
  [[nodiscard]] virtual std::vector<Time> extra_boundaries(std::size_t /*job*/) const {
    return {};
  }
};

struct JobResult {
  bool failed{false};
  std::string error;
  double setup_s{0.0};
  std::vector<double> slices_s;
  RunStats stats;
  std::string stats_json;  ///< every RunStats field, for exact comparison
  std::uint64_t events{0};
  std::uint64_t windows{0};
  std::optional<Checkpoint> last_checkpoint;

  [[nodiscard]] double run_s() const;
};

struct PassResult {
  std::vector<JobResult> jobs;
  [[nodiscard]] double setup_s() const;
  [[nodiscard]] double run_s() const;
  [[nodiscard]] std::uint64_t events() const;
};

/// Every RunStats field as one JSON object (the program's own encoder).
[[nodiscard]] std::string stats_json(const RunStats& stats);

/// Runs one job: times Simulator + Network construction, then each slice
/// of Network::run between boundaries. A thrown exception marks the job
/// failed instead of ending the pass.
[[nodiscard]] JobResult run_job(const Job& job, std::size_t index, Observer* observer);

[[nodiscard]] PassResult run_pass(const std::vector<Job>& jobs, Observer* observer);

/// Named correctness checks plus the simulations they and the passes ran.
struct Verdict {
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  /// Observations printed with the checks but never gated.
  std::vector<std::string> notes;

  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  void note(const std::string& text) { notes.push_back(text); }
  void count(const JobResult& job) {
    ++attempted;
    if (job.failed) {
      ++failed;
      note("simulation failed: " + job.error);
    }
  }
  void count(const PassResult& pass) {
    for (const JobResult& job : pass.jobs) count(job);
  }
  [[nodiscard]] bool all_ok() const {
    for (const auto& [name, ok] : checks) {
      if (!ok) return false;
    }
    return true;
  }
};

struct Workload {
  std::string name;
  std::vector<Job> jobs;
  /// Host seconds one timed pass (construction + run) takes on the
  /// reference host when it is slow (README); fixes the number of passes
  /// a --seconds budget buys (2..24).
  double nominal_pass_s{1.0};
  /// The job the traced run's single-network probes use.
  std::size_t representative{0};
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

/// The correctness pass: runs apart from the timed passes, once per run.
void check_workload(const Workload& workload, const std::vector<PassResult>& passes,
                    Verdict& verdict);

}  // namespace aquamac::perf
