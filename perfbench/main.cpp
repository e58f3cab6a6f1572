// aquamac_perf / aquamac_perf_traced: runs one named benchmark workload
// and prints its metrics (README.md). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   aquamac_perf --workload NAME --seed N --seconds S
//   aquamac_perf_traced --workload NAME --seed N --seconds S [--spans FILE]
//
// aquamac_perf times the workload's fixed work in identical passes and
// reports setup_s, run_s and peak_rss_mb; aquamac_perf_traced (the build
// with the counting operator new) runs the per-layer measurement instead.
// Exit code 1 when a correctness check fails, 2 on bad arguments. A
// simulation that fails is counted in "failed" and does not change the
// exit code.
//
// aquamac-lint: allow-file(wall-clock) -- host-time measurement only.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perf.hpp"
#include "probes.hpp"

namespace {

using namespace aquamac;
using namespace aquamac::perf;

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  std::string spans;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
      if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    } else if (flag == "--spans" && alloc_counting()) {
      o.spans = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return o;
}

/// A fixed integer/floating-point loop, timed to tell a slow host from a
/// slow program. Printed beside the metrics, never gated.
double calibration_s() {
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 88172645463325252ULL;
  double acc = 0.0;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xffffU) * 1e-9;
  }
  volatile double sink = acc;
  (void)sink;
  return seconds_since(start);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string compiler() {
#if defined(__clang__)
  return std::string{"clang "} + __clang_version__;
#elif defined(__GNUC__)
  return std::string{"g++ "} + __VERSION__;
#else
  return "unknown";
#endif
}

/// Sum over every slice of every job of its fastest host time across
/// the passes.
double best_of_pass_run_s(const std::vector<PassResult>& passes) {
  double total = 0.0;
  const PassResult& first = passes.front();
  for (std::size_t j = 0; j < first.jobs.size(); ++j) {
    for (std::size_t s = 0; s < first.jobs[j].slices_s.size(); ++s) {
      double best = std::numeric_limits<double>::infinity();
      for (const PassResult& pass : passes) {
        const std::vector<double>& slices = pass.jobs[j].slices_s;
        if (s < slices.size()) best = std::min(best, slices[s]);
      }
      total += best;
    }
  }
  return total;
}

void print_result(bool correct, const Verdict& verdict, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  Workload workload;
  try {
    options = parse(argc, argv);
    workload = make_workload(options.workload, options.seed);
  } catch (const std::exception& e) {
    std::cerr << "aquamac_perf: " << e.what() << "\n";
    return 2;
  }

  const double calibration_before = calibration_s();
  Verdict verdict;
  std::vector<Metric> metrics;
  std::string reference;

  const bool traced = alloc_counting();
  if (!traced) {
    // A fixed number of passes for a given --seconds, so every run
    // attempts the same simulations whatever the host's speed.
    const auto pass_count = static_cast<std::size_t>(
        std::clamp(std::lround(options.seconds / workload.nominal_pass_s), 2L, 24L));
    std::vector<PassResult> passes;
    double peak_rss = 0.0;
    for (std::size_t p = 0; p < pass_count; ++p) {
      passes.push_back(run_pass(workload.jobs, nullptr));
      verdict.count(passes.back());
      if (p == 0) {
        // The first pass is what a user's run of the workload holds; later
        // passes only add the allocator's fragmentation, which grows with
        // the pass count, and the correctness pass's trace sinks and
        // auditors are no part of it either.
        peak_rss = peak_rss_mb();
      } else {
        // Only the first pass's checkpoints are checked.
        for (JobResult& job : passes.back().jobs) job.last_checkpoint.reset();
      }
    }
    check_workload(workload, passes, verdict);

    std::vector<double> pass_run;
    std::vector<double> pass_setup;
    for (const PassResult& pass : passes) {
      pass_run.push_back(pass.run_s());
      pass_setup.push_back(pass.setup_s());
    }
    // The first pass's construction is the process's first contact with
    // every constructor: the cold set-up a user waits for.
    metrics = {{"setup_s", passes.front().setup_s(), "s"},
               {"run_s", best_of_pass_run_s(passes), "s"},
               {"peak_rss_mb", peak_rss, "MB"}};
    char line[256];
    std::snprintf(line, sizeof line,
                  "reference: passes=%zu run_s_pass_median=%.6f setup_s_pass_median=%.6f "
                  "setup_s_best=%.6f events_per_pass=%llu",
                  passes.size(), median(pass_run), median(pass_setup),
                  *std::min_element(pass_setup.begin(), pass_setup.end()),
                  static_cast<unsigned long long>(passes.front().events()));
    reference = line;
    for (const auto& [label, series] : {std::pair{"\npass_run_s:", &pass_run},
                                        std::pair{"\npass_setup_s:", &pass_setup}}) {
      reference += label;
      for (const double v : *series) {
        std::snprintf(line, sizeof line, " %.6f", v);
        reference += line;
      }
    }
  } else {
    metrics = traced_run(workload, options.spans, verdict);
  }
  const double calibration_after = calibration_s();

  std::printf("workload: %s seed=%llu seconds=%g trace=%d simulations/pass=%zu\n",
              workload.name.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, traced ? 1 : 0, workload.jobs.size());
  std::printf("host: cores=%u compiler=\"%s\" build_type=%s\n",
              std::thread::hardware_concurrency(), compiler().c_str(), AQUAMAC_PERF_BUILD_TYPE);
  std::printf("calibration_s: before=%.6f after=%.6f\n", calibration_before, calibration_after);
  if (!reference.empty()) std::printf("%s\n", reference.c_str());
  for (const auto& [name, ok] : verdict.checks) {
    std::printf("check %s: %s\n", ok ? "ok" : "FAIL", name.c_str());
  }
  for (const std::string& note : verdict.notes) std::printf("note: %s\n", note.c_str());
  for (const Metric& m : metrics) {
    std::printf("metric %s = %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = verdict.all_ok();
  print_result(correct, verdict, metrics);
  return correct ? 0 : 1;
}
