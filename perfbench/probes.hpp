#pragma once
// The traced per-layer run: spans kept in memory around every call the
// benchmark makes into a layer and at every PhaseHook begin/end, self
// times computed with a stack, plus micro-probes that time one layer's
// public entry point at the workload's own size.
//
// aquamac-lint: allow-file(wall-clock) -- host-time measurement only.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perf.hpp"
#include "util/phase_hook.hpp"

namespace aquamac::perf {

struct AllocSnapshot {
  std::uint64_t allocs{0};
  std::uint64_t bytes{0};
};
/// Process-wide operator new tallies (zero unless built with the
/// counting allocator, see alloc_counter.cpp).
[[nodiscard]] AllocSnapshot alloc_snapshot();
[[nodiscard]] bool alloc_counting();

/// In-memory span recorder. Spans nest through one stack: the
/// benchmark's own spans (a job's setup and run) and the program's
/// PhaseHook phases. Self time (duration minus the part covered by child
/// spans) is accumulated per span name for every span, stored or not;
/// only the first kMaxStoredSpans spans are kept for the span file.
class SpanTracer final : public PhaseHook {
 public:
  static constexpr std::size_t kMaxStoredSpans = 1u << 20;

  /// Phase begins sample this simulator's pending_count (null: none).
  void set_simulator(const Simulator* sim) { sim_ = sim; }
  void open(const char* name);
  void close();

  void begin(SimPhase phase) override;
  void end(SimPhase phase) override;

  [[nodiscard]] double self_s(const std::string& name) const;
  [[nodiscard]] std::size_t pending_peak() const { return pending_peak_; }
  [[nodiscard]] std::uint64_t spans_seen() const { return seen_; }
  /// Writes "id parent name start_s end_s" rows (tab-separated); false
  /// when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    std::int64_t parent;
  };
  struct Frame {
    const char* name;
    double start;
    double child;
    std::int64_t stored;  ///< index into spans_, -1 if not stored
  };

  double now() const { return seconds_since(origin_); }

  const Simulator* sim_{nullptr};
  Clock::time_point origin_{Clock::now()};
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::map<std::string, double> self_;
  std::size_t pending_peak_{0};
  std::uint64_t seen_{0};
};

/// Single-layer probes; each returns the best of three timings.
/// Simulator push/pop/cancel throughput with `pending` events live.
[[nodiscard]] double queue_ops_per_s(std::size_t pending);
/// `positions.size()` AcousticChannel::attach calls into a fresh channel.
[[nodiscard]] double attach_s(const ScenarioConfig& config, const std::vector<Vec3>& positions);
/// UphillRouter construction over `positions`.
[[nodiscard]] double uphill_router_build_s(const std::vector<Vec3>& positions, double range_m);
/// RouteTable::build over neighbour delays.
[[nodiscard]] double route_table_build_s(const std::vector<std::map<NodeId, Duration>>& delays,
                                         const std::vector<bool>& sinks);
/// NeighborTable::update throughput for a table of `degree` neighbours.
[[nodiscard]] double neighbor_update_per_s(std::size_t degree);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Runs the traced per-layer measurement of `workload`; spans go to
/// `span_path` (skipped when empty). Adds its checks and simulations to
/// `verdict`.
[[nodiscard]] std::vector<Metric> traced_run(const Workload& workload,
                                             const std::string& span_path, Verdict& verdict);

}  // namespace aquamac::perf
