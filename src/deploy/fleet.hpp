// Fleet simulator: M reader cells serving N tags, in parallel, bit-exact.
//
// Composes the deploy layer end to end: layout generation, per-cell
// inventory+polling over cached link budgets, cross-reader coordination,
// optional tag mobility with cache invalidation and inter-cell handoff,
// and fleet-level statistics. Cells execute on the shared sim::ThreadPool;
// each (epoch, cell) pair gets a private RNG stream via
// sim::derive_seed(seed, epoch * M + cell), and per-cell results merge in
// cell order, so fleet aggregates are bit-identical at any thread count —
// the same discipline as the sweep engine (DESIGN.md Sec. 7).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/deploy/cell.hpp"
#include "src/deploy/coordinator.hpp"
#include "src/impair/config.hpp"
#include "src/deploy/fleet_stats.hpp"
#include "src/deploy/layout.hpp"
#include "src/fault/engine.hpp"
#include "src/sim/parallel.hpp"

namespace mmtag::deploy {

struct FleetConfig {
  LayoutConfig layout;
  CellConfig cell;
  CoordinatorConfig coordination;
  /// Epochs alternate cell service and (optional) mobility steps.
  int epochs = 2;
  double epoch_duration_s = 0.05;
  /// Fraction of the tag population that takes a random-walk step between
  /// epochs (those tags' cache entries are invalidated and they may hand
  /// off between cells).
  double mobile_fraction = 0.0;
  double mobile_speed_mps = 1.5;
  /// Base seed for every stream in the run (cells, mobility).
  std::uint64_t seed = 1;
  /// Worker threads (<= 0 selects sim::default_thread_count()).
  int threads = 0;
  /// Disable to measure the uncached baseline (every link lookup
  /// re-traces; see bench_d1_fleet).
  bool use_link_cache = true;
  /// Fault injection (chaos testing). A default-constructed schedule is
  /// inactive: no engine is built and the run takes the exact fault-free
  /// code path, RNG draw for RNG draw.
  fault::FaultSchedule faults;
  /// When `faults` is active, hand tags orphaned by a full-epoch reader
  /// outage to the nearest live reader at the next epoch boundary (and
  /// back after the restart). Poll retry knobs live in cell.recovery. A
  /// restarted reader always re-calibrates: its cell drops the memoized
  /// link state.
  bool reassign_orphans = true;
  /// Front-end impairment decomposition (DESIGN.md Sec. 16): with any
  /// stage enabled, every reader's opaque implementation_loss_db is
  /// replaced by impair::decompose(impairments).total_db — calibrate
  /// residual_db against the reader's 18 dB scalar (docs/IMPAIRMENTS.md,
  /// worked example 2). All-off (default) builds the exact prototype
  /// readers of the legacy fleet.
  impair::ImpairmentConfig impairments{};
  /// Backhaul reachability hook (installed by mesh::BackhaulSimulator):
  /// maps this epoch's radio-live mask to the readers that can still reach
  /// a mesh gateway. Orphan re-handoff then avoids live-but-partitioned
  /// readers, and tags stuck on one count as orphaned (their inventory
  /// cannot leave the cell). Null = every live reader is serviceable.
  std::function<std::vector<std::uint8_t>(
      int epoch, const std::vector<std::uint8_t>& live)>
      backhaul_reachable;
  /// Called on the coordinating thread after each epoch's deterministic
  /// merge with the epoch index, per-cell results (cell order) and the
  /// radio-live mask — the point where mesh::BackhaulSimulator drains the
  /// epoch's inventory through the forwarding plane. Serial by
  /// construction, so thread count cannot reach the observer.
  std::function<void(int epoch, const std::vector<CellEpochResult>& cells,
                     const std::vector<std::uint8_t>& live)>
      epoch_observer;
};

struct FleetResult {
  FleetStats stats;
  /// What broke and how recovery coped (all-zero/availability-1 when no
  /// schedule was attached). Digest via fault::fingerprint — kept separate
  /// from the pinned FleetStats fingerprint.
  fault::FaultReport fault;
  /// Per-tag service merged over every epoch, tag order (who was ever
  /// read, first-read instant, delivered bits). The discovery roster the
  /// net-layer traffic engine admits flows from.
  std::vector<TagService> service;
  /// Per-cell results of the final epoch (cell order).
  std::vector<CellEpochResult> last_epoch;
  /// Final-epoch coordination plans (cell order).
  std::vector<CellPlan> plans;
  /// Wall-clock cost of the run (threads, wall_s; units = tag reads).
  sim::SweepStats sweep;
};

class FleetSimulator {
 public:
  explicit FleetSimulator(FleetConfig config);

  /// Run the configured number of epochs and aggregate. Deterministic in
  /// `config.seed`; independent of `config.threads`.
  [[nodiscard]] FleetResult run();

  [[nodiscard]] const FleetConfig& config() const { return config_; }

 private:
  FleetConfig config_;
};

}  // namespace mmtag::deploy
