#include "src/deploy/cell.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>

#include "src/channel/geometry.hpp"
#include "src/mac/event_queue.hpp"
#include "src/obs/gate.hpp"
#include "src/obs/metrics.hpp"
#include "src/phy/frame.hpp"
#include "src/phys/units.hpp"
#include "src/reader/interference.hpp"

namespace mmtag::deploy {

namespace {

obs::Histogram& poll_cost_us_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("deploy.cell.poll_us");
  return hist;
}

}  // namespace

ReaderCell::ReaderCell(int index, reader::MmWaveReader reader,
                       const channel::Environment* env,
                       const phy::RateTable* rates, CellConfig config,
                       bool use_cache)
    : index_(index),
      rates_(rates),
      config_(config),
      cache_(std::move(reader), env, rates, use_cache) {
  const double facing = cache_.reader().pose().orientation_rad;
  codebook_ = antenna::uniform_codebook(
      facing - config_.sector_half_angle_rad,
      facing + config_.sector_half_angle_rad, config_.beamwidth_deg);
}

CellEpochResult ReaderCell::run_epoch(
    const std::vector<core::MmTag>& tags,
    const std::vector<std::size_t>& tag_indices, const CellPlan& plan,
    double start_s, double duration_s, std::mt19937_64& rng,
    const CellFaultContext* faults) {
  CellEpochResult result;
  result.cell_index = index_;
  result.tags_assigned = static_cast<int>(tag_indices.size());
  result.service.resize(tag_indices.size());

  const double budget_s = duration_s * plan.airtime_share *
                          (faults != nullptr ? faults->budget_scale : 1.0);
  if (budget_s <= 0.0) {
    // Reader down for the whole epoch: identify the roster, serve nobody.
    for (std::size_t k = 0; k < tag_indices.size(); ++k) {
      result.service[k].tag_id = tags[tag_indices[k]].id();
    }
    return result;
  }

  // --- Beam assignment over cached link budgets -------------------------
  // Each tag goes to the nearest-boresight beam; its rate is the cached
  // link budget degraded by the coordinator's interference load.
  const std::size_t n = tag_indices.size();
  std::vector<int> tag_beam(n, -1);
  std::vector<std::vector<std::size_t>> beam_members(codebook_.size());
  std::vector<double> beam_rate(codebook_.size(),
                                std::numeric_limits<double>::infinity());
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t gi = tag_indices[k];
    const core::MmTag& tag = tags[gi];
    result.service[k].tag_id = tag.id();
    if (faults != nullptr) {
      // A browned-out tag has no charge to answer with, and a quarantined
      // tag is deliberately left alone — neither contends in discovery.
      // Sentences are epoch-granular: each skipped epoch ticks the count
      // down, and the tag re-enters discovery once it reaches zero.
      // Fault-free runs never populate the map (one empty() check here).
      if ((*faults->tag_brownout)[gi] != 0) continue;
      if (!quarantine_.empty()) {
        const auto sentence = quarantine_.find(tag.id());
        if (sentence != quarantine_.end()) {
          if (--sentence->second <= 0) quarantine_.erase(sentence);
          continue;
        }
      }
    }
    const double bearing = channel::bearing_rad(
        cache_.reader().pose().position, tag.pose().position);
    int best = -1;
    double best_offset = std::numeric_limits<double>::infinity();
    for (std::size_t b = 0; b < codebook_.size(); ++b) {
      const double offset = std::abs(
          phys::wrap_angle_rad(codebook_[b].boresight_rad - bearing));
      if (offset < best_offset) {
        best_offset = offset;
        best = static_cast<int>(b);
      }
    }
    if (best < 0) continue;
    const reader::LinkReport& link =
        cache_.link(tag, best, codebook_[static_cast<std::size_t>(best)]
                                   .boresight_rad);
    double power_dbm = link.received_power_dbm;
    if (faults != nullptr) power_dbm -= (*faults->tag_loss_db)[gi];
    const double rate = reader::sinr_limited_rate_bps(
        power_dbm, plan.interference_dbm, *rates_);
    if (rate <= 0.0) continue;
    tag_beam[k] = best;
    beam_members[static_cast<std::size_t>(best)].push_back(k);
    auto& slowest = beam_rate[static_cast<std::size_t>(best)];
    slowest = std::min(slowest, rate);
  }

  // --- Discovery + polling on the event queue ---------------------------
  // Airtime is tracked in "on-air seconds"; under TDM the cell only holds
  // the channel an airtime_share of the wall clock, so an airtime instant t
  // maps to absolute fleet time start_s + t / airtime_share.
  const double frame_bits = 2.0 *  // Manchester.
      static_cast<double>(phy::TagFrame::frame_bits(config_.payload_bits));
  const double poll_bits =
      frame_bits + 2.0 * static_cast<double>(config_.poll_overhead_bits);

  mac::EventQueue queue;
  std::vector<std::size_t> discovered;  // Local ks, in read order.
  std::size_t beams_scanned = 0;
  std::size_t poll_cursor = 0;
  std::size_t dead_polls = 0;  // Consecutive skips; all-dead ends the epoch.
  int poll_beam = -1;
  std::bernoulli_distribution poll_success(
      config_.aloha.slot_success_probability);

  // Per-tag retry state (fault path only): consecutive unanswered polls,
  // earliest next attempt (exponential backoff), and an epoch-local
  // quarantined flag mirroring the cross-epoch quarantine_ map.
  std::vector<int> fails;
  std::vector<double> retry_at;
  std::vector<std::uint8_t> benched;
  if (faults != nullptr) {
    fails.assign(n, 0);
    retry_at.assign(n, 0.0);
    benched.assign(n, 0);
  }
  const fault::RecoveryConfig& recovery = config_.recovery;

  std::function<void()> run_polling = [&] {
    if (discovered.empty()) return;
    std::size_t k;
    if (faults == nullptr) {
      k = discovered[poll_cursor % discovered.size()];
      ++poll_cursor;
    } else {
      // Round-robin over tags that are eligible now; tags backing off are
      // revisited when their retry timer lands, quarantined tags never.
      std::size_t probes = 0;
      std::size_t chosen = n;
      double next_retry = std::numeric_limits<double>::infinity();
      while (probes < discovered.size()) {
        const std::size_t cand =
            discovered[(poll_cursor + probes) % discovered.size()];
        ++probes;
        if (benched[cand] != 0) continue;
        if (retry_at[cand] > queue.now()) {
          next_retry = std::min(next_retry, retry_at[cand]);
          continue;
        }
        chosen = cand;
        break;
      }
      if (chosen == n) {
        // Everyone is waiting out a backoff (or quarantined): idle until
        // the earliest retry instead of busy-spinning the event queue.
        if (std::isfinite(next_retry) && next_retry <= budget_s) {
          queue.schedule(next_retry, run_polling);
        }
        return;
      }
      poll_cursor += probes;
      k = chosen;
    }
    const std::size_t gi = tag_indices[k];
    // Every poll re-checks the link budget (the tag may have moved since
    // discovery) — this is the fleet hot loop the LinkCache exists for:
    // static geometry answers from cache, moved tags re-trace.
    const auto beam = static_cast<std::size_t>(tag_beam[k]);
    const reader::LinkReport& link = cache_.link(
        tags[gi], tag_beam[k], codebook_[beam].boresight_rad);
    double power_dbm = link.received_power_dbm;
    if (faults != nullptr) power_dbm -= (*faults->tag_loss_db)[gi];
    const double rate = reader::sinr_limited_rate_bps(
        power_dbm, plan.interference_dbm, *rates_);
    // A blocked link swallows individual queries outright; a dead link
    // (blockage/stuck attenuation pushed it below the rate floor) answers
    // nothing either. Both consume a timeout in the fault path.
    bool responded = rate > 0.0;
    if (faults != nullptr && responded && (*faults->tag_blocked)[gi] != 0) {
      std::uniform_real_distribution<double> uniform(0.0, 1.0);
      responded = uniform(rng) >= faults->block_probability;
    }
    if (rate <= 0.0 && faults == nullptr) {
      // Link lost since discovery: skip this tag (fault-free semantics).
      if (++dead_polls < discovered.size()) {
        queue.schedule_in(0.0, run_polling);
      }
      return;
    }
    dead_polls = 0;
    double cost_s =
        responded ? poll_bits / rate : recovery.poll_timeout_s;
    if (tag_beam[k] != poll_beam) {
      cost_s += config_.beam_switch_overhead_s;
      poll_beam = tag_beam[k];
    }
    if (queue.now() + cost_s > budget_s) return;  // Epoch airtime spent.
    TagService& service = result.service[k];
    ++service.polls;
    if constexpr (obs::kObsEnabled) {
      poll_cost_us_metric().record(
          static_cast<std::uint64_t>(cost_s * 1e6));
    }
    if (responded) {
      if (faults != nullptr) {
        fails[k] = 0;
        retry_at[k] = 0.0;
      }
      if (poll_success(rng)) {
        service.delivered_bits += static_cast<double>(config_.payload_bits);
      }
    } else {
      // No response: burn the timeout, back off exponentially, and after
      // the retry budget park the tag in quarantine so a dead link stops
      // taxing everyone else's airtime. The original poll plus
      // poll_retry_budget retries each burn one timeout before the
      // sentence starts; ldexp keeps the doubling ladder exact in binary.
      ++result.polls_timed_out;
      const int failed = ++fails[k];
      if (recovery.poll_retry_budget > 0 &&
          failed - 1 >= recovery.poll_retry_budget) {
        benched[k] = 1;
        quarantine_[service.tag_id] = recovery.quarantine_epochs;
        ++result.quarantines;
      } else {
        const double backoff_s =
            recovery.poll_backoff_base_s > 0.0
                ? std::ldexp(recovery.poll_backoff_base_s, failed - 1)
                : 0.0;
        retry_at[k] = queue.now() + cost_s + backoff_s;
      }
    }
    queue.schedule_in(cost_s, run_polling);
  };

  const auto start_polling = [&] {
    // Visit discovered tags sorted by beam to minimise switches.
    std::sort(discovered.begin(), discovered.end(),
              [&](std::size_t a, std::size_t b) {
                if (tag_beam[a] != tag_beam[b])
                  return tag_beam[a] < tag_beam[b];
                return a < b;
              });
    run_polling();
  };

  std::function<void()> run_discovery = [&] {
    // Resume the sector scan at the persistent cursor; empty beams cost
    // nothing (no tag responds, the reader moves straight on — same
    // convention as SdmInventory).
    while (beams_scanned < codebook_.size() &&
           beam_members[scan_cursor_].empty()) {
      scan_cursor_ = (scan_cursor_ + 1) % codebook_.size();
      ++beams_scanned;
    }
    if (beams_scanned >= codebook_.size()) {
      start_polling();  // Scan complete: serve tags for the rest.
      return;
    }
    const std::size_t b = scan_cursor_;
    std::vector<std::size_t>& members = beam_members[b];
    const double slot_s = frame_bits / beam_rate[b];
    const mac::AlohaStats aloha = run_framed_aloha(
        static_cast<int>(members.size()), config_.aloha, rng);
    const double dwell_s =
        config_.beam_switch_overhead_s +
        static_cast<double>(aloha.slots_total) * slot_s;
    if (queue.now() + dwell_s > budget_s) {
      // Out of airtime mid-scan: the cursor stays on this beam so the next
      // epoch picks up exactly here instead of starving the sector tail.
      start_polling();
      return;
    }
    scan_cursor_ = (b + 1) % codebook_.size();
    ++beams_scanned;
    // Aloha resolves a uniform-random subset of the contenders; pick it
    // from the cell's stream so the outcome is reproducible.
    std::shuffle(members.begin(), members.end(), rng);
    const double read_at_s = queue.now() + dwell_s;
    for (int i = 0; i < aloha.tags_read &&
                    i < static_cast<int>(members.size());
         ++i) {
      const std::size_t k = members[static_cast<std::size_t>(i)];
      TagService& service = result.service[k];
      service.read = true;
      service.first_read_s = start_s + read_at_s / plan.airtime_share;
      discovered.push_back(k);
    }
    queue.schedule_in(dwell_s, run_discovery);
  };

  queue.schedule(0.0, run_discovery);
  queue.run();

  result.tags_discovered = static_cast<int>(discovered.size());
  result.airtime_s = std::min(queue.now(), budget_s);
  result.utilization = budget_s > 0.0 ? result.airtime_s / budget_s : 0.0;
  return result;
}

}  // namespace mmtag::deploy
