// link: sim::MonteCarloLink at 8 samples/symbol in two steps — a
// fixed-bit BER sweep with impairments off (mostly Gaussian noise
// generation), then a 96-bit-frame FER sweep through reader::ReceiveChain
// with the cmos_24ghz impairment profile. scale, deploy and mesh do none
// of its work.
#include <array>
#include <cstdint>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/impair/chain.hpp"
#include "src/impair/config.hpp"
#include "src/obs/gate.hpp"
#include "src/phy/ber.hpp"
#include "src/phy/frame.hpp"
#include "src/phy/ook.hpp"
#include "src/phy/waveform.hpp"
#include "src/reader/receive_chain.hpp"
#include "src/sim/link_sim.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mmtag::sim::MonteCarloLink;

double ns_since(Clock::time_point t) { return 1e9 * seconds_since(t); }

constexpr int kSamplesPerSymbol = 8;
/// Eight points: a multiple of 1, 2, 4 and 8-thread pools, so no pool
/// size leaves a one-point tail that hides per-point gains.
constexpr std::array<double, 8> kBerSnrDb = {0, 1, 2, 3, 4, 5, 6, 7};
constexpr std::size_t kBerBits = 12'000;  // min_bits == max_bits.
constexpr std::array<double, 8> kFerSnrDb = {8, 10, 12, 14, 16, 18, 20, 22};
constexpr int kFerFrames = 12;
constexpr std::size_t kPayloadBits = 96;
/// Normal quantile of the Wilson check (two-sided 1e-5 per point): the
/// check must hold for every point of every run the benchmark makes.
constexpr double kWilsonZ = 4.42;

MonteCarloLink::Params ber_params() {
  MonteCarloLink::Params p;
  p.samples_per_symbol = kSamplesPerSymbol;
  p.min_bits = kBerBits;
  p.max_bits = kBerBits;
  return p;
}

MonteCarloLink::Params fer_params() {
  MonteCarloLink::Params p;
  p.samples_per_symbol = kSamplesPerSymbol;
  p.impairments = mmtag::impair::ImpairmentConfig::cmos_24ghz();
  return p;
}

/// Closed form inside the Wilson interval of every measured point.
bool ber_matches_closed_form(const mmtag::sim::BerSweepResult& sweep,
                             std::vector<std::string>& notes) {
  bool ok = true;
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const auto& m = sweep.points[i];
    const Interval ci = wilson_interval(m.bit_errors, m.bits_sent, kWilsonZ);
    const double expect = mmtag::phy::ook_coherent_ber(kBerSnrDb[i]);
    if (!ci.contains(expect)) {
      ok = false;
      notes.push_back("link.ber_check: " + std::to_string(kBerSnrDb[i]) +
                      " dB measured " + std::to_string(m.ber()) +
                      " closed form " + std::to_string(expect) +
                      " outside [" + std::to_string(ci.lo) + ", " +
                      std::to_string(ci.hi) + "]");
    }
  }
  return ok;
}

bool same_points(const mmtag::sim::BerSweepResult& a,
                 const mmtag::sim::BerSweepResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].bits_sent != b.points[i].bits_sent ||
        a.points[i].bit_errors != b.points[i].bit_errors) {
      return false;
    }
  }
  return true;
}

bool same_points(const mmtag::sim::FerSweepResult& a,
                 const mmtag::sim::FerSweepResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].frames != b.points[i].frames ||
        a.points[i].failures != b.points[i].failures) {
      return false;
    }
  }
  return true;
}

struct Sweeps {
  mmtag::sim::BerSweepResult ber;
  mmtag::sim::FerSweepResult fer;
};

/// Bit-identity at any thread count: both sweeps replayed on the full pool,
/// and one point of each replayed alone from its per-point stream, must
/// match the 1-thread sweeps.
bool replay_matches(const MonteCarloLink& ber, const MonteCarloLink& fer,
                    const Sweeps& s, const Options& options) {
  mmtag::sim::ThreadPool wide(options.threads);
  const std::uint64_t seed = options.seed;
  const auto ber_wide = ber.measure_ber_sweep(kBerSnrDb, seed, wide);
  const auto fer_wide = fer.measure_fer_sweep(kFerSnrDb, kFerFrames,
                                              kPayloadBits, seed + 1, wide);
  const std::size_t i = seed % kBerSnrDb.size();
  const auto b = ber.measure_ber_point(kBerSnrDb[i],
                                       mmtag::sim::derive_seed(seed, i));
  const std::size_t j = (seed / kBerSnrDb.size()) % kFerSnrDb.size();
  const auto f = fer.measure_fer_point(kFerSnrDb[j], kFerFrames, kPayloadBits,
                                       mmtag::sim::derive_seed(seed + 1, j));
  return same_points(ber_wide, s.ber) && same_points(fer_wide, s.fer) &&
         b.bits_sent == s.ber.points[i].bits_sent &&
         b.bit_errors == s.ber.points[i].bit_errors &&
         f.frames == s.fer.points[j].frames &&
         f.failures == s.fer.points[j].failures;
}

/// The untraced loop: rounds of (set-up, BER sweep, FER sweep) on
/// `threads` threads until the budget is spent and `need` sweeps are in.
struct UntracedLoop {
  std::vector<double> setup_s, ber_s, fer_s;
  std::vector<double> bits_per_s, frames_per_s;  ///< One per sweep.
  double cpu_s = 0.0;
  std::optional<Sweeps> first;  ///< Round 0: later rounds must equal it.

  void run(const Options& options, int threads, double seconds,
           std::size_t need, RunResult& result) {
    const auto start = Clock::now();
    while (seconds_since(start) < seconds || ber_s.size() < need) {
      const auto t0 = Clock::now();
      const MonteCarloLink ber(ber_params());
      const MonteCarloLink fer(fer_params());
      mmtag::sim::ThreadPool pool(threads);
      setup_s.push_back(seconds_since(t0));

      Sweeps s;
      const double c0 = process_cpu_s();
      result.ops.run("link ber sweep", [&] {
        const auto t = Clock::now();
        s.ber = ber.measure_ber_sweep(kBerSnrDb, options.seed, pool);
        ber_s.push_back(seconds_since(t));
        bits_per_s.push_back(static_cast<double>(s.ber.stats.units) /
                             ber_s.back());
        return first ? same_points(s.ber, first->ber)
                     : ber_matches_closed_form(s.ber, result.notes);
      });
      result.ops.run("link fer sweep", [&] {
        const auto t = Clock::now();
        s.fer = fer.measure_fer_sweep(kFerSnrDb, kFerFrames, kPayloadBits,
                                      options.seed + 1, pool);
        fer_s.push_back(seconds_since(t));
        frames_per_s.push_back(static_cast<double>(s.fer.stats.units) /
                               fer_s.back());
        return first ? same_points(s.fer, first->fer) : true;
      });
      cpu_s += process_cpu_s() - c0;
      if (!first) {
        result.ops.record("link replay", replay_matches(ber, fer, s, options));
        first = std::move(s);
      }
    }
  }
};

RunResult run_untraced(const Options& options) {
  RunResult result;
  UntracedLoop loop;
  loop.run(options, 1, options.seconds, samples_for_tail(90.0), result);
  result.add("setup_s", median(loop.setup_s), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("primary_per_s", median(loop.bits_per_s), "1/s");
  result.add("secondary_per_s", median(loop.frames_per_s), "1/s");
  result.add("unit_p50_ms", 1e3 * median(loop.ber_s), "ms");
  result.add("unit_p90_ms", 1e3 * tail_percentile(loop.ber_s, 90.0).value(),
             "ms");
  result.notes.push_back("link.sweeps: " + std::to_string(loop.ber_s.size()) +
                         " BER + " + std::to_string(loop.fer_s.size()) +
                         " FER, 1-thread pool");
  return result;
}

/// Per-layer nanoseconds of one point's replica, merged in point order.
struct LayerTimes {
  double modulate = 0, awgn = 0, demod = 0, ber_samples = 0;
  double encode = 0, impair_tx = 0, impair_rx = 0, receive = 0;
  double fer_samples = 0, frames = 0, crc_ok = 0;
  std::size_t bit_errors = 0;
  int failures = 0;

  void merge(const LayerTimes& o) {
    modulate += o.modulate;
    awgn += o.awgn;
    demod += o.demod;
    ber_samples += o.ber_samples;
    encode += o.encode;
    impair_tx += o.impair_tx;
    impair_rx += o.impair_rx;
    receive += o.receive;
    fer_samples += o.fer_samples;
    frames += o.frames;
    crc_ok += o.crc_ok;
  }
};


/// MonteCarloLink::measure_ber's block loop for one point, rebuilt from
/// the public phy calls it makes (same draws, same order) with a timer
/// around each layer. Impairments are off on this step.
LayerTimes traced_ber_point(double snr_db, std::mt19937_64& rng) {
  const mmtag::phy::OokModulator mod(kSamplesPerSymbol,
                                       ber_params().modulation_depth_db);
  const mmtag::phy::OokDemodulator demod(kSamplesPerSymbol);
  const std::size_t block = ber_params().block_bits;
  std::bernoulli_distribution coin(0.5);
  LayerTimes t;
  for (std::size_t sent = 0; sent < kBerBits; sent += block) {
    mmtag::phy::BitVector bits(block);
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = coin(rng);
    auto t0 = Clock::now();
    mmtag::phy::Waveform wave = mod.modulate(bits);
    t.modulate += ns_since(t0);
    const double noise =
        mmtag::phy::noise_power_for_snr(mmtag::phy::mean_power(wave), snr_db) *
        kSamplesPerSymbol;
    t0 = Clock::now();
    mmtag::phy::add_awgn(wave, noise, rng);
    t.awgn += ns_since(t0);
    t0 = Clock::now();
    const mmtag::phy::BitVector decoded = demod.demodulate(wave);
    t.demod += ns_since(t0);
    t.bit_errors += mmtag::phy::hamming_distance(bits, decoded);
    t.ber_samples += static_cast<double>(wave.size());
  }
  return t;
}

/// MonteCarloLink::run_fer for one point, rebuilt the same way: encode,
/// TX impairments, AWGN, RX impairments, receive.
LayerTimes traced_fer_point(const mmtag::impair::ImpairmentChain& chain,
                            double snr_db, std::mt19937_64& rng) {
  const mmtag::reader::ReceiveChain rx(
      mmtag::reader::ReceiveChain::Params{kSamplesPerSymbol, true});
  std::bernoulli_distribution coin(0.5);
  LayerTimes t;
  for (int f = 0; f < kFerFrames; ++f) {
    mmtag::phy::TagFrame frame;
    frame.tag_id = static_cast<std::uint32_t>(f + 1);
    frame.payload.resize(kPayloadBits);
    for (std::size_t i = 0; i < kPayloadBits; ++i) frame.payload[i] = coin(rng);
    auto t0 = Clock::now();
    mmtag::phy::Waveform wave = rx.encode(frame, fer_params().modulation_depth_db);
    t.encode += ns_since(t0);
    const std::uint64_t frame_seed = rng();
    t0 = Clock::now();
    chain.apply_tx(wave, frame_seed);
    t.impair_tx += ns_since(t0);
    mmtag::phy::add_awgn(
        wave,
        mmtag::phy::noise_power_for_snr(mmtag::phy::mean_power(wave), snr_db) *
            kSamplesPerSymbol,
        rng);
    t0 = Clock::now();
    chain.apply_rx(wave, frame_seed);
    t.impair_rx += ns_since(t0);
    t0 = Clock::now();
    const mmtag::reader::ReceiveResult result = rx.receive(wave);
    t.receive += ns_since(t0);
    t.fer_samples += static_cast<double>(wave.size());
    t.frames += 1;
    if (result.crc_ok) t.crc_ok += 1;
    if (!result.frame.has_value() || !(*result.frame == frame)) ++t.failures;
  }
  return t;
}

RunResult run_traced(const Options& options) {
  RunResult result;
  // Untraced rounds on a 1-thread pool (the overhead baseline) and on the
  // full pool (how much the pool buys).
  UntracedLoop plain;
  plain.run(options, 1, 0.3 * options.seconds, 8, result);
  const Sweeps& reference = plain.first.value();
  UntracedLoop wide;
  const std::uint64_t tasks0 = obs_counter("sim.pool.tasks");
  wide.run(options, options.threads, 0.2 * options.seconds, 8, result);
  const double wide_units =
      static_cast<double>(wide.ber_s.size() + wide.fer_s.size());
  const double wide_tasks =
      static_cast<double>(obs_counter("sim.pool.tasks") - tasks0);

  // Replica rounds on a 1-thread pool.
  const mmtag::impair::ImpairmentChain chain(fer_params().impairments);
  if (!chain.enabled()) throw std::logic_error("cmos_24ghz has no stages");
  mmtag::sim::ThreadPool single(1);
  LayerTimes total;
  std::vector<double> traced_ber_s, traced_fer_s;
  const std::uint64_t crc0 = obs_counter("reader.rx.crc_ok");
  const std::uint64_t att0 = obs_counter("reader.rx.attempts");
  const auto start = Clock::now();
  while (seconds_since(start) < 0.4 * options.seconds ||
         traced_ber_s.size() < 8) {
    auto t0 = Clock::now();
    const auto ber_points = mmtag::sim::parallel_monte_carlo(
        single, kBerSnrDb.size(), options.seed,
        [&](std::mt19937_64& rng, std::size_t i) {
          return traced_ber_point(kBerSnrDb[i], rng);
        });
    traced_ber_s.push_back(seconds_since(t0));
    bool same = true;
    for (std::size_t i = 0; i < ber_points.size(); ++i) {
      total.merge(ber_points[i]);
      same = same &&
             ber_points[i].bit_errors == reference.ber.points[i].bit_errors;
    }
    // The replicas must reproduce the library's sweeps bit for bit.
    result.ops.record("link traced ber replica", same);

    t0 = Clock::now();
    const auto fer_points = mmtag::sim::parallel_monte_carlo(
        single, kFerSnrDb.size(), options.seed + 1,
        [&](std::mt19937_64& rng, std::size_t i) {
          return traced_fer_point(chain, kFerSnrDb[i], rng);
        });
    traced_fer_s.push_back(seconds_since(t0));
    same = true;
    for (std::size_t i = 0; i < fer_points.size(); ++i) {
      total.merge(fer_points[i]);
      same = same &&
             fer_points[i].failures == reference.fer.points[i].failures;
    }
    result.ops.record("link traced fer replica", same);
  }
  const double crc_ok =
      mmtag::obs::kObsEnabled
          ? static_cast<double>(obs_counter("reader.rx.crc_ok") - crc0)
          : total.crc_ok;
  const double attempts =
      mmtag::obs::kObsEnabled
          ? static_cast<double>(obs_counter("reader.rx.attempts") - att0)
          : total.frames;

  result.add("phy.modulate_ns_per_sample", total.modulate / total.ber_samples,
             "ns/sample");
  result.add("phy.awgn_ns_per_sample", total.awgn / total.ber_samples,
             "ns/sample");
  result.add("phy.demod_ns_per_sample", total.demod / total.ber_samples,
             "ns/sample");
  result.add("impair.tx_ns_per_sample", total.impair_tx / total.fer_samples,
             "ns/sample");
  result.add("impair.rx_ns_per_sample", total.impair_rx / total.fer_samples,
             "ns/sample");
  result.add("reader.encode_us_per_frame", 1e-3 * total.encode / total.frames,
             "us/frame");
  result.add("reader.receive_us_per_frame",
             1e-3 * total.receive / total.frames, "us/frame");
  result.add("reader.crc_ok_ratio", attempts > 0 ? crc_ok / attempts : 0.0,
             "ratio");
  result.add("sim.pool.cpu_util",
             wide.cpu_s / ((sum(wide.ber_s) + sum(wide.fer_s)) *
                           static_cast<double>(options.threads)),
             "ratio");
  result.add("sim.pool.tasks", wide_tasks / wide_units, "tasks/unit");
  const double plain_round = median(plain.ber_s) + median(plain.fer_s);
  result.add("sim.pool.speedup",
             plain_round / (median(wide.ber_s) + median(wide.fer_s)), "ratio");
  const double traced_round = median(traced_ber_s) + median(traced_fer_s);
  result.add("trace.overhead_ratio", traced_round / plain_round, "ratio");
  const double layer_ns_per_round =
      (total.modulate + total.awgn + total.demod + total.encode +
       total.impair_tx + total.impair_rx + total.receive) /
      static_cast<double>(traced_ber_s.size());
  result.add("trace.coverage_ratio", 1e-9 * layer_ns_per_round / plain_round,
             "ratio");
  result.notes.push_back(
      "link.traced: " + std::to_string(traced_ber_s.size()) +
      " replica rounds, " + std::to_string(plain.ber_s.size()) +
      " untraced 1-thread rounds, " + std::to_string(wide.ber_s.size()) +
      " rounds on " + std::to_string(options.threads) + " threads");
  return result;
}

}  // namespace

RunResult run_link(const Options& options) {
  return options.trace ? run_traced(options) : run_untraced(options);
}

}  // namespace perfbench
