// Struct-of-arrays tag population store for metro-scale simulation.
//
// deploy's fleet path stores tags as a vector of core::MmTag objects —
// fine at 2000 tags, hostile at a million: every hot scan (mobility,
// nearest-reader queries, service aggregation) walks 100+-byte objects to
// touch two doubles. TagStore transposes the population into parallel
// contiguous columns (pose, energy, MAC/session state), so the scale
// layer's epoch batcher can hand slabs of x/y straight to the kern SIMD
// kernels and MetroWorld's merge, summary and fingerprint stream over the
// service columns without materializing per-tag records.
//
// The store is dense: a tag's slot is its creation index, and every
// column has one entry per created tag.
#pragma once

#include <cstdint>
#include <vector>

namespace mmtag::scale {

/// Index into the store's columns: the tag's creation index.
using TagSlot = std::uint32_t;

class TagStore {
 public:
  TagStore() = default;

  /// Pre-size every column (avoids re-allocation churn while building
  /// million-tag populations).
  void reserve(std::size_t tags);

  /// Append a tag; returns its slot. Service state starts zeroed.
  TagSlot create(double x, double y, double orientation_rad,
                 double energy_j = 0.0);

  /// Tags created so far (the length of every column).
  [[nodiscard]] std::size_t slots() const { return x_.size(); }

  // --- Pose columns -----------------------------------------------------
  [[nodiscard]] const double* xs() const { return x_.data(); }
  [[nodiscard]] const double* ys() const { return y_.data(); }
  [[nodiscard]] const double* orientations() const {
    return orientation_.data();
  }
  void set_position(TagSlot slot, double x, double y) {
    x_[slot] = x;
    y_[slot] = y;
  }

  // --- Energy column ----------------------------------------------------
  [[nodiscard]] const double* energies() const { return energy_.data(); }
  [[nodiscard]] double* energies() { return energy_.data(); }

  // --- MAC/session columns (one writer per slot at a time) --------------
  [[nodiscard]] const std::uint8_t* read_flags() const {
    return read_.data();
  }
  [[nodiscard]] std::uint8_t* read_flags() { return read_.data(); }
  [[nodiscard]] const double* first_read_s() const {
    return first_read_s_.data();
  }
  [[nodiscard]] double* first_read_s() { return first_read_s_.data(); }
  [[nodiscard]] const double* delivered_bits() const {
    return delivered_bits_.data();
  }
  [[nodiscard]] double* delivered_bits() { return delivered_bits_.data(); }
  [[nodiscard]] const long* polls() const { return polls_.data(); }
  [[nodiscard]] long* polls() { return polls_.data(); }

 private:
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> orientation_;
  std::vector<double> energy_;
  std::vector<std::uint8_t> read_;
  std::vector<double> first_read_s_;
  std::vector<double> delivered_bits_;
  std::vector<long> polls_;
};

}  // namespace mmtag::scale
