// Complex-impedance algebra and one-port scattering parameters.
//
// This file is the foundation of the circuit-level EM substrate that stands
// in for ANSYS HFSS (see DESIGN.md Sec. 1): antennas and switches are
// represented by complex input impedances, and the observable the paper
// reports (Fig. 6, S11) is the reflection coefficient of that impedance
// against the 50-ohm reference.
#pragma once

#include <complex>

namespace mmtag::em {

using Complex = std::complex<double>;

/// Impedance of an ideal resistor [ohm].
[[nodiscard]] Complex resistor(double ohms);

/// Impedance of an ideal inductor `henries` at `frequency_hz` [ohm].
[[nodiscard]] Complex inductor(double henries, double frequency_hz);

/// Impedance of an ideal capacitor `farads` at `frequency_hz` [ohm].
/// At exactly DC this would be infinite; `frequency_hz` must be > 0.
[[nodiscard]] Complex capacitor(double farads, double frequency_hz);

/// Series combination of two impedances.
[[nodiscard]] Complex series(Complex a, Complex b);

/// Parallel combination of two impedances. Either argument may be an ideal
/// short (0) — the result is then a short.
[[nodiscard]] Complex parallel(Complex a, Complex b);

/// Voltage reflection coefficient of impedance `z` against reference `z0`:
///   Gamma = (z - z0) / (z + z0).
[[nodiscard]] Complex reflection_coefficient(Complex z, double z0_ohm);

/// |S11| in dB of impedance `z` against reference `z0` (<= 0 for passive z).
[[nodiscard]] double s11_db(Complex z, double z0_ohm);

}  // namespace mmtag::em
