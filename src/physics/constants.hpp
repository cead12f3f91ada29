/**
 * @file
 * Physical and architectural constants used across the library.
 *
 * Values follow Section V-C of the paper (Architectural Features):
 * 400x400 um^2 pocket transmons, qubit band 4.8-5.2 GHz, resonator band
 * 6.0-7.0 GHz, paddings d_q = 400 um / d_r = 100 um, detuning threshold
 * 0.1 GHz, resonator speed of light 1.3e8 m/s.
 *
 * Unit conventions throughout the library:
 *   - distances in micrometers (um)
 *   - frequencies in hertz (Hz)
 *   - times in seconds (s)
 *   - capacitances in femtofarads (fF) -- only ratios enter the models
 */

#ifndef QPLACER_PHYSICS_CONSTANTS_HPP
#define QPLACER_PHYSICS_CONSTANTS_HPP

namespace qplacer {

/** Transmon pocket edge length (um). */
constexpr double kQubitSizeUm = 400.0;

/** Qubit padding d_q (um, per side). */
constexpr double kQubitPadUm = 400.0;

/** Resonator padding d_r (um, per side). */
constexpr double kResonatorPadUm = 100.0;

/** Effective resonator wire width used for area reservation (um). */
constexpr double kResonatorWireWidthUm = 100.0;

/** Qubit frequency band (Hz). */
constexpr double kQubitBandLoHz = 4.8e9;
constexpr double kQubitBandHiHz = 5.2e9;

/** Resonator frequency band (Hz). */
constexpr double kResonatorBandLoHz = 6.0e9;
constexpr double kResonatorBandHiHz = 7.0e9;

/** Detuning threshold Delta_c below which components count as resonant. */
constexpr double kDetuningThresholdHz = 0.1e9;

/** Phase velocity in the coplanar waveguide, v0 (m/s). */
constexpr double kWaveSpeedMps = 1.3e8;

/** Transmon shunt capacitance (fF). */
constexpr double kQubitCapFf = 65.0;

/** Resonator total capacitance (fF). */
constexpr double kResonatorCapFf = 400.0;

/** Relaxation and dephasing times (s). */
constexpr double kT1Seconds = 100e-6;
constexpr double kT2Seconds = 80e-6;

/** Gate durations (s): single-qubit microwave pulse, RIP two-qubit gate. */
constexpr double kGate1qSeconds = 35e-9;
constexpr double kGate2qSeconds = 300e-9;

/** Intrinsic gate error rates (per gate, excluding crosstalk). */
constexpr double kGate1qError = 3.0e-4;
constexpr double kGate2qError = 7.0e-3;

} // namespace qplacer

#endif // QPLACER_PHYSICS_CONSTANTS_HPP
