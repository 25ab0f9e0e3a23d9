// Package energy holds the electrical calibration of the paper's platform:
// the woven transmission line (per-bit link energy as a function of wire
// length, Sec 5.1.2), the shared 2-bit control medium of the TDMA scheme
// (Sec 5.3) and the central controller's power (Sec 7.3). The calibration is
// fixed: it is read from the constants and the anchor table below, never
// configured.
//
// All energies are expressed in picojoules (pJ) and all powers in milliwatts
// (mW), matching the units used in the paper. Conversions between the two use
// the 100 MHz system clock the paper's modules were characterised at.
package energy

// ClockFrequencyHz is the clock frequency at which all paper measurements
// were taken (Sec 5.1.1 and 7.3).
const ClockFrequencyHz = 100e6

// PicojoulesPerCycle converts a power in milliwatts into the energy in
// picojoules consumed during one clock cycle at ClockFrequencyHz.
func PicojoulesPerCycle(powerMW float64) float64 {
	// mW = 1e-3 J/s = 1e9 pJ/s; divide by cycles per second.
	return powerMW * 1e9 / ClockFrequencyHz
}

// linePoint is one measured (length, energy-per-bit) anchor of the textile
// transmission-line characterisation.
type linePoint struct {
	lengthCM float64
	pjPerBit float64
}

// paperLine holds the SPICE-derived per-bit switching energies reported in
// Sec 5.1.2 for textile transmission lines of 1, 10, 20 and 100 cm, ordered
// by length.
var paperLine = [...]linePoint{
	{lengthCM: 1, pjPerBit: 0.4472},
	{lengthCM: 10, pjPerBit: 4.4472},
	{lengthCM: 20, pjPerBit: 11.867},
	{lengthCM: 100, pjPerBit: 53.082},
}

// PerBitPJ returns the energy in picojoules consumed per bit-switching
// activity on a woven line of the given length in centimetres. Energies
// between the measured anchors are interpolated linearly; lengths shorter
// than the first anchor are scaled proportionally towards zero, and lengths
// beyond the last anchor are extrapolated along the final segment (the
// measured data is close to linear in that region).
func PerBitPJ(lengthCM float64) float64 {
	if lengthCM <= 0 {
		return 0
	}
	ps := &paperLine
	if lengthCM <= ps[0].lengthCM {
		// Scale proportionally towards the origin below the first anchor.
		return ps[0].pjPerBit * lengthCM / ps[0].lengthCM
	}
	for i := 1; i < len(ps); i++ {
		if lengthCM <= ps[i].lengthCM {
			return interpolate(ps[i-1], ps[i], lengthCM)
		}
	}
	// Extrapolate along the last segment.
	return interpolate(ps[len(ps)-2], ps[len(ps)-1], lengthCM)
}

func interpolate(a, b linePoint, lengthCM float64) float64 {
	frac := (lengthCM - a.lengthCM) / (b.lengthCM - a.lengthCM)
	// float64() rounds the product, so arm64 cannot fuse it into an FMA.
	return a.pjPerBit + float64(frac*(b.pjPerBit-a.pjPerBit))
}

// PacketEnergyPJ returns the energy, in picojoules, consumed to transmit a
// packet of the given size (in bits) over a line of the given length. The
// paper multiplies the per-bit switching energy by the packet size, which
// corresponds to a worst-case (all bits toggling) activity factor of 1.
func PacketEnergyPJ(lengthCM float64, packetBits int) float64 {
	if packetBits <= 0 {
		return 0
	}
	return PerBitPJ(lengthCM) * float64(packetBits)
}

// The narrow shared bus of the TDMA control mechanism (Sec 5.3). Its per-bit
// energy is chosen so that the control-overhead percentages of Sec 7.1
// (2.8 % .. 11.6 % from 4x4 to 8x8) are reproduced together with the TDMA
// calibration (4-bit status uploads, one frame every 1024 cycles).
const (
	// MediumWidthBits is the width of the shared control bus.
	MediumWidthBits = 2
	// MediumPJPerBit is the energy per bit transferred on the shared medium.
	MediumPJPerBit float64 = 0.7
)

// SlotEnergyPJ returns the energy consumed by transferring one slot of the
// given payload size on the shared medium.
func SlotEnergyPJ(slotBits int) float64 {
	if slotBits <= 0 {
		return 0
	}
	return float64(slotBits) * MediumPJPerBit
}

// The power of one centralized controller, as Sec 7.3 reports it for the
// 4x4-mesh controller at 100 MHz. Larger meshes cost more controller energy
// per frame through the routing workload's node count (see
// tdma.ControllerFrameEnergyPJ), not through a different power figure.
const (
	// ControllerDynamicMW is the dynamic power drawn while the controller is
	// active (executing the routing algorithm or driving the shared medium).
	ControllerDynamicMW float64 = 6.94
	// ControllerLeakageMW is the leakage power drawn whenever the controller
	// is powered, active or not.
	ControllerLeakageMW float64 = 0.57
)

// ControllerActiveEnergyPJ returns the energy consumed by the controller
// while active for the given number of clock cycles (dynamic plus leakage
// power).
func ControllerActiveEnergyPJ(cycles int) float64 {
	if cycles <= 0 {
		return 0
	}
	return PicojoulesPerCycle(ControllerDynamicMW+ControllerLeakageMW) * float64(cycles)
}
