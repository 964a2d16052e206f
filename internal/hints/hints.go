// Package hints defines the wireless link-layer hints MNTP consumes —
// Received Signal Strength Indication (RSSI), noise level, and the SNR
// margin derived from them (§4.1 of the paper) — together with the
// favorable-channel thresholds of §4.2 and parsers for the host
// utilities the paper names as hint sources (`airport` on macOS,
// `iwconfig` on Linux).
package hints

import (
	"fmt"
	"strconv"
	"strings"
)

// Hints is one reading of the wireless channel.
type Hints struct {
	// RSSI is the received signal strength in dBm.
	RSSI float64
	// Noise is the noise level in dBm.
	Noise float64
}

// snrMargin returns the signal-to-noise margin in dB, defined by the
// paper as RSSI − Noise.
func (h Hints) snrMargin() float64 { return h.RSSI - h.Noise }

// Provider supplies current channel hints. The simulated channel
// (internal/wireless) and the host-utility parsers both satisfy it.
// The paper notes that the only support MNTP needs from a host is
// permission to measure these hints.
type Provider interface {
	Hints() Hints
}

// ProviderFunc adapts a function to Provider.
type ProviderFunc func() Hints

// Hints implements Provider.
func (f ProviderFunc) Hints() Hints { return f() }

// Static is a Provider that always reports the same hints; wired
// scenarios use a permanently favorable Static provider so the same
// MNTP code runs unchanged.
type Static struct{ H Hints }

// Hints implements Provider.
func (s Static) Hints() Hints { return s.H }

// Thresholds are the favorable-channel gates: a reading is favorable
// when RSSI exceeds MinRSSI, noise is below MaxNoise and the SNR
// margin is at least MinSNR.
type Thresholds struct {
	MinRSSI  float64 // dBm, exclusive lower bound on RSSI
	MaxNoise float64 // dBm, exclusive upper bound on noise
	MinSNR   float64 // dB, inclusive lower bound on SNR margin
}

// Default returns the paper's baseline thresholds (§4.2): RSSI greater
// than −75 dBm, noise less than −70 dBm, SNR margin at least 20 dB.
func Default() Thresholds {
	return Thresholds{MinRSSI: -75, MaxNoise: -70, MinSNR: 20}
}

// Favorable reports whether h satisfies all three gates.
func (t Thresholds) Favorable(h Hints) bool {
	return h.RSSI > t.MinRSSI && h.Noise < t.MaxNoise && h.snrMargin() >= t.MinSNR
}

// AlwaysFavorable is a Static provider comfortably inside the default
// thresholds, for wired scenarios and tests.
var AlwaysFavorable = Static{H: Hints{RSSI: -50, Noise: -95}}

// ParseAirport extracts hints from `airport -I` output on macOS. The
// relevant lines look like:
//
//	agrCtlRSSI: -54
//	agrCtlNoise: -92
func ParseAirport(out string) (Hints, error) {
	var h Hints
	var haveRSSI, haveNoise bool
	for _, line := range strings.Split(out, "\n") {
		key, val, ok := strings.Cut(strings.TrimSpace(line), ":")
		if !ok {
			continue
		}
		val = strings.TrimSpace(val)
		switch strings.TrimSpace(key) {
		case "agrCtlRSSI":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Hints{}, fmt.Errorf("hints: bad airport RSSI %q: %v", val, err)
			}
			h.RSSI, haveRSSI = v, true
		case "agrCtlNoise":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Hints{}, fmt.Errorf("hints: bad airport noise %q: %v", val, err)
			}
			h.Noise, haveNoise = v, true
		}
	}
	if !haveRSSI || !haveNoise {
		return Hints{}, fmt.Errorf("hints: airport output missing RSSI/noise")
	}
	return h, nil
}

// ParseIwconfig extracts hints from `iwconfig <if>` output on Linux.
// The relevant fragment looks like:
//
//	Link Quality=58/70  Signal level=-52 dBm  Noise level=-95 dBm
//
// Some drivers omit the noise level; those interfaces cannot supply
// MNTP hints and an error is returned.
func ParseIwconfig(out string) (Hints, error) {
	var h Hints
	var haveRSSI, haveNoise bool
	fields := strings.FieldsFunc(out, func(r rune) bool { return r == ' ' || r == '\n' || r == '\t' })
	for i := 0; i < len(fields); i++ {
		f := fields[i]
		// Patterns appear as "level=-52" following "Signal"/"Noise".
		if eq := strings.Index(f, "level="); eq >= 0 && i > 0 {
			v, err := strconv.ParseFloat(f[eq+len("level="):], 64)
			if err != nil {
				continue
			}
			switch fields[i-1] {
			case "Signal":
				h.RSSI, haveRSSI = v, true
			case "Noise":
				h.Noise, haveNoise = v, true
			}
		}
	}
	if !haveRSSI {
		return Hints{}, fmt.Errorf("hints: iwconfig output missing signal level")
	}
	if !haveNoise {
		return Hints{}, fmt.Errorf("hints: iwconfig output missing noise level")
	}
	return h, nil
}
