package hints

import (
	"testing"
	"testing/quick"
)

func TestSNRMargin(t *testing.T) {
	h := Hints{RSSI: -55, Noise: -92}
	if got := h.snrMargin(); got != 37 {
		t.Errorf("SNR = %v, want 37", got)
	}
}

func TestDefaultThresholds(t *testing.T) {
	th := Default()
	cases := []struct {
		name string
		h    Hints
		want bool
	}{
		{"comfortably good", Hints{RSSI: -50, Noise: -95}, true},
		{"rssi too low", Hints{RSSI: -80, Noise: -95}, false},
		{"rssi exactly at bound", Hints{RSSI: -75, Noise: -95}, false}, // exclusive
		{"noise too high", Hints{RSSI: -50, Noise: -65}, false},
		{"noise exactly at bound", Hints{RSSI: -50, Noise: -70}, false}, // exclusive
		{"snr margin below 20", Hints{RSSI: -72, Noise: -89}, false},    // SNR 17
		{"snr margin exactly 20", Hints{RSSI: -71, Noise: -91}, true},   // inclusive
	}
	for _, c := range cases {
		if got := th.Favorable(c.h); got != c.want {
			t.Errorf("%s: Favorable(%+v) = %v, want %v", c.name, c.h, got, c.want)
		}
	}
}

func TestAlwaysFavorable(t *testing.T) {
	if !Default().Favorable(AlwaysFavorable.Hints()) {
		t.Error("AlwaysFavorable must pass the default thresholds")
	}
}

func TestProviderFunc(t *testing.T) {
	p := ProviderFunc(func() Hints { return Hints{RSSI: -60, Noise: -90} })
	if got := p.Hints().RSSI; got != -60 {
		t.Errorf("ProviderFunc RSSI = %v", got)
	}
}

const airportSample = `     agrCtlRSSI: -54
     agrExtRSSI: 0
    agrCtlNoise: -92
    agrExtNoise: 0
          state: running
        op mode: station
     lastTxRate: 867
        maxRate: 867
           SSID: lab-net
            MCS: 9
        channel: 153,80`

func TestParseAirport(t *testing.T) {
	h, err := ParseAirport(airportSample)
	if err != nil {
		t.Fatal(err)
	}
	if h.RSSI != -54 || h.Noise != -92 {
		t.Errorf("parsed %+v", h)
	}
	if !Default().Favorable(h) {
		t.Error("sample reading should be favorable")
	}
}

func TestParseAirportMissing(t *testing.T) {
	if _, err := ParseAirport("state: running\n"); err == nil {
		t.Error("missing fields accepted")
	}
	if _, err := ParseAirport("agrCtlRSSI: x\nagrCtlNoise: -90\n"); err == nil {
		t.Error("garbage RSSI accepted")
	}
}

const iwconfigSample = `wlan0     IEEE 802.11  ESSID:"lab-net"
          Mode:Managed  Frequency:5.745 GHz  Access Point: AA:BB:CC:DD:EE:FF
          Bit Rate=866.7 Mb/s   Tx-Power=22 dBm
          Link Quality=58/70  Signal level=-52 dBm  Noise level=-95 dBm
          Rx invalid nwid:0  Rx invalid crypt:0  Rx invalid frag:0`

func TestParseIwconfig(t *testing.T) {
	h, err := ParseIwconfig(iwconfigSample)
	if err != nil {
		t.Fatal(err)
	}
	if h.RSSI != -52 || h.Noise != -95 {
		t.Errorf("parsed %+v", h)
	}
}

func TestParseIwconfigMissingNoise(t *testing.T) {
	out := `wlan0  Link Quality=58/70  Signal level=-52 dBm`
	if _, err := ParseIwconfig(out); err == nil {
		t.Error("missing noise accepted")
	}
}

// Property: Favorable implies each individual gate holds.
func TestQuickFavorableImpliesGates(t *testing.T) {
	th := Default()
	f := func(rssiRaw, noiseRaw int16) bool {
		h := Hints{RSSI: float64(rssiRaw % 120), Noise: float64(noiseRaw % 120)}
		if !th.Favorable(h) {
			return true
		}
		return h.RSSI > th.MinRSSI && h.Noise < th.MaxNoise && h.snrMargin() >= th.MinSNR
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
