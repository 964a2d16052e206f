//go:build linux

package sysclock

import "testing"

func TestKernelReadState(t *testing.T) {
	st, err := Kernel{}.readState()
	if err != nil {
		t.Fatalf("reading kernel state should not require privilege: %v", err)
	}
	// Sanity bounds only: the kernel clamps |freq| to 500 ppm.
	if st.FreqPPM < -500 || st.FreqPPM > 500 {
		t.Errorf("kernel freq = %v ppm, outside ±500", st.FreqPPM)
	}
}
