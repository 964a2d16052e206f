//go:build linux

package sysclock

import (
	"fmt"
	"syscall"
	"time"
)

// Timex mode bits (linux/timex.h).
const (
	adjOffset    = 0x0001 // ADJ_OFFSET
	adjFrequency = 0x0002 // ADJ_FREQUENCY
	adjNano      = 0x2000 // ADJ_NANO
	staUnsync    = 0x0040 // STA_UNSYNC
)

// freqScale converts between the kernel's 16.16 fixed-point ppm
// frequency field and seconds-per-second.
const freqScale = 65536.0

// Kernel adjusts the real system clock through adjtimex(2). Reading
// state needs no privilege; Step and AdjustFreq need CAP_SYS_TIME and
// return the kernel's error otherwise.
type Kernel struct{}

// ReadState returns the kernel clock discipline state.
func (Kernel) ReadState() (KernelState, error) {
	var tx syscall.Timex
	state, err := syscall.Adjtimex(&tx)
	if err != nil {
		return KernelState{}, fmt.Errorf("sysclock: adjtimex read: %w", err)
	}
	offset := time.Duration(tx.Offset) * time.Microsecond
	if tx.Status&adjNano != 0 {
		offset = time.Duration(tx.Offset) * time.Nanosecond
	}
	return KernelState{
		OffsetRemaining: offset,
		FreqPPM:         float64(tx.Freq) / freqScale,
		Synchronized:    state != 5 /* TIME_ERROR */ && tx.Status&staUnsync == 0,
	}, nil
}

// Step implements Adjuster by requesting a single-shot kernel slew of
// delta (ADJ_OFFSET). The kernel amortizes the shift; large deltas
// exceeding the kernel limit (~0.5 s) are rejected by it.
func (Kernel) Step(delta time.Duration) error {
	tx := syscall.Timex{Modes: adjOffset}
	setTimex(&tx.Offset, delta.Microseconds())
	if _, err := syscall.Adjtimex(&tx); err != nil {
		return fmt.Errorf("sysclock: adjtimex offset: %w", err)
	}
	return nil
}

// setTimex sets a Timex field, which is a C long: 32 bits wide on
// 32-bit platforms.
func setTimex[T int32 | int64](field *T, v int64) { *field = T(v) }

// AdjustFreq implements Adjuster by setting the kernel frequency
// correction (ADJ_FREQUENCY).
func (Kernel) AdjustFreq(correction float64) error {
	tx := syscall.Timex{Modes: adjFrequency}
	setTimex(&tx.Freq, int64(correction*1e6*freqScale))
	if _, err := syscall.Adjtimex(&tx); err != nil {
		return fmt.Errorf("sysclock: adjtimex freq: %w", err)
	}
	return nil
}
