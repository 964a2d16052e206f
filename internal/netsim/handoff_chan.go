//go:build !go1.23

package netsim

// handoff passes control between the scheduler and one process body
// over a pair of unbuffered channels: the hand-off of toolchains
// without iter.Pull (see handoff_coro.go; ROADMAP, next [benchmark]
// issue, deletes this file with the go.mod bump).
type handoff struct {
	wake   chan struct{}
	parked chan struct{}
}

// start runs body until it first parks or returns.
func (h *handoff) start(body func()) {
	h.wake, h.parked = make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { h.parked <- struct{}{} }() // final park: process exited
		body()
	}()
	<-h.parked
}

// resume continues a parked body until it parks again or returns.
func (h *handoff) resume() {
	h.wake <- struct{}{}
	<-h.parked
}

// park, called by the body, hands control back until the next resume.
func (h *handoff) park() {
	h.parked <- struct{}{}
	<-h.wake
}
