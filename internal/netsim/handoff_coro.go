//go:build go1.23

package netsim

import "iter"

// handoff passes control between the scheduler and one process body by
// coroutine switch, with no trip through the Go scheduler; a panic in
// the body surfaces in the goroutine that resumed it.
type handoff struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// start runs body until it first parks or returns.
func (h *handoff) start(body func()) {
	h.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		h.yield = yield
		body()
	})
	h.next()
}

// resume continues a parked body until it parks again or returns.
func (h *handoff) resume() { h.next() }

// park, called by the body, hands control back until the next resume.
func (h *handoff) park() { h.yield(struct{}{}) }
