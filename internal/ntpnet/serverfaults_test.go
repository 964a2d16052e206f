package ntpnet

import "sync"

// ServerFaults injects server-side worker faults through
// Server.FaultHook for deterministic self-healing tests, the
// server-side sibling of FaultTransport: a scripted panic on the nth
// handled datagram of a shard exercises worker respawn, and a wedge
// blocks every worker of a shard mid-handle until released,
// exercising the watchdog. Safe for concurrent use.
//
// A wedged shard must be Released before Server.Close, which waits
// for every worker to exit.
type ServerFaults struct {
	mu      sync.Mutex
	panicAt map[int]int
	wedged  map[int]chan struct{}
}

// NewServerFaults creates an empty injector; assign its Hook to
// Server.FaultHook before Listen.
func NewServerFaults() *ServerFaults {
	return &ServerFaults{panicAt: make(map[int]int), wedged: make(map[int]chan struct{})}
}

// PanicAfter arms shard to panic on its nth admitted datagram from
// now (n = 1 panics on the very next one). One-shot: the trap
// disarms when it fires.
func (f *ServerFaults) PanicAfter(shard, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.panicAt[shard] = n
}

// Wedge blocks shard's workers at the hook until Release: each worker
// that picks up a datagram for that shard hangs mid-handle, holding
// its in-flight count — the fault signature the watchdog detects.
func (f *ServerFaults) Wedge(shard int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.wedged[shard]; !ok {
		f.wedged[shard] = make(chan struct{})
	}
}

// Release unblocks every worker wedged on shard.
func (f *ServerFaults) Release(shard int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.wedged[shard]; ok {
		close(ch)
		delete(f.wedged, shard)
	}
}

// Hook is the Server.FaultHook implementation.
func (f *ServerFaults) Hook(shard int) {
	f.mu.Lock()
	ch := f.wedged[shard]
	doPanic := false
	if n, ok := f.panicAt[shard]; ok {
		n--
		if n <= 0 {
			delete(f.panicAt, shard)
			doPanic = true
		} else {
			f.panicAt[shard] = n
		}
	}
	f.mu.Unlock()
	if ch != nil {
		<-ch
	}
	if doPanic {
		panic("ntpnet: injected worker fault")
	}
}
