//go:build go1.23

package netsim

import (
	"runtime"
	"testing"
	"time"
)

// A panic in a process body surfaces in the goroutine that drives the
// scheduler, where the caller of Run can recover it; the processes it
// left asleep still unwind on stop, and nothing outlives the scheduler.
func TestProcsPanicReachesRun(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewScheduler()
	var asleep *Proc
	woke := 0
	s.Go(func(p *Proc) {
		asleep = p
		for {
			p.Sleep(300 * time.Millisecond) // parks: the other two interleave
			woke++
		}
	})
	s.Go(func(p *Proc) {
		p.Sleep(time.Second)
		panic("boom")
	})
	s.Go(func(p *Proc) {
		p.Sleep(time.Minute)
		p.stop() // stopped while running: the next Sleep unwinds
		p.Sleep(time.Hour)
		t.Error("a stopped process returned from Sleep")
	})

	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v around Run, want the body's panic", r)
			}
		}()
		s.Run()
	}()
	if s.Now() != time.Second || woke != 3 {
		t.Fatalf("panic surfaced at %v after %d wake-ups, want 1s and 3", s.Now(), woke)
	}

	s.runUntil(2 * time.Second)
	asleep.stop() // stopped while parked: the next resume unwinds
	s.Run()
	if woke != 6 || len(s.events) != 0 || s.Now() != time.Minute {
		t.Errorf("after stop: woke=%d pending=%d now=%v", woke, len(s.events), s.Now())
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after every process has exited", before, after)
	}
}
