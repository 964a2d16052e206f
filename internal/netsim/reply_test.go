package netsim

import (
	"reflect"
	"testing"
	"time"

	"mntp/internal/exchange"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
)

// replies runs count exchanges in a world built from fixed seeds and
// returns a copy of every reply (nil for a lost exchange). With reuse
// one Transport serves them all and its reply packet is poisoned before
// each call; without, every exchange gets a Transport of its own and so
// a fresh reply.
func replies(t *testing.T, count int, reuse bool) []*ntppkt.Packet {
	t.Helper()
	s, n, cl := buildNet(t, 30*time.Millisecond, NewWiredPath(10*time.Millisecond, time.Millisecond, 0, 0.05, 3))
	var out []*ntppkt.Packet
	s.Go(func(p *Proc) {
		shared := &Transport{Net: n, Proc: p, Clock: cl}
		for i := 0; i < count; i++ {
			tr := &Transport{Net: n, Proc: p, Clock: cl}
			if reuse {
				tr = shared
				tr.reply = ntppkt.Packet{
					Leap: 3, Version: 7, Mode: 6, Stratum: 99, Poll: -1, Precision: 1,
					RootDelay: 1<<32 - 1, RootDisp: 1<<32 - 1, RefID: [4]byte{'P', 'O', 'I', 'S'},
					RefTime: 1<<64 - 1, Origin: 1<<64 - 1, Receive: 1<<64 - 1, Transmit: 1<<64 - 1,
					Ext:       []ntppkt.ExtField{{Type: 0x0104, Value: []byte("stale")}},
					LegacyMAC: []byte{1, 2, 3, 4},
				}
			}
			req := ntppkt.NewSNTPClient(ntppkt.Version4, ntptime.FromTime(cl.Now()))
			resp, _, err := tr.Exchange("ref0", req)
			if err != nil {
				out = append(out, nil)
			} else {
				cp := *resp
				out = append(out, &cp)
			}
			p.Sleep(time.Second)
		}
	})
	s.Run()
	return out
}

func TestReusedReplyEqualsFresh(t *testing.T) {
	fresh, reused := replies(t, 200, false), replies(t, 200, true)
	answered := 0
	for i := range fresh {
		if !reflect.DeepEqual(fresh[i], reused[i]) {
			t.Fatalf("exchange %d: reused reply %+v, fresh reply %+v", i, reused[i], fresh[i])
		}
		if fresh[i] != nil {
			answered++
		}
	}
	if answered == 0 || answered == len(fresh) {
		t.Fatalf("%d of %d exchanges answered: want both replies and losses", answered, len(fresh))
	}
}

// constPath is a lossless 10 ms path.
var constPath = FuncPath(func(time.Duration, Direction) (time.Duration, bool) {
	return 10 * time.Millisecond, false
})

func TestMeasuresReturnIndependentSamples(t *testing.T) {
	s, n, cl := buildNet(t, 30*time.Millisecond, constPath)
	s.Go(func(p *Proc) {
		tr := &Transport{Net: n, Proc: p, Clock: cl}
		first, err := exchange.Measure(cl, tr, "ref0", ntppkt.Version4, true)
		if err != nil {
			t.Error(err)
			return
		}
		kept := first
		p.Sleep(time.Minute)
		second, err := exchange.Measure(cl, tr, "ref0", ntppkt.Version4, true)
		if err != nil {
			t.Error(err)
			return
		}
		if first != kept {
			t.Errorf("the second Measure changed the first Sample: %+v, was %+v", first, kept)
		}
		if second.T2 == first.T2 || second.T3 == first.T3 || !second.T1.After(first.T4) {
			t.Errorf("second Sample %+v does not follow the first %+v", second, first)
		}
	})
	s.Run()
}

func TestExchangeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	s, n, cl := buildNet(t, 0, constPath)
	s.Go(func(p *Proc) {
		tr := &Transport{Net: n, Proc: p, Clock: cl}
		for _, simple := range []bool{true, false} {
			allocs := testing.AllocsPerRun(1000, func() {
				if _, err := exchange.Measure(cl, tr, "ref0", ntppkt.Version4, simple); err != nil {
					t.Error(err)
				}
			})
			if allocs != 0 {
				t.Errorf("Measure (simple=%v) over a netsim.Transport: %v allocs per exchange, want 0", simple, allocs)
			}
		}
	})
	s.Run()
}
