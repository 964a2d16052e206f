package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
)

// refSleep is Proc.Sleep as it stood before a process that is next in
// line was allowed to keep running: every sleep queues a wake-up and
// hands control to the scheduler, over whichever hand-off this
// toolchain compiles. It is the reference the inline rule is held to.
func refSleep(p *Proc, d time.Duration) {
	if p.stop {
		panic(procStopped{})
	}
	p.s.After(d, p.resume)
	p.park()
	if p.stop {
		panic(procStopped{})
	}
}

// sleepDelays is what the workload's actors sleep and schedule by: few
// distinct small values, so that wake-ups and events land on the same
// instants all the time, with zero and negative among them.
var sleepDelays = []time.Duration{
	-3 * time.Millisecond, 0, 0, time.Millisecond, time.Millisecond,
	2 * time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond,
	8 * time.Millisecond, 13 * time.Millisecond, 40 * time.Millisecond,
}

// seen is one line of a workload's log: who ran, at which virtual
// instant.
type seen struct {
	at  time.Duration
	who string
}

// sleepWorkload runs one seeded scenario with the given Sleep and
// returns what every actor and the driver saw, in execution order.
// Each actor draws from a generator of its own, so the scenario is the
// same whatever the interleaving and a difference between two logs is a
// difference in ordering or in virtual time, nothing else.
func sleepWorkload(seed int64, sleep func(*Proc, time.Duration)) []seen {
	s := NewScheduler(epoch)
	var log []seen
	note := func(who string) { log = append(log, seen{s.Now(), who}) }
	plan := rand.New(rand.NewSource(seed))
	pick := func(r *rand.Rand) time.Duration { return sleepDelays[r.Intn(len(sleepDelays))] }

	procs := make([]*Proc, 1+plan.Intn(4))
	for i := range procs {
		i, r := i, rand.New(rand.NewSource(plan.Int63()))
		s.Go(func(p *Proc) {
			procs[i] = p
			for n := 0; n < 40; n++ {
				note(fmt.Sprintf("proc%d", i))
				switch r.Intn(8) {
				case 0: // a plain event of this process's making
					name := fmt.Sprintf("after%d.%d", i, n)
					s.After(pick(r), func() { note(name) })
				case 1:
					if r.Intn(20) == 0 {
						p.Stop() // the next Sleep must unwind, eligible or not
					}
				}
				sleep(p, pick(r))
			}
		})
	}
	for i, n := 0, plan.Intn(3); i < n; i++ {
		name, left := fmt.Sprintf("every%d", i), 5+plan.Intn(60)
		s.Every(pick(plan), time.Duration(1+plan.Intn(9))*time.Millisecond, func() bool {
			note(name)
			left--
			return left > 0
		})
	}
	for i, n := 0, plan.Intn(4); i < n; i++ {
		name := fmt.Sprintf("at%d", i)
		s.At(time.Duration(plan.Intn(200))*time.Millisecond, func() { note(name) })
	}
	if plan.Intn(2) == 0 {
		// Stop a process from outside, mid-run: it is asleep then.
		s.At(time.Duration(plan.Intn(150))*time.Millisecond, func() {
			note("stop")
			if procs[0] != nil {
				procs[0].Stop()
			}
		})
	}

	// The driver mixes all three ways of running and notes the clock and
	// the queue after each, which is where a sleeper that ran past a
	// horizon or past a Step would show.
	after := func(what string) { note(fmt.Sprintf("driver: %s, %d pending", what, s.Pending())) }
	s.RunUntil(time.Duration(plan.Intn(80)) * time.Millisecond)
	after("rununtil")
	for i, n := 0, plan.Intn(6); i < n; i++ {
		s.Step()
		after("step")
	}
	s.RunUntil(s.Now() + time.Duration(plan.Intn(80))*time.Millisecond)
	after("rununtil")
	s.Run()
	after(fmt.Sprintf("run, seq %d", s.seq))
	return log
}

// TestSleepMatchesReference holds Proc.Sleep to refSleep over seeded
// random scenarios: same actors at the same virtual instants in the
// same order, same clock and queue after every RunUntil, Step and Run.
func TestSleepMatchesReference(t *testing.T) {
	sameInstant := 0
	for seed := int64(1); seed <= 300; seed++ {
		want := sleepWorkload(seed, refSleep)
		got := sleepWorkload(seed, (*Proc).Sleep)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, reference has %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d line %d: %v %s, reference %v %s", seed, i, got[i].at, got[i].who, want[i].at, want[i].who)
			}
			if i > 0 && want[i].at == want[i-1].at && want[i].who != want[i-1].who {
				sameInstant++
			}
		}
	}
	// The scenarios must exercise the case the strict comparison in the
	// rule exists for.
	if sameInstant < 1000 {
		t.Errorf("only %d same-instant successions over all seeds", sameInstant)
	}
}

// A process sleeping across the bound of RunUntil stays asleep there:
// the clock stops at the bound, and a later Run resumes the process at
// its own instant.
func TestRunUntilHoldsSleeperAtBound(t *testing.T) {
	s := NewScheduler(epoch)
	var woke []time.Duration
	s.Go(func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(3 * time.Second)
			woke = append(woke, p.Now())
		}
	})
	s.RunUntil(4 * time.Second)
	if s.Now() != 4*time.Second || len(woke) != 1 || s.Pending() != 1 {
		t.Fatalf("after RunUntil(4s): now=%v woke=%v pending=%d", s.Now(), woke, s.Pending())
	}
	s.RunUntil(6 * time.Second) // the bound itself is included
	if s.Now() != 6*time.Second || len(woke) != 2 {
		t.Fatalf("after RunUntil(6s): now=%v woke=%v", s.Now(), woke)
	}
	s.Run()
	want := []time.Duration{3 * time.Second, 6 * time.Second, 9 * time.Second, 12 * time.Second}
	if fmt.Sprint(woke) != fmt.Sprint(want) || s.Now() != 12*time.Second {
		t.Errorf("woke=%v now=%v, want %v", woke, s.Now(), want)
	}
}

// Step runs exactly one queued event, also when that event resumes a
// process with an empty queue behind it.
func TestStepParksSleeper(t *testing.T) {
	s := NewScheduler(epoch)
	iters := 0
	s.Go(func(p *Proc) {
		for iters < 5 {
			iters++
			p.Sleep(time.Second)
		}
	})
	defer s.Run() // let the process finish
	for i := 1; i <= 3; i++ {
		if !s.Step() {
			t.Fatal("no event to step")
		}
		if want := time.Duration(i-1) * time.Second; iters != i || s.Now() != want || s.Pending() != 1 {
			t.Fatalf("after step %d: iters=%d now=%v pending=%d", i, iters, s.Now(), s.Pending())
		}
	}
}

// Events at one instant fire in scheduling order when one of them is a
// sleeper's wake-up, whichever was scheduled first.
func TestSleeperKeepsSchedulingOrder(t *testing.T) {
	s := NewScheduler(epoch)
	var order []string
	s.At(5*time.Second, func() { order = append(order, "early event") })
	s.Go(func(p *Proc) {
		p.Sleep(5 * time.Second) // scheduled after "early event", before "late event"
		order = append(order, "sleeper")
		p.Sleep(0) // "late event" is already due at this instant
		order = append(order, "sleeper again")
	})
	s.At(time.Second, func() {
		s.At(5*time.Second, func() { order = append(order, "late event") })
	})
	s.Run()
	want := []string{"early event", "sleeper", "late event", "sleeper again"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %q, want %q", order, want)
	}
}

// Stop followed by a Sleep that nothing else competes with still
// unwinds the process, at once.
func TestStopThenLoneSleepUnwinds(t *testing.T) {
	s := NewScheduler(epoch)
	returned := false
	s.Go(func(p *Proc) {
		p.Sleep(time.Second)
		p.Stop()
		p.Sleep(time.Hour)
		returned = true
	})
	s.Run()
	if returned || s.Now() != time.Second {
		t.Errorf("returned=%v now=%v", returned, s.Now())
	}
}

// runSleeper runs body as the only process of a scheduler, half a
// millisecond out of phase with a 1 ms periodic event when competed is
// set: every 1 ms Sleep of body then has that event inside it and
// parks, where alone it advances the clock itself.
func runSleeper(competed bool, body func(p *Proc)) {
	s := NewScheduler(epoch)
	done := false
	s.Go(func(p *Proc) {
		p.Sleep(time.Millisecond / 2)
		body(p)
		done = true
	})
	if competed {
		s.Every(0, time.Millisecond, func() bool { return !done })
	}
	s.Run()
}

// Neither way through Sleep allocates: a lone process advances the
// clock itself, and a wake-up that has to be queued is a value in the
// event slice.
func TestSleepDoesNotAllocate(t *testing.T) {
	for _, competed := range []bool{false, true} {
		runSleeper(competed, func(p *Proc) {
			if n := testing.AllocsPerRun(200, func() { p.Sleep(time.Millisecond) }); n != 0 {
				t.Errorf("competed=%v: %v allocs per Sleep", competed, n)
			}
		})
	}
}

// A server reachable by name but by no path loses the probe, as
// Exchange refuses the request.
func TestPingWithoutPathIsLost(t *testing.T) {
	s, n, cl := buildNet(t, 0, nil)
	var rtt time.Duration
	var lost bool
	var err error
	s.Go(func(p *Proc) {
		tr := &Transport{Net: n, Proc: p, Clock: cl}
		rtt, lost = tr.Ping("ref0")
		_, _, err = tr.Exchange("ref0", ntppkt.NewSNTPClient(ntppkt.Version4, ntptime.FromTime(cl.Now())))
	})
	s.Run()
	if !lost || rtt != 0 {
		t.Errorf("ping rtt=%v lost=%v, want lost", rtt, lost)
	}
	if err == nil {
		t.Error("exchange without a path succeeded")
	}
}

func BenchmarkProcSleep(b *testing.B) {
	for _, bc := range []struct {
		name     string
		competed bool
	}{{"lone", false}, {"competed", true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			runSleeper(bc.competed, func(p *Proc) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Sleep(time.Millisecond)
				}
			})
		})
	}
}

// BenchmarkProcHandoff prices one park + resume: two processes half a
// millisecond out of phase sleep 1 ms each, so every Sleep has the
// other's wake-up inside it and hands control over.
func BenchmarkProcHandoff(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler(epoch)
	for i := 0; i < 2; i++ {
		phase := time.Duration(i) * time.Millisecond / 2
		s.Go(func(p *Proc) {
			p.Sleep(phase)
			for n := 0; n < b.N; n += 2 {
				p.Sleep(time.Millisecond)
			}
		})
	}
	b.ResetTimer()
	s.Run()
}

func BenchmarkTransportExchange(b *testing.B) {
	b.ReportAllocs()
	s, n, cl := buildNet(b, 0, NewWiredPath(10*time.Millisecond, time.Millisecond, 0, 0.01, 3))
	s.Go(func(p *Proc) {
		tr := &Transport{Net: n, Proc: p, Clock: cl}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := ntppkt.NewSNTPClient(ntppkt.Version4, ntptime.FromTime(cl.Now()))
			_, _, _ = tr.Exchange("ref0", req)
			p.Sleep(5 * time.Second)
		}
	})
	s.Run()
}
