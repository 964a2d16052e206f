package population

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

const (
	benchFleetPoll   = 64 * time.Second
	benchFleetRounds = 16
)

// benchFleetConfig is bench/sims.go's fleetConfig: the jittered leg of
// the thundering-herd scenario, a synchronized cold start against four
// honest servers and then 16 poll rounds of 64 s with 10 % jitter.
func benchFleetConfig(n int, seed int64) Config {
	return Config{N: n, Seed: seed, Mode: ModeSim, Upstreams: goodPool(), PollBase: benchFleetPoll, PollJitter: 0.1}
}

// TestFleetMatchesBenchGolden runs the small fleet of the benchmark's
// set-up check at the seed of bench/golden/fleet_sim.json and compares
// its counts with that file, as the runner does before it times
// anything. All its clients tie at t = 0 and the servers and channels
// share rngs, so the counts move with any change in the order events
// leave the heap or in the draws an exchange makes. The file is only
// read; `bash bench/run.sh -update-golden` rewrites it after an
// intended change of behaviour.
func TestFleetMatchesBenchGolden(t *testing.T) {
	raw, err := os.ReadFile("../../bench/golden/fleet_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	type counts struct {
		N             int    `json:"n"`
		Sent          uint64 `json:"sent"`
		Served        uint64 `json:"served"`
		ServedClients int    `json:"served_clients"`
	}
	var golden struct {
		Seed  int64  `json:"seed"`
		Fleet counts `json:"fleet_sim"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	e, err := New(benchFleetConfig(golden.Fleet.N, golden.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(benchFleetRounds * benchFleetPoll); err != nil {
		t.Fatal(err)
	}
	tot := e.Totals()
	got := counts{N: golden.Fleet.N, Sent: tot.Sent, Served: tot.OK, ServedClients: e.ServedClients()}
	if got != golden.Fleet {
		t.Fatalf("fleet counts at golden seed %d: want %+v, got %+v", golden.Seed, golden.Fleet, got)
	}
}

// TestSimScenariosReplay: a scenario is a function of its seed. Two
// runs marshal to the same bytes, and those are the bytes of
// testdata/<name>_seed<seed>.json, which `ntppop -scenario X -seed N`
// printed before the engine's pop, warm-up sort and RTT recorder were
// rewritten (the chaos rows: before the options census; nat: when its
// server moved in process). Regenerate a file the same way after an
// intended change. Every row passes and keeps the count that shows its
// harness did something — failed polls, or for nat, whose in-process
// server never times out, RATE replies. The chaos and nat rows are
// small enough to run under -race; herd and falseticker skip there, as
// TestHerdScenario does.
func TestSimScenariosReplay(t *testing.T) {
	fails := func(r *Report) uint64 { return r.Fails }
	rated := func(r *Report) uint64 { return r.Rated }
	for _, c := range []struct {
		name  string
		seed  int64
		race  bool
		alive func(*Report) uint64
	}{
		{scenarioHerd, 1, false, fails},
		{scenarioFalseticker, 1, false, fails},
		{scenarioNAT, 1, true, rated},
		{scenarioBlackout, 9, true, fails},
		{scenarioFalsetickerFlip, 9, true, fails},
	} {
		t.Run(fmt.Sprintf("%s_seed%d", c.name, c.seed), func(t *testing.T) {
			if raceEnabled && !c.race {
				t.Skip("skipped under -race, as TestHerdScenario is")
			}
			var r *Report
			marshal := func() []byte {
				var err error
				if r, err = Run(c.name, 0, c.seed); err != nil {
					t.Fatal(err)
				}
				out, err := json.MarshalIndent(r, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				return append(out, '\n')
			}
			first, again := marshal(), marshal()
			if !bytes.Equal(first, again) {
				t.Errorf("two runs differ:\n%s\n%s", first, again)
			}
			want, err := os.ReadFile(fmt.Sprintf("testdata/%s_seed%d.json", c.name, c.seed))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, want) {
				t.Errorf("report differs from testdata:\n got %s\nwant %s", first, want)
			}
			if !r.Pass || c.alive(r) == 0 {
				t.Errorf("pass = %v, harness-alive count = %d: want a passing report that kept it (violations: %v)", r.Pass, c.alive(r), r.Violations)
			}
		})
	}
}

// TestSimExchangeDoesNotAllocate: once a client has its regular server,
// a poll — pop, exchange, record, reschedule — allocates nothing.
func TestSimExchangeDoesNotAllocate(t *testing.T) {
	e, err := New(benchFleetConfig(2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(2 * benchFleetPoll); err != nil {
		t.Fatal(err)
	}
	for id, s := range e.f.srvIdx {
		if s < 0 {
			// Still cold after two rounds: give it a server, so that
			// every step below is a regular-phase one.
			e.f.srvIdx[id] = 0
		}
	}
	// The traffic bins grow with virtual time, not with exchanges.
	e.bins.grow(e.bins.idx(int64(benchFleetRounds * benchFleetPoll)))
	before := e.Totals().Sent
	allocs := testing.AllocsPerRun(5000, func() {
		_, shard, _ := e.nextClient()
		evt := e.heaps[shard].pop()
		e.vt = evt.at
		e.step(int(evt.id))
	})
	if allocs != 0 {
		t.Fatalf("a regular-phase ModeSim poll allocates %v times, want 0", allocs)
	}
	if sent := e.Totals().Sent - before; sent < 5000 {
		t.Fatalf("only %d polls in 5000 steps: the steps measured were not exchanges", sent)
	}
}

// BenchmarkFleet is the fleet_sim workload in small: one op is a
// 20 000-client fleet built and run for 16 poll rounds.
func BenchmarkFleet(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		e, err := New(benchFleetConfig(20_000, 2016+int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Run(benchFleetRounds * benchFleetPoll); err != nil {
			b.Fatal(err)
		}
		events += e.Totals().Sent
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
