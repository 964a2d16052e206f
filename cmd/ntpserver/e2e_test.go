package main

import (
	"bufio"
	"bytes"
	"crypto/ecdsa"
	"crypto/x509"
	"encoding/json"
	"encoding/pem"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mntp/internal/loadgen"
	"mntp/internal/ntske"
)

// restartDarkBound is the longest run of 100 ms intervals with nothing
// answered that the upgrade-restart case allows between the first and
// the last answer: SIGTERM drain, exit, race-built relaunch, ring
// restore. Twenty local runs (2 vCPUs, ten of them beside a looping
// go test of ntpnet, loadgen and population) went 14–33 ms from
// SIGTERM to the relaunch listening and never left a 100 ms interval
// empty; 3 intervals is nine times that worst gap and a seventh of the
// -drain budget.
const restartDarkBound = 3

// overloadDarkBound is the longest run of 100 ms intervals with nothing
// answered that the overload case allows while it sheds. Six local runs
// (2 vCPUs) answered 74–81 % of 180 k requests, three times the
// quarter the case requires, and never left one of their 30 intervals
// empty.
const overloadDarkBound = 5

// op is one action on a case's timeline.
type op int

const (
	opLoad     op = iota // start an ntpload run against the live server
	opWait               // wait for every ntpload run started so far
	opTerm               // SIGTERM the live server; it must exit 0
	opRelaunch           // start the server again on the same ports
	opHUP                // rewrite -config, SIGHUP, wait for the reload's outcome line
	opRemove             // delete $DIR/<args>
)

// step runs op at an offset from the first server's listening line
// (or, when an earlier step took longer, right after it).
type step struct {
	at   time.Duration
	op   op
	name string // opLoad: the run's name in checks
	// args is ntpload's flags for opLoad ($DIR is the case's directory,
	// $KE the NTS-KE address; -target and -json are added), the new
	// -config body for opHUP, a file name for opRemove.
	args string
}

// e2eCase is one serving contract: server flags, a timeline, typed
// checks. A reject case instead names a command line that must exit 2
// with a message naming its last flag and value.
type e2eCase struct {
	name    string
	race    bool   // race-build the server
	server  string // ntpserver flags; -listen, -nts-listen and -stats 0 are added
	config  string // initial $DIR/server.conf
	certKey bool   // write a self-signed $DIR/cert.pem and its $DIR/key.pem first
	steps   []step
	check   func(t *testing.T, r *e2eRun)
	reject  string
}

var e2eCases = []e2eCase{
	{
		// Graceful degradation: 60k req/s offered to a deliberately small
		// server (one worker, a 128-entry rate table against 512 sources)
		// with admission control on. It must shed explicitly, keep the
		// p99 of what it does answer bounded — shedding, not queueing —
		// answer at least a quarter of what it is sent — shed, not
		// collapsed — and never go dark for more than overloadDarkBound
		// intervals of 100 ms.
		name:   "overload",
		server: "-shards 1 -workers 1 -overload -shed-target 200us -shed-interval 50ms -watchdog 250ms -ratelimit 100000 -ratewindow 1m -maxclients 128",
		steps: []step{
			{op: opLoad, name: "load", args: "-rate 60000 -duration 3s -population 512 -timeout 500ms -interval 100ms"},
		},
		check: func(t *testing.T, r *e2eRun) {
			shed, dropped := r.stat(t, "shed"), r.stat(t, "shed-dropped")
			rep := r.report("load")
			if shed+dropped == 0 {
				t.Errorf("shed=%d shed-dropped=%d: the server never shed", shed, dropped)
			}
			if rep.Latency.P99Us >= 50000 {
				t.Errorf("answered p99 %.0f µs, want < 50 ms", rep.Latency.P99Us)
			}
			if rep.Received == 0 || rep.Received < rep.Sent/4 {
				t.Errorf("answered %d of %d: the server collapsed instead of shedding", rep.Received, rep.Sent)
			}
			dark := darkStreak(rep.Intervals)
			if dark > overloadDarkBound {
				t.Errorf("dark for %d × 100 ms, want ≤ %d", dark, overloadDarkBound)
			}
			t.Logf("answered %d of %d (p99 %.0f µs), shed %d, early-dropped %d, longest dark run %d × 100 ms",
				rep.Received, rep.Sent, rep.Latency.P99Us, shed, dropped, dark)
		},
	},
	{
		// NTS under a spoof storm: a race-built -nts server, its cookie
		// ring rotating every 2 s, with one worker and a 128-entry table
		// so a 512-source plain storm keeps looking like new flows — the
		// traffic Degraded sheds. Authenticated load must ride it out.
		name:   "nts-storm",
		race:   true,
		server: "-workers 1 -overload -shed-target 200us -shed-interval 50ms -watchdog 250ms -ratelimit 100000 -ratewindow 1m -maxclients 128 -nts -nts-cert-out $DIR/ca.pem -nts-rotate 2s",
		steps: []step{
			{op: opLoad, name: "storm", args: "-rate 10000 -duration 4s -population 512 -timeout 500ms"},
			{at: 500 * time.Millisecond, op: opLoad, name: "nts", args: "-rate 500 -duration 3s -nts $KE -nts-ca $DIR/ca.pem -timeout 500ms"},
		},
		check: func(t *testing.T, r *e2eRun) {
			storm, nts := r.report("storm"), r.report("nts")
			stormFrac := float64(storm.Received) / float64(storm.Sent)
			ntsFrac := float64(nts.Received) / float64(nts.Sent)
			if storm.KoDRate == 0 {
				t.Error("storm kod_rate = 0: the storm was never shed")
			}
			if nts.Received == 0 || nts.KoDNTS != 0 || nts.NTSAuthFail != 0 {
				t.Errorf("NTS run received %d, kod_nts %d, nts_auth_fail %d: want some answered, no NAK, no verify failure",
					nts.Received, nts.KoDNTS, nts.NTSAuthFail)
			}
			if !(ntsFrac > stormFrac) {
				t.Errorf("authenticated answered fraction %.3f, want above the storm's %.3f", ntsFrac, stormFrac)
			}
			t.Logf("authenticated %.1f%% answered vs plain %.1f%% (storm kod_rate=%d)", 100*ntsFrac, 100*stormFrac, storm.KoDRate)
		},
	},
	{
		// Upgrade restart: a race-built server with a persisted NTS ring
		// is drained and relaunched on the same ports mid-run. The
		// restored ring keeps every cookie minted before the restart
		// valid, so the only unanswered requests are those sent into the
		// gap.
		name:   "upgrade-restart",
		race:   true,
		server: "-drain 2s -nts -nts-cert-out $DIR/ca.pem -nts-state $DIR/ring.state -nts-state-key $DIR/ring.key",
		steps: []step{
			{op: opLoad, name: "nts", args: "-rate 500 -duration 8s -nts $KE -nts-insecure -timeout 500ms -interval 100ms"},
			{at: 2 * time.Second, op: opTerm},
			{at: 2 * time.Second, op: opRelaunch},
		},
		check: func(t *testing.T, r *e2eRun) {
			if !slices.ContainsFunc(r.servers[1].lines, func(l string) bool { return strings.Contains(l, "NTS ring restored") }) {
				t.Error("the relaunch did not log `NTS ring restored`")
			}
			l := r.load("nts")
			rep := l.report
			if rep.KoDNTS != 0 || rep.NTSAuthFail != 0 {
				t.Errorf("kod_nts %d, nts_auth_fail %d: the restored ring must open every cookie", rep.KoDNTS, rep.NTSAuthFail)
			}
			if rep.Truncated || rep.Received == 0 || rep.LossFraction > 0.5 {
				t.Errorf("truncated %v, received %d, loss %.3f: want a whole run, answered, loss ≤ 0.5",
					rep.Truncated, rep.Received, rep.LossFraction)
			}
			dark := darkStreak(rep.Intervals)
			if dark > restartDarkBound {
				t.Errorf("dark for %d × 100 ms, want ≤ %d", dark, restartDarkBound)
			}
			relaunch := r.relaunched.Sub(l.start).Seconds()
			var after uint64
			for _, iv := range rep.Intervals {
				if iv.ElapsedSec-0.1 >= relaunch {
					after += iv.Received
				}
			}
			if after == 0 {
				t.Error("nothing answered after the relaunch")
			}
			t.Logf("received %d (%d after the relaunch), lost %.1f%%, longest dark run %d × 100 ms",
				rep.Received, after, 100*rep.LossFraction, dark)
		},
	},
	{
		// SIGHUP: the -config file's new rate limit applies live, the
		// self-signed certificate is regenerated and republished, and
		// the server keeps serving on the same workers: the reload
		// restarts nothing.
		name:   "sighup-reload",
		server: "-config $DIR/server.conf -nts -nts-cert-out $DIR/cert.pem",
		config: "# no rate limit\n",
		steps: []step{
			{op: opLoad, name: "open", args: "-rate 200 -duration 1s -timeout 500ms"},
			{op: opWait},
			{op: opHUP, args: "ratelimit=20\n"},
			{op: opLoad, name: "limited", args: "-rate 200 -duration 1s -timeout 500ms"},
		},
		check: func(t *testing.T, r *e2eRun) {
			open, limited := r.report("open"), r.report("limited")
			if open.Received == 0 || open.KoDRate != 0 {
				t.Errorf("before the reload: received %d, kod_rate %d; want answered and no RATE", open.Received, open.KoDRate)
			}
			if limited.Received == 0 || limited.KoDRate == 0 {
				t.Errorf("after ratelimit=20: received %d, kod_rate %d; want both > 0", limited.Received, limited.KoDRate)
			}
			if before := r.beforeHUP["cert.pem"]; len(before) == 0 || bytes.Equal(before, r.file(t, "cert.pem")) {
				t.Error("SIGHUP left -nts-cert-out unchanged")
			}
			if n := r.stat(t, "restarts"); n != 0 {
				t.Errorf("restarts=%d after a SIGHUP, want 0: a reload restarts no worker", n)
			}
		},
	},
	{
		// A reload is all or nothing: when the certificate cannot be
		// reloaded, the -config file's new rate limit must not go live
		// either.
		name:    "sighup-reload-atomic",
		server:  "-config $DIR/server.conf -nts -nts-cert $DIR/cert.pem -nts-key $DIR/key.pem",
		config:  "# no rate limit\n",
		certKey: true,
		steps: []step{
			{op: opRemove, args: "key.pem"},
			{op: opHUP, args: "ratelimit=20\n"},
			{op: opLoad, name: "after", args: "-rate 200 -duration 1s -timeout 500ms"},
		},
		check: func(t *testing.T, r *e2eRun) {
			if !slices.ContainsFunc(r.live().lines, func(l string) bool { return reloadFailed.MatchString(l) }) {
				t.Error("the reload without -nts-key did not report a failure")
			}
			after := r.report("after")
			if after.Received == 0 || after.KoDRate != 0 {
				t.Errorf("after the failed reload: received %d, kod_rate %d; want answered and no RATE", after.Received, after.KoDRate)
			}
		},
	},
	{name: "reject ntpload -senders -1", reject: "ntpload -target 127.0.0.1:9 -duration 100ms -senders -1"},
	{name: "reject ntpload -rate 0", reject: "ntpload -target 127.0.0.1:9 -duration 100ms -rate 0"},
	{name: "reject ntpload -timeout -1s", reject: "ntpload -target 127.0.0.1:9 -duration 100ms -timeout -1s"},
	{name: "reject ntpserver -stratum 16", reject: "ntpserver -stratum 16"},
	{name: "reject sntp -n -1", reject: "sntp -server 127.0.0.1:9 -timeout 100ms -n -1"},
	{name: "reject sntp -timeout -1s", reject: "sntp -server 127.0.0.1:9 -timeout -1s"},
	{name: "reject sntp -drop 1.5", reject: "sntp -server 127.0.0.1:9 -timeout 100ms -drop 1.5"},
	{name: "reject sntp -kod -0.2", reject: "sntp -server 127.0.0.1:9 -timeout 100ms -kod -0.2"},
}

// TestE2E proves the serving contracts on the built binaries:
//
//	go test -count=1 -run E2E ./cmd/ntpserver
//
// It builds ntpserver (race-instrumented for the cases that ask) and
// ntpload into a temp dir, binds :0 everywhere except on a relaunch,
// waits on the server's "listening on" lines rather than on sleeps,
// and logs every child's raw output when a case fails.
func TestE2E(t *testing.T) {
	if raceEnabled {
		t.Skip("execs binaries only; the NTS and restart cases race-build the server instead")
	}
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("building the binaries needs the go command: %v", err)
	}
	b := &builds{goCmd: goCmd, dir: t.TempDir(), paths: map[string]string{}}
	for _, c := range e2eCases {
		t.Run(c.name, func(t *testing.T) {
			if c.reject != "" {
				runReject(t, b, strings.Fields(c.reject))
				return
			}
			runCase(t, b, c)
		})
	}
}

// builds builds each binary once per test run.
type builds struct {
	goCmd, dir string
	paths      map[string]string
}

func (b *builds) path(t *testing.T, cmd string, race bool) string {
	name, args := cmd, []string{"build"}
	if race {
		name, args = cmd+"-race", append(args, "-race")
	}
	if p, ok := b.paths[name]; ok {
		return p
	}
	p := filepath.Join(b.dir, name)
	if out, err := exec.Command(b.goCmd, append(args, "-o", p, "mntp/cmd/"+cmd)...).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", name, err, out)
	}
	b.paths[name] = p
	return p
}

func runReject(t *testing.T, b *builds, argv []string) {
	cmd := exec.Command(b.path(t, argv[0], false), argv[1:]...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("%s: %v, want exit 2\n%s", strings.Join(argv, " "), err, stderr.Bytes())
	}
	if flag := strings.Join(argv[len(argv)-2:], " "); !strings.Contains(stderr.String(), flag) {
		t.Errorf("stderr %q does not name %q", stderr.String(), flag)
	}
}

var (
	keListening  = regexp.MustCompile(`^ntpserver NTS-KE listening on (\S+) `)
	udpListening = regexp.MustCompile(`^ntpserver listening on (\S+) `)
	reloadLine   = regexp.MustCompile(`^ntpserver(?: reloaded |: reload: )`)
	reloadFailed = regexp.MustCompile(`^ntpserver: reload: `)
)

// e2eRun is one case in flight and, once it is over, its evidence.
type e2eRun struct {
	dir, server, ntpload string
	flags                []string // the case's ntpserver flags, unexpanded
	udp, ke              string   // bound NTP and NTS-KE addresses
	servers              []*server
	loads                []*load
	relaunched           time.Time         // when the last relaunch was listening
	beforeHUP            map[string][]byte // $DIR's files before the last SIGHUP
}

func runCase(t *testing.T, b *builds, c e2eCase) {
	r := &e2eRun{
		dir:     t.TempDir(),
		server:  b.path(t, "ntpserver", c.race),
		ntpload: b.path(t, "ntpload", false),
		flags:   strings.Fields(c.server),
	}
	t.Cleanup(func() { r.close(t) })
	if c.config != "" {
		if err := os.WriteFile(filepath.Join(r.dir, "server.conf"), []byte(c.config), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if c.certKey {
		writeCertKey(t, r.dir)
	}
	r.launch(t, "127.0.0.1:0", "127.0.0.1:0")
	t0 := time.Now()
	for _, s := range c.steps {
		time.Sleep(time.Until(t0.Add(s.at)))
		switch s.op {
		case opLoad:
			r.startLoad(t, s.name, s.args)
		case opWait:
			r.waitLoads(t)
		case opTerm:
			r.term(t)
		case opRelaunch:
			r.launch(t, r.udp, r.ke)
			r.relaunched = time.Now()
		case opHUP:
			r.hup(t, s.args)
		case opRemove:
			if err := os.Remove(filepath.Join(r.dir, s.args)); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.waitLoads(t)
	if s := r.live(); s.exited() {
		t.Errorf("ntpserver generation %d exited on its own: %v", len(r.servers), s.err)
	} else {
		r.term(t)
	}
	c.check(t, r)
}

func (r *e2eRun) expand(flags []string) []string {
	rep := strings.NewReplacer("$DIR", r.dir, "$KE", r.ke)
	out := make([]string, len(flags))
	for i, f := range flags {
		out[i] = rep.Replace(f)
	}
	return out
}

func (r *e2eRun) live() *server { return r.servers[len(r.servers)-1] }

// launch starts a server generation and waits until it listens.
func (r *e2eRun) launch(t *testing.T, listen, keListen string) {
	args := append([]string{"-listen", listen, "-stats", "0"}, r.expand(r.flags)...)
	nts := slices.Contains(r.flags, "-nts")
	if nts {
		args = append(args, "-nts-listen", keListen)
	}
	s := startServer(t, r.server, args)
	r.servers = append(r.servers, s)
	if nts {
		r.ke = s.waitLine(t, keListening)[1]
	}
	r.udp = s.waitLine(t, udpListening)[1]
}

// term SIGTERMs the live server and holds it to a clean drain.
func (r *e2eRun) term(t *testing.T) {
	s := r.live()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		t.Fatal("ntpserver still running 30 s after SIGTERM")
	}
	if s.err != nil {
		t.Errorf("ntpserver generation %d: %v, want exit 0 from SIGTERM", len(r.servers), s.err)
	}
}

func (r *e2eRun) hup(t *testing.T, config string) {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		t.Fatal(err)
	}
	r.beforeHUP = map[string][]byte{}
	for _, e := range entries {
		r.beforeHUP[e.Name()] = r.file(t, e.Name())
	}
	if err := os.WriteFile(filepath.Join(r.dir, "server.conf"), []byte(config), 0o600); err != nil {
		t.Fatal(err)
	}
	s := r.live()
	if err := s.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatalf("SIGHUP: %v", err)
	}
	s.waitLine(t, reloadLine)
}

// writeCertKey writes a self-signed certificate and its private key as
// dir's cert.pem and key.pem, for -nts-cert and -nts-key.
func writeCertKey(t *testing.T, dir string) {
	cert, certPEM, err := ntske.SelfSigned(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(cert.PrivateKey.(*ecdsa.PrivateKey))
	if err != nil {
		t.Fatal(err)
	}
	keyPEM := pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})
	for name, b := range map[string][]byte{"cert.pem": certPEM, "key.pem": keyPEM} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

func (r *e2eRun) file(t *testing.T, name string) []byte {
	b, err := os.ReadFile(filepath.Join(r.dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// stat reads the counter key= from the final stats line of the last
// server generation, the one it prints at SIGTERM.
func (r *e2eRun) stat(t *testing.T, key string) uint64 {
	counter := regexp.MustCompile(`(?:^| )` + regexp.QuoteMeta(key) + `=(\d+)`)
	lines := r.live().lines
	for i := len(lines) - 1; i >= 0; i-- {
		if m := counter.FindStringSubmatch(lines[i]); m != nil {
			n, _ := strconv.ParseUint(m[1], 10, 64)
			return n
		}
	}
	t.Fatalf("no stats line with %s=", key)
	return 0
}

func (r *e2eRun) load(name string) *load {
	for _, l := range r.loads {
		if l.name == name {
			return l
		}
	}
	panic("no ntpload run named " + name)
}

func (r *e2eRun) report(name string) *loadgen.Report { return r.load(name).report }

// close stops whatever is still running and, if the case failed, logs
// every child's raw output.
func (r *e2eRun) close(t *testing.T) {
	for _, s := range r.servers {
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	for _, l := range r.loads {
		_ = l.cmd.Process.Kill()
		<-l.done
	}
	if !t.Failed() {
		return
	}
	for i, s := range r.servers {
		t.Logf("ntpserver generation %d (%v):\n%s", i+1, s.err, strings.Join(s.lines, "\n"))
	}
	for _, l := range r.loads {
		t.Logf("ntpload %s (%v):\n%s%s", l.name, l.err, l.stderr.Bytes(), l.stdout.Bytes())
	}
}

// server is one ntpserver generation; its stdout and stderr arrive as
// lines, which waitLine consumes in order.
type server struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process is reaped
	err  error         // its exit status, once done

	mu    sync.Mutex
	lines []string
	seen  int           // lines waitLine has consumed
	wake  chan struct{} // closed on every new line and on exit
	gone  bool
}

func startServer(t *testing.T, bin string, args []string) *server {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	s := &server{cmd: exec.Command(bin, args...), done: make(chan struct{}), wake: make(chan struct{})}
	s.cmd.Stdout, s.cmd.Stderr = pw, pw
	// A race-built child otherwise sleeps a second before exiting (to
	// let stragglers report); a race it found still exits 66.
	s.cmd.Env = append(os.Environ(), "GORACE="+strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	err = s.cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		t.Fatal(err)
	}
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			s.mu.Lock()
			s.lines = append(s.lines, sc.Text())
			close(s.wake)
			s.wake = make(chan struct{})
			s.mu.Unlock()
		}
		pr.Close()
		s.err = s.cmd.Wait()
		s.mu.Lock()
		s.gone = true
		close(s.wake)
		s.mu.Unlock()
		close(s.done)
	}()
	return s
}

func (s *server) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// waitLine returns the submatches of the next unconsumed line matching
// re, failing the test if the server exits or stays silent first.
func (s *server) waitLine(t *testing.T, re *regexp.Regexp) []string {
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	for {
		s.mu.Lock()
		for s.seen < len(s.lines) {
			line := s.lines[s.seen]
			s.seen++
			if m := re.FindStringSubmatch(line); m != nil {
				s.mu.Unlock()
				return m
			}
		}
		wake, gone := s.wake, s.gone
		s.mu.Unlock()
		if gone {
			<-s.done
			t.Fatalf("ntpserver exited (%v) before printing a line matching %q", s.err, re)
		}
		select {
		case <-wake:
		case <-timeout.C:
			t.Fatalf("ntpserver printed no line matching %q within 30 s", re)
		}
	}
}

// load is one ntpload run.
type load struct {
	name           string
	cmd            *exec.Cmd
	start          time.Time
	stdout, stderr bytes.Buffer
	done           chan struct{}
	err            error
	report         *loadgen.Report // decoded once the run exited 0
}

func (r *e2eRun) startLoad(t *testing.T, name, flags string) {
	args := append([]string{"-target", r.udp, "-json", "-"}, r.expand(strings.Fields(flags))...)
	l := &load{name: name, cmd: exec.Command(r.ntpload, args...), done: make(chan struct{})}
	l.cmd.Stdout, l.cmd.Stderr = &l.stdout, &l.stderr
	if err := l.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	l.start = time.Now()
	r.loads = append(r.loads, l)
	go func() {
		l.err = l.cmd.Wait()
		close(l.done)
	}()
}

// waitLoads waits for every run started so far; each must exit 0 with
// a report.
func (r *e2eRun) waitLoads(t *testing.T) {
	for _, l := range r.loads {
		if l.report != nil {
			continue
		}
		select {
		case <-l.done:
		case <-time.After(time.Minute):
			t.Fatalf("ntpload %s still running after a minute", l.name)
		}
		if l.err != nil {
			t.Fatalf("ntpload %s: %v", l.name, l.err)
		}
		l.report = new(loadgen.Report)
		if err := json.Unmarshal(l.stdout.Bytes(), l.report); err != nil {
			t.Fatalf("ntpload %s report: %v", l.name, err)
		}
	}
}

// darkStreak is the longest run of intervals that received nothing,
// strictly between the first and the last that received anything.
func darkStreak(ivs []loadgen.Interval) int {
	first, last := -1, -1
	for i, iv := range ivs {
		if iv.Received > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	longest, run := 0, 0
	for i := first + 1; i < last; i++ {
		if ivs[i].Received == 0 {
			run++
			longest = max(longest, run)
		} else {
			run = 0
		}
	}
	return longest
}
