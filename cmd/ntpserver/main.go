// Command ntpserver runs a standalone NTP/SNTP server over UDP,
// answering mode-3 queries from the system clock (optionally shifted,
// for testing client behaviour against a known-wrong server). The
// listen path is sharded across SO_REUSEPORT sockets (-shards), each
// shard running its own pool of worker goroutines; abusive clients
// are rate-limited from a bounded table, and the merged metrics
// surface (served/limited/shed/dropped/malformed counters plus a
// request-latency histogram and health state) is printed
// periodically. With -overload the server degrades gracefully under
// offered load beyond capacity: it sheds new flows with RATE kisses
// once reply sojourn exceeds -shed-target for a sustained
// -shed-interval, and drops before parsing when fully overloaded,
// so the clients it does answer are answered with fresh timestamps.
// Workers respawn after panics and a watchdog restarts wedged shards.
//
// -shards > 1 needs SO_REUSEPORT (Linux) and binds the whole group or
// nothing: when one socket of it is refused, the ones already bound
// are closed and the server exits 1.
//
// Usage:
//
//	ntpserver [-listen 127.0.0.1:11123] [-stratum 2] [-shift 0ms]
//	          [-shards 1] [-workers 0] [-ratelimit 0] [-ratewindow 1m]
//	          [-maxclients 16384] [-stats 30s] [-overload]
//	          [-shed-target 5ms] [-shed-interval 100ms] [-watchdog 1s]
//	          [-drain 5s] [-config server.conf]
//	          [-nts] [-nts-listen host:4460] [-nts-cert c.pem -nts-key k.pem]
//	          [-nts-cert-out cert.pem] [-nts-rotate 0]
//	          [-nts-state ring.state -nts-state-key ring.key]
//
// With -nts the server also runs an NTS-KE endpoint (RFC 8915): a TLS
// listener that negotiates keys and hands out cookies sealed by a
// rotating key ring, and the UDP path verifies NTS extension fields
// against that same ring — refusing bad authenticators with NTS NAK
// and letting verified requests through Degraded-state shedding.
// Without -nts-cert/-nts-key a self-signed certificate is generated
// at startup; -nts-cert-out writes its PEM so clients can pin it
// (ntpload/mntp/sntp -nts-ca).
//
// Lifecycle: SIGTERM/SIGINT drain gracefully — new datagrams stop
// being admitted, in-flight requests are answered, sockets close only
// after the drain or the -drain deadline (0 drains nothing: the old
// immediate close). SIGHUP reloads live: the -config file (name=value
// lines, each naming a reloadable flag — stratum, ratelimit,
// ratewindow, maxclients, shed-target, shed-interval; a flag it omits
// keeps its command-line value) is re-read and range-checked like the
// command line, the NTS certificate is reloaded (self-signed
// regenerated, or -nts-cert/-nts-key re-read from disk) and
// -nts-cert-out rewritten; only when all of that succeeded are both
// applied, without dropping a socket, and the worker pools recycled
// one shard at a time under load.
// With -nts-state the cookie ring is persisted (sealed under the key
// in -nts-state-key, created on first run) and restored on restart,
// so outstanding cookies survive and the fleet never sees a restart
// as an NTS NAK storm.
package main

import (
	"context"
	"crypto/tls"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mntp/internal/clock"
	"mntp/internal/ntpnet"
	"mntp/internal/nts"
	"mntp/internal/ntske"
	"mntp/internal/overload"
)

// settings are the reloadable parameters. bind declares each once, as
// a flag whose name is also its -config key; the command line and
// every file line set them through that declaration and pass the same
// check.
type settings struct {
	stratum, rateLimit, maxClients       int
	rateWindow, shedTarget, shedInterval time.Duration
}

// bind declares the reloadable flags on fs, bound to s's fields; it
// sets s to the defaults.
func (s *settings) bind(fs *flag.FlagSet) {
	fs.IntVar(&s.stratum, "stratum", 2, "advertised stratum (1..15); reloadable")
	fs.IntVar(&s.rateLimit, "ratelimit", 0, "max requests per client per window (0 = unlimited); reloadable")
	fs.DurationVar(&s.rateWindow, "ratewindow", time.Minute, "rate-limit window; reloadable")
	fs.IntVar(&s.maxClients, "maxclients", ntpnet.DefaultMaxClients, "rate-limit table bound; reloadable")
	fs.DurationVar(&s.shedTarget, "shed-target", 5*time.Millisecond, "overload: reply-sojourn EWMA target (CoDel-style); reloadable")
	fs.DurationVar(&s.shedInterval, "shed-interval", 100*time.Millisecond, "overload: sustained excess required before shedding; reloadable")
}

// check range-checks before anything silently truncates: stratum
// feeds a uint8 (a 256 would wrap to 0, a kiss-of-death stratum),
// a negative limit would read as "off", and a non-positive window,
// table bound or shed parameter would read as "default". Messages
// lead with the flag/key name.
func (s settings) check() error {
	switch {
	case s.stratum < 1 || s.stratum > 15:
		return fmt.Errorf("stratum %d out of range 1..15", s.stratum)
	case s.rateLimit < 0:
		return fmt.Errorf("ratelimit %d is negative", s.rateLimit)
	case s.maxClients <= 0:
		return fmt.Errorf("maxclients %d must be positive", s.maxClients)
	case s.rateWindow <= 0:
		return fmt.Errorf("ratewindow %v must be positive", s.rateWindow)
	case s.shedTarget <= 0:
		return fmt.Errorf("shed-target %v must be positive", s.shedTarget)
	case s.shedInterval <= 0:
		return fmt.Errorf("shed-interval %v must be positive", s.shedInterval)
	}
	return nil
}

// apply sets the server fields the settings govern: Listen reads them
// at startup, Reload on every SIGHUP.
func (s settings) apply(srv *ntpnet.Server, overloadOn bool) {
	srv.Stratum = uint8(s.stratum)
	srv.RateLimit, srv.RateWindow, srv.MaxClients = s.rateLimit, s.rateWindow, s.maxClients
	if overloadOn {
		srv.Overload = &overload.Config{Target: s.shedTarget, Interval: s.shedInterval}
	}
}

// parseConfig reads the -config file at path ('#' comments, blank
// lines ignored) over the flag values in s; with no path it returns s.
// Each name=value line is set through the flag of that name, so it
// parses exactly as the command line would. Unknown keys fail loudly —
// a typo silently ignored is a config change that silently didn't
// happen.
func parseConfig(path string, s settings) (settings, error) {
	if path == "" {
		return s, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	fs := flag.NewFlagSet(path, flag.ContinueOnError)
	flags := s
	s.bind(fs)
	s = flags // the file's lines land on the flag values, not the defaults
	for i, text := range strings.Split(string(data), "\n") {
		text = strings.TrimSpace(text)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, val, ok := strings.Cut(text, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case !ok:
			err = fmt.Errorf("want key=value, got %q", text)
		case fs.Lookup(key) == nil:
			err = fmt.Errorf("unknown key %q", key)
		default:
			if err = fs.Set(key, val); err != nil {
				err = fmt.Errorf("invalid value %q for %s: %v", val, key, err)
			} else {
				// s was valid before this line, so a failed check is this line's.
				err = s.check()
			}
		}
		if err != nil {
			return s, fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
	}
	return s, nil
}

func main() {
	// Server flags that cannot reload set its fields directly; the
	// reloadable ones go through settings and apply.
	srv := ntpnet.NewServer(clock.System{}, 0)
	var flags settings
	flags.bind(flag.CommandLine)
	listen := flag.String("listen", "127.0.0.1:11123", "listen address")
	shift := flag.Duration("shift", 0, "constant error added to served time")
	flag.IntVar(&srv.Shards, "shards", 1, "SO_REUSEPORT listen sockets (0 = 1; >1 requires kernel support: partial binds are rejected)")
	flag.IntVar(&srv.Workers, "workers", 0, "serve goroutines per shard (0 = GOMAXPROCS/shards)")
	statsEvery := flag.Duration("stats", 30*time.Second, "metrics print interval (0 = never)")
	overloadOn := flag.Bool("overload", false, "enable admission control / load shedding")
	flag.DurationVar(&srv.WatchdogInterval, "watchdog", time.Second, "watchdog/housekeeping interval (negative = off)")
	drain := flag.Duration("drain", 5*time.Second, "graceful-drain deadline on SIGTERM/SIGINT (0 = close immediately)")
	configPath := flag.String("config", "", "file of name=value lines setting reloadable flags, read at startup and on SIGHUP")
	ntsOn := flag.Bool("nts", false, "serve NTS: run an NTS-KE endpoint and verify NTS extension fields on the UDP path")
	ntsListen := flag.String("nts-listen", "", "NTS-KE listen address (default: the -listen host on port 4460)")
	ntsCert := flag.String("nts-cert", "", "NTS-KE server certificate PEM (with -nts-key; default: self-signed)")
	ntsKey := flag.String("nts-key", "", "NTS-KE server key PEM")
	ntsCertOut := flag.String("nts-cert-out", "", "write the serving certificate PEM here (for clients to pin)")
	ntsRotate := flag.Duration("nts-rotate", 0, "cookie key rotation period (0 = never); cookies from the last few epochs stay valid")
	ntsState := flag.String("nts-state", "", "persist the cookie ring here (sealed; restored on restart so outstanding cookies survive)")
	ntsStateKey := flag.String("nts-state-key", "", "file holding the hex ring-sealing key (created 0600 on first run; required with -nts-state)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ntpserver: "+format+"\n", args...)
		os.Exit(2)
	}
	if err := flags.check(); err != nil {
		fail("-%v", err)
	}
	if srv.Workers < 0 {
		fail("-workers %d is negative", srv.Workers)
	}
	if srv.Shards < 0 {
		fail("-shards %d is negative", srv.Shards)
	}
	if *statsEvery < 0 {
		fail("-stats %v is negative", *statsEvery)
	}
	if (*ntsCert == "") != (*ntsKey == "") {
		fail("-nts-cert and -nts-key must be given together")
	}
	if !*ntsOn && (*ntsListen != "" || *ntsCert != "" || *ntsCertOut != "" || *ntsRotate != 0 || *ntsState != "") {
		fail("-nts-listen/-nts-cert/-nts-cert-out/-nts-rotate/-nts-state require -nts")
	}
	if *ntsRotate < 0 {
		fail("-nts-rotate %v is negative", *ntsRotate)
	}
	if (*ntsState == "") != (*ntsStateKey == "") {
		fail("-nts-state and -nts-state-key must be given together")
	}
	if *drain < 0 {
		fail("-drain %v is negative", *drain)
	}
	// Parse at startup, not at the first SIGHUP: a broken file should
	// stop the deploy, not surface hours later. The file governs from
	// the first request; SIGHUP re-reads the same file over the same
	// flag values.
	cur, err := parseConfig(*configPath, flags)
	if err != nil {
		fail("-config: %v", err)
	}
	cur.apply(srv, *overloadOn)
	if *shift != 0 {
		srv.Clock = &clock.Fixed{Base: clock.System{}, Error: *shift}
	}

	// The cookie ring is shared between the UDP verify path and the KE
	// minting path; depth 3 keeps cookies from the last three rotations
	// decryptable, so clients re-supplied every exchange never notice a
	// rotation. With -nts-state the ring is restored from its last
	// checkpoint, so a restart keeps decrypting the fleet's outstanding
	// cookies instead of NAKing them all into a re-KE storm; a missing
	// or corrupt state file degrades to a fresh ring (cold start).
	var ring *nts.KeyRing
	var stateKey []byte
	if *ntsOn {
		if *ntsState != "" {
			stateKey, err = nts.LoadOrCreateMasterKey(*ntsStateKey)
			if err != nil {
				fail("%v", err)
			}
			var loaded bool
			ring, loaded, err = nts.LoadOrNewKeyRing(*ntsState, stateKey, 3)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ntpserver: NTS state %s unusable (%v): cold start\n", *ntsState, err)
			}
			if loaded {
				fmt.Printf("ntpserver NTS ring restored from %s (epoch %d)\n", *ntsState, ring.Epoch())
			}
		} else {
			ring, err = nts.NewKeyRing(3)
			if err != nil {
				fail("generating NTS key ring: %v", err)
			}
		}
		srv.NTS = ring
	}

	addr, err := srv.Listen(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var ke *ntske.Server
	// loadCert runs at start-up and on every SIGHUP: it re-reads
	// -nts-cert/-nts-key (how a renewed certificate is deployed without
	// a restart), else self-signs afresh, and publishes -nts-cert-out.
	var loadCert func() (tls.Certificate, error)
	if *ntsOn {
		host, _, err := net.SplitHostPort(addr.String())
		if err != nil {
			fail("splitting bound address %s: %v", addr, err)
		}
		loadCert = func() (cert tls.Certificate, err error) {
			var certPEM []byte
			if *ntsCert != "" {
				cert, err = tls.LoadX509KeyPair(*ntsCert, *ntsKey)
				if err != nil {
					return cert, fmt.Errorf("loading -nts-cert/-nts-key: %w", err)
				}
				if *ntsCertOut != "" {
					certPEM, err = os.ReadFile(*ntsCert)
					if err != nil {
						return cert, fmt.Errorf("reading -nts-cert for -nts-cert-out: %w", err)
					}
				}
			} else {
				cert, certPEM, err = ntske.SelfSigned(time.Now(), host)
				if err != nil {
					return cert, fmt.Errorf("generating self-signed certificate: %w", err)
				}
			}
			if *ntsCertOut != "" {
				if err := os.WriteFile(*ntsCertOut, certPEM, 0o644); err != nil {
					return cert, fmt.Errorf("writing -nts-cert-out: %w", err)
				}
			}
			return cert, nil
		}
		cert, err := loadCert()
		if err != nil {
			fail("%v", err)
		}
		keListen := *ntsListen
		if keListen == "" {
			keListen = net.JoinHostPort(host, fmt.Sprint(ntske.DefaultPort))
		}
		ke = &ntske.Server{
			Ring:        ring,
			TLSConfig:   &tls.Config{Certificates: []tls.Certificate{cert}},
			NTPHost:     host,
			NTPPort:     addr.Port,
			RotateEvery: *ntsRotate,
			StatePath:   *ntsState,
			StateKey:    stateKey,
		}
		keAddr, err := ke.Listen(keListen)
		if err != nil {
			srv.Close()
			fmt.Fprintln(os.Stderr, "ntpserver: NTS-KE listen:", err)
			os.Exit(1)
		}
		defer ke.Close()
		// The first checkpoint lands immediately, not at the first
		// rotation: a crash before any rotation must still restart
		// warm.
		if err := ke.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "ntpserver: NTS state checkpoint:", err)
		}
		fmt.Printf("ntpserver NTS-KE listening on %s (rotate %v)\n", keAddr, *ntsRotate)
	}

	sig := make(chan os.Signal, 1)
	// SIGTERM is what service managers (systemd, docker stop) send;
	// without it the server was killed uncleanly, skipping the drain,
	// the final stats snapshot and the socket close below.
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	// Listening is announced only once the signals are caught: a SIGHUP
	// sent on seeing this line reloads rather than kills the server.
	fmt.Printf("ntpserver listening on %s (stratum %d, shift %v, shards %d, workers %d, ratelimit %d/%v, overload %v, nts %v)\n",
		addr, cur.stratum, *shift, srv.NumShards(), srv.Workers, cur.rateLimit, cur.rateWindow, *overloadOn, *ntsOn)

	printStats := func() {
		fmt.Printf("%s rate-table=%d\n", srv.Snapshot(), srv.RateTableSize())
	}

	// reload is the SIGHUP path, all or nothing: read and check the
	// -config file and load the NTS certificate, and only when both
	// succeeded apply them live (no socket drop, established rate-limit
	// budgets kept) and recycle the worker pools one shard at a time
	// under load. An error is reported and the server keeps its
	// previous configuration whole — a bad reload must never take
	// serving down.
	reload := func() {
		next, err := parseConfig(*configPath, flags)
		var cert tls.Certificate
		if err == nil && ke != nil {
			cert, err = loadCert()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ntpserver: reload:", err)
			return
		}
		next.apply(srv, *overloadOn)
		srv.Reload()
		if ke != nil {
			ke.SetCertificate(cert)
		}
		srv.Recycle()
		fmt.Printf("ntpserver reloaded (config %q, nts cert rotated %v)\n", *configPath, ke != nil)
	}

	// A zero interval disables periodic stats (time.NewTicker panics
	// on it); the ticker is stopped before shutdown either way.
	var tickC <-chan time.Time
	var tick *time.Ticker
	if *statsEvery > 0 {
		tick = time.NewTicker(*statsEvery)
		tickC = tick.C
	}
	for {
		select {
		case <-sig:
			if tick != nil {
				tick.Stop()
			}
			if *drain > 0 {
				// Graceful drain: answer everything already admitted,
				// then close. On deadline expiry Shutdown degrades to
				// the old immediate-close behavior by itself.
				ctx, cancel := context.WithTimeout(context.Background(), *drain)
				if ke != nil {
					if err := ke.Shutdown(ctx); err != nil {
						fmt.Fprintln(os.Stderr, "ntpserver: NTS-KE drain:", err)
					}
				}
				if err := srv.Shutdown(ctx); err != nil {
					fmt.Fprintln(os.Stderr, "ntpserver: drain:", err)
				}
				cancel()
			} else {
				if ke != nil {
					ke.Close()
				}
				srv.Close()
			}
			if ke != nil {
				// Final checkpoint after the drain: the persisted ring
				// is exactly what this process last served with.
				if err := ke.Checkpoint(); err != nil {
					fmt.Fprintln(os.Stderr, "ntpserver: NTS state checkpoint:", err)
				}
			}
			printStats()
			return
		case <-hup:
			reload()
		case <-tickC:
			printStats()
		}
	}
}
