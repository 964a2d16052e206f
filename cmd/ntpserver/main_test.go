package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mntp/internal/ntpnet"
)

// TestParseConfig pins the -config contract: the file overrides the
// flag values key by key — a file carrying only one shed parameter
// leaves the other at its flag value, not at the package default —
// every reloadable flag is a key, and file values pass the same range
// checks as the flags.
func TestParseConfig(t *testing.T) {
	flags := settings{
		stratum: 3, rateLimit: 100, maxClients: 4096, rateWindow: 30 * time.Second,
		shedTarget: 7 * time.Millisecond, shedInterval: 250 * time.Millisecond,
	}
	with := func(edit func(*settings)) settings {
		s := flags
		edit(&s)
		return s
	}
	var defaults settings
	fs := flag.NewFlagSet("ntpserver", flag.ContinueOnError)
	defaults.bind(fs)
	var everyFlag strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&everyFlag, "%s=%s\n", f.Name, f.DefValue) })
	for _, tc := range []struct {
		name, file string
		want       settings
		wantErr    string // substring; empty = must parse
	}{
		{name: "empty file keeps the flags", file: "# nothing\n\n", want: flags},
		{name: "shed-target alone keeps -shed-interval", file: "shed-target = 2ms\n",
			want: with(func(s *settings) { s.shedTarget = 2 * time.Millisecond })},
		{name: "shed-interval alone keeps -shed-target", file: "shed-interval=1s\n",
			want: with(func(s *settings) { s.shedInterval = time.Second })},
		{name: "every key", file: "stratum=5\nratelimit=0\nratewindow=10s\nmaxclients=64\nshed-target=1ms\nshed-interval=50ms\n",
			want: settings{5, 0, 64, 10 * time.Second, time.Millisecond, 50 * time.Millisecond}},
		{name: "every reloadable flag at its default", file: everyFlag.String(), want: defaults},
		{name: "zero shed-target", file: "shed-target=0\n", wantErr: ":1: shed-target 0s must be positive"},
		{name: "negative shed-interval", file: "shed-interval=-1s\n", wantErr: "shed-interval -1s must be positive"},
		{name: "negative ratewindow", file: "stratum=4\nratewindow=-10s\n", wantErr: ":2: ratewindow -10s must be positive"},
		{name: "negative maxclients", file: "maxclients=-5\n", wantErr: "maxclients -5 must be positive"},
		// The server reads a zero window or bound as "the default".
		{name: "zero ratewindow", file: "ratewindow=0\n", wantErr: "ratewindow 0s must be positive"},
		{name: "zero maxclients", file: "maxclients=0\n", wantErr: "maxclients 0 must be positive"},
		{name: "negative ratelimit", file: "ratelimit=-1\n", wantErr: "ratelimit -1 is negative"},
		{name: "stratum out of range", file: "stratum=16\n", wantErr: "stratum 16 out of range 1..15"},
		{name: "unparsable value", file: "ratewindow=soon\n", wantErr: ":1: "},
		{name: "unknown key", file: "shed-targte=2ms\n", wantErr: `unknown key "shed-targte"`},
		{name: "not key=value", file: "stratum 4\n", wantErr: "want key=value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "server.conf")
			if err := os.WriteFile(path, []byte(tc.file), 0o600); err != nil {
				t.Fatal(err)
			}
			got, err := parseConfig(path, flags)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("settings = %+v, want %+v", got, tc.want)
			}
			// What the server receives spells out both shed parameters.
			srv := ntpnet.NewServer(nil, 0)
			got.apply(srv, true)
			if oc := srv.Overload; oc.Target != tc.want.shedTarget || oc.Interval != tc.want.shedInterval {
				t.Errorf("server overload config = %+v, want target %v interval %v", *oc, tc.want.shedTarget, tc.want.shedInterval)
			}
		})
	}
}
