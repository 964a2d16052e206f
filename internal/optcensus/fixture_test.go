package optcensus

import "testing"

// TestCensusCatchesPlantedCases runs both censuses over
// testdata/fixture, a module that plants one case of each verdict, so
// each guard is shown to fail on what it claims to catch and to pass
// what it claims to keep.
func TestCensusCatchesPlantedCases(t *testing.T) {
	m, err := load("testdata/fixture", "fixture")
	if err != nil {
		t.Fatal(err)
	}

	got := map[string]*export{}
	for _, e := range exportCensus(m, nil) {
		got[e.name] = e
	}
	for name, want := range map[string]string{
		"lib.Unused":      noNonTests,
		"lib.TestOnly":    testOnly,
		"lib.Local":       pkgOnly,
		"lib.Check":       kept,
		"lib.Fault.Error": kept,
		"lib.Span":        kept,
		"lib.Config":      kept,
	} {
		if e := got[name]; e == nil {
			t.Errorf("%s: not in the census", name)
		} else if v := e.verdict(); v != want {
			t.Errorf("%s: verdict %q, want %q", name, v, want)
		}
	}
	if e := got["lib.Fault.Error"]; e != nil && e.implied != "satisfies an interface" {
		t.Errorf("lib.Fault.Error kept for %q, want through the error interface", e.implied)
	}
	if e := got["lib.Span"]; e != nil && e.implied != "named by lib.Measure" {
		t.Errorf("lib.Span kept for %q, want through Measure's signature", e.implied)
	}

	set := map[string]bool{}
	for _, fl := range optionFields(m) {
		set[fl.name] = fl.nonTest
	}
	if rate, ok := set["lib.Config.Rate"]; !ok || !rate {
		t.Errorf("lib.Config.Rate: set %v (found %v), want set by cmd/app", rate, ok)
	}
	if burst, ok := set["lib.Config.Burst"]; !ok || burst {
		t.Errorf("lib.Config.Burst: set %v (found %v), want reported as having no setter", burst, ok)
	}
}
