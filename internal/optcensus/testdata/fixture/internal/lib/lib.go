// Package lib plants one case of each verdict the optcensus guards
// give; cmd/app is its only importer.
package lib

// Unused is named by nothing: the export census says delete it.
func Unused() {}

// TestOnly is named only by cmd/app's test: unexport it, or allow-list it.
func TestOnly() int { return 1 }

// Local is named only inside this package: unexport it.
func Local() int { return 2 }

// Fault's Error is called only through the error interface: kept.
type Fault struct{}

func (Fault) Error() string { return "fault" }

// Check is called by cmd/app.
func Check() error { return Fault{} }

// Span is named only in Measure's signature: kept.
type Span struct{ Width int }

// Measure is called by cmd/app.
func Measure() Span { return Span{Width: Local()} }

// Config's Rate is set by cmd/app; nothing sets Burst, which the
// options census reports.
type Config struct {
	Rate  int
	Burst int
}

// New is called by cmd/app.
func New(c Config) int { return c.Rate + c.Burst }
