package main

import (
	"testing"
	"time"
)

// The host's slowdown since a mark is the median probe cost after it
// over probeRef; with no probe, or no probe run since the mark, the
// host counts as quiet.
func TestProbeFactor(t *testing.T) {
	var none *hostProbe
	if f, ok := none.factor(none.mark()); f != 1 || ok || none.used() != 0 {
		t.Errorf("nil probe: factor %v ok %v used %v, want 1 false 0", f, ok, none.used())
	}
	ref := msOf(probeRef)
	p := &hostProbe{costs: []float64{9 * ref, 9 * ref}}
	m := p.mark()
	if f, ok := p.factor(m); f != 1 || ok {
		t.Errorf("no run since the mark: factor %v ok %v, want 1 false", f, ok)
	}
	p.costs = append(p.costs, 2*ref, 1*ref, 3*ref)
	if f, ok := p.factor(m); f != 2 || !ok {
		t.Errorf("factor %v ok %v, want 2 true", f, ok)
	}
	if got := p.median(); got != 3*ref {
		t.Errorf("median %v, want %v", got, 3*ref)
	}
}

// A running probe records costs and the CPU it used, and stops.
func TestProbeRuns(t *testing.T) {
	p := startProbe()
	time.Sleep(4 * probeEvery)
	p.close()
	if p.mark() == 0 || p.used() <= 0 {
		t.Fatalf("probe recorded %d runs and %v of CPU", p.mark(), p.used())
	}
	if f, ok := p.factor(0); !ok || f <= 0 {
		t.Errorf("factor %v ok %v", f, ok)
	}
}
