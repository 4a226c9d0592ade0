package main

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestTailRule(t *testing.T) {
	ramp := func(n int) dist {
		d := make(dist, n)
		for i := range d {
			d[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return d
	}
	for _, c := range []struct {
		n     int
		p, v  float64
		ok    bool
		label string
	}{
		{n: 100000, p: 99, v: 99000, ok: true, label: "p99 is the highest reported"},
		{n: 1000, p: 99, v: 990, ok: true},
		{n: 999, p: 95, v: 950, ok: true},
		{n: 200, p: 95, v: 190, ok: true},
		{n: 100, p: 90, v: 90, ok: true},
		{n: 40, p: 75, v: 30, ok: true},
		{n: 20, p: 50, v: 10, ok: true},
		{n: 19, p: 50, v: 10, ok: false, label: "fewer than 10 beyond the median"},
	} {
		p, v, ok := ramp(c.n).tail()
		if p != c.p || v != c.v || ok != c.ok {
			t.Errorf("n=%d %s: tail() = p%g %g %v, want p%g %g %v", c.n, c.label, p, v, ok, c.p, c.v, c.ok)
		}
	}
	// Every reported percentile leaves at least minBeyond samples above.
	for n := 20; n <= 3000; n += 7 {
		p, _, _ := ramp(n).tail()
		if beyond := n - rank(p, n); beyond < minBeyond {
			t.Fatalf("n=%d: p%g has %d samples beyond it", n, p, beyond)
		}
	}
}

func TestPercentileEmptyAndInf(t *testing.T) {
	if v := (dist{}).median(); v != 0 {
		t.Errorf("median of nothing = %g", v)
	}
	d := dist{1, 2, math.Inf(1), 3}
	if v := d.pct(75); v != 3 {
		t.Errorf("p75 = %g, want 3", v)
	}
	if v := d.pct(100); !math.IsInf(v, 1) {
		t.Errorf("p100 = %g, want +Inf: a refused request misses every limit", v)
	}
}

// TestHighWaterStall builds a synthetic two-rank run: steady 1 ms
// iterations, a kill scripted at loop 5 that kills rank 1 during
// iteration 5, and a replacement that rolls back to loop 2 and redoes
// 3..6 before the job moves on.
func TestHighWaterStall(t *testing.T) {
	var st []stamp
	for i := 0; i <= 5; i++ {
		st = append(st, stamp{0, i, ms(float64(i))}, stamp{1, i, ms(float64(i) + 0.1)})
	}
	// Rank 0 rolls back too; its redo of 3..5 must not move the mark.
	for i, at := range []float64{20, 21, 22, 23} {
		st = append(st, stamp{0, 3 + i, ms(at)}, stamp{1, 3 + i, ms(at + 0.5)})
	}
	for i := 7; i <= 9; i++ {
		st = append(st, stamp{0, i, ms(float64(i + 17))}, stamp{1, i, ms(float64(i+17) + 0.1)})
	}
	reach := highWater(st, 2)
	if len(reach) != 10 {
		t.Fatalf("high water reached %d, want 9", len(reach)-1)
	}
	// The mark held at 5 until both ranks had returned 6.
	if reach[5] != ms(5.1) || reach[6] != ms(23.5) {
		t.Fatalf("reach[5..6] = %v %v, want 5.1ms 23.5ms", reach[5], reach[6])
	}
	stalls, steady := stallSplit(reach, []int{5})
	if len(stalls) != 1 || math.Abs(stalls[0]-18.4) > 1e-5 {
		t.Fatalf("stalls = %v, want [18.4]", stalls)
	}
	// 9 intervals, 2 in the kill window: 1 ms each except 6->7.
	want := dist{1, 1, 1, 1, 0.6, 1, 1}
	if len(steady) != len(want) {
		t.Fatalf("steady intervals = %v, want %v", steady, want)
	}
	for i := range want {
		if math.Abs(steady[i]-want[i]) > 1e-5 {
			t.Fatalf("steady intervals = %v, want %v", steady, want)
		}
	}
	// A victim that dies before returning from Loop(5) holds the mark
	// at 4: the stall is the interval ending at reach[5] instead.
	early := []time.Duration{0, ms(1), ms(2), ms(3), ms(4), ms(30), ms(31)}
	if stalls, _ := stallSplit(early, []int{5}); len(stalls) != 1 || stalls[0] != 26 {
		t.Fatalf("early-death stall = %v, want [26]", stalls)
	}
	// A second kill inside the first's window counts once; one past the
	// last advance has no window.
	stalls, _ = stallSplit(reach, []int{5, 6, 9})
	if len(stalls) != 1 {
		t.Fatalf("stalls = %v, want one", stalls)
	}
}

func TestHighWaterIgnoresRollback(t *testing.T) {
	st := []stamp{{0, 0, 0}, {1, 0, 0}, {0, 1, ms(1)}, {1, 1, ms(1)}, {0, 0, ms(2)}, {1, 0, ms(2)}, {0, 2, ms(3)}, {1, 2, ms(4)}}
	reach := highWater(st, 2)
	if len(reach) != 3 || reach[2] != ms(4) {
		t.Fatalf("reach = %v, want 3 entries ending at 4ms", reach)
	}
}

func TestLateness(t *testing.T) {
	var l lateness
	l.record(ms(10), ms(10))    // on time
	l.record(ms(20), ms(20.5))  // 0.5 ms late
	l.record(ms(30), ms(33))    // 3 ms late
	l.record(ms(40), ms(39))    // early counts as on time
	l.record(ms(50), ms(50.25)) // 0.25 ms late
	p50, mx, share := l.summary(time.Millisecond)
	if p50 != 0.25 || mx != 3 || share != 0.2 {
		t.Fatalf("summary = p50 %g max %g share %g, want 0.25 3 0.2", p50, mx, share)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	l := tr.log("x")
	l.spans = []span{
		{Name: "iter", Parent: -1, Start: 0, End: ms(10)},
		{Name: "a", Parent: 0, Start: ms(1), End: ms(4)},
		{Name: "b", Parent: 0, Start: ms(3), End: ms(6)}, // overlaps a
		{Name: "c", Parent: 2, Start: ms(4), End: ms(5)},
	}
	l.spans = append(l.spans,
		span{Name: "iter", Parent: -1, Start: ms(20), End: ms(22)},
		span{Name: "a", Parent: 4, Start: ms(21), End: ms(23)}, // ends after its parent
	)
	self := tr.selfTimes()
	want := map[string][]float64{"iter": {5, 1}, "a": {3, 2}, "b": {2}, "c": {1}}
	for k, v := range want {
		if fmt.Sprint(self[k]) != fmt.Sprint(v) {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
}

func TestWantStateMatchesSimulation(t *testing.T) {
	for _, iters := range []int{0, 1, 62, 63, 64, 200} {
		for rank := 0; rank < fltRanks; rank++ {
			st := make([]byte, fltState)
			for n := 0; n < iters; n++ {
				applyIter(st, rank, n, uint64(fltRanks*(n+1)+fltRanks*(fltRanks-1)/2))
			}
			if want := wantState(rank, fltRanks, iters); string(st) != string(want) {
				t.Fatalf("iters=%d rank=%d: closed form differs from simulation", iters, rank)
			}
		}
	}
}

func TestCheckResiduals(t *testing.T) {
	want, err := serialResiduals(30)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 20)
	for i := range got {
		got[i] = want[i] * (1 + 1e-7) // summation order differs across ranks
	}
	if err := checkResiduals(got, want); err != nil {
		t.Fatalf("matching trajectory rejected: %v", err)
	}
	got[17] *= 1.001
	if err := checkResiduals(got, want); err == nil {
		t.Fatal("a residual off by 1e-3 was accepted")
	}
	if err := checkResiduals(append(got, make([]float64, 20)...), want); err == nil {
		t.Fatal("a job longer than the reference was accepted")
	}
	if err := recorded(got[:5], 6); err == nil {
		t.Fatal("a missing residual was accepted")
	}
	got[3] = math.NaN()
	if err := recorded(got, 20); err == nil {
		t.Fatal("an unrecorded residual was accepted")
	}
}
