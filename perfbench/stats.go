package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile
// for that percentile to be reported at all.
const minBeyond = 10

// tailLadder lists the percentiles the tail rule may report, highest
// first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// dist is a sample of durations in milliseconds.
type dist []float64

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sorted returns a sorted copy.
func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Float64s(s)
	return s
}

// pct returns the nearest-rank p-th percentile of d (0 when empty).
func (d dist) pct(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return d.sorted()[max(rank(p, len(d)), 1)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The epsilon keeps p*n/100 from rounding up past a whole number.
func rank(p float64, n int) int { return int(math.Ceil(p*float64(n)/100 - 1e-9)) }

func (d dist) median() float64 { return d.pct(50) }

func (d dist) total() float64 {
	var t float64
	for _, v := range d {
		t += v
	}
	return t
}

// tail applies the tail rule: the highest percentile of the ladder with
// at least minBeyond samples above it. ok is false when even the median
// lacks that many, in which case the median is returned.
func (d dist) tail() (p, v float64, ok bool) {
	for _, p := range tailLadder {
		if len(d)-rank(p, len(d)) >= minBeyond {
			return p, d.pct(p), true
		}
	}
	return 50, d.median(), false
}

// stamp is one "loop returned n" record of one rank, at t since the
// job's launch.
type stamp struct {
	rank, iter int
	t          time.Duration
}

// highWater computes the job's high-water mark from per-rank Loop
// records: H(t) is the highest loop id every rank has returned from by
// time t, counting any incarnation of the rank, so rolled-back work
// holds H until it is redone. It returns reach, where reach[i] is the
// time H first reached i, for i from 0 to the final H.
func highWater(stamps []stamp, ranks int) []time.Duration {
	s := append([]stamp(nil), stamps...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].t < s[j].t })
	best := make([]int, ranks)
	for i := range best {
		best[i] = -1
	}
	var reach []time.Duration
	h := -1
	for _, st := range s {
		if st.rank < 0 || st.rank >= ranks || st.iter <= best[st.rank] {
			continue
		}
		best[st.rank] = st.iter
		low := best[0]
		for _, b := range best[1:] {
			if b < low {
				low = b
			}
		}
		for ; h < low; h++ {
			reach = append(reach, st.t)
		}
	}
	return reach
}

// stallSplit splits the high-water advance intervals of one job into
// the stall across each kill and the steady-state intervals outside
// every kill window. A kill scripted at loop k fires when the first
// rank returns from Loop(k); the victim dies either before returning
// from Loop(k) itself, holding the mark at k-1, or during iteration k,
// holding it at k. Its window is therefore the two intervals ending at
// reach[k] and reach[k+1], and its stall the longer of them. A kill
// whose window overlaps an earlier kill's is not counted again.
func stallSplit(reach []time.Duration, kills []int) (stalls, steady dist) {
	inKill := map[int]bool{}
	for _, k := range kills {
		if k < 1 || k+1 >= len(reach) || inKill[k] || inKill[k+1] {
			continue
		}
		inKill[k], inKill[k+1] = true, true
		stalls = append(stalls, msOf(max(reach[k]-reach[k-1], reach[k+1]-reach[k])))
	}
	for i := 1; i < len(reach); i++ {
		if !inKill[i] {
			steady = append(steady, msOf(reach[i]-reach[i-1]))
		}
	}
	return stalls, steady
}

// lateness accounts how far behind its schedule an open-loop generator
// ran: each send is compared with the time it was due.
type lateness struct {
	late dist // ms behind schedule, one per send
}

func (l *lateness) record(due, sent time.Duration) {
	d := sent - due
	if d < 0 {
		d = 0
	}
	l.late = append(l.late, msOf(d))
}

// summary returns the median and maximum lateness in ms and the share
// of sends more than behind late.
func (l *lateness) summary(behind time.Duration) (p50, max, shareBehind float64) {
	if len(l.late) == 0 {
		return 0, 0, 0
	}
	s := l.late.sorted()
	n := 0
	for _, v := range s {
		if v > msOf(behind) {
			n++
		}
	}
	return s.median(), s[len(s)-1], float64(n) / float64(len(s))
}

// quartiles renders the minimum, quartiles and maximum of d.
func quartiles(d dist) string {
	if len(d) == 0 {
		return "none"
	}
	return fmt.Sprintf("min %.3g q1 %.3g median %.3g q3 %.3g max %.3g (n=%d)",
		d.pct(0), d.pct(25), d.pct(50), d.pct(75), d.pct(100), len(d))
}
