package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loopLog collects the Loop records of every rank incarnation of one
// job. Each incarnation is written only by its own goroutine; read the
// log only after the job has returned.
type loopLog struct {
	t0   time.Time
	mu   sync.Mutex
	incs []*incarnation
}

// incarnation is one run of the app body: a rank's first process, a
// respawned replacement, or a replica shadow.
type incarnation struct {
	rank      int
	start     time.Duration // app body entered
	returns   []stamp       // every Loop return
	absorbMs  []float64     // Loop calls across which the epoch changed
	lastEpoch uint32
}

func newLoopLog() *loopLog { return &loopLog{t0: time.Now()} }

func (l *loopLog) since() time.Duration { return time.Since(l.t0) }

// enter registers an incarnation of rank at the start of the app body.
func (l *loopLog) enter(rank int, epoch uint32) *incarnation {
	inc := &incarnation{rank: rank, start: l.since(), lastEpoch: epoch,
		returns: make([]stamp, 0, 1024)}
	l.mu.Lock()
	l.incs = append(l.incs, inc)
	l.mu.Unlock()
	return inc
}

// returned records that Loop returned n at t, having been entered at
// entered; epoch is the epoch after the call.
func (inc *incarnation) returned(n int, entered, t time.Duration, epoch uint32) {
	inc.returns = append(inc.returns, stamp{rank: inc.rank, iter: n, t: t})
	if epoch != inc.lastEpoch && len(inc.returns) > 1 {
		inc.absorbMs = append(inc.absorbMs, msOf(t-entered))
	}
	inc.lastEpoch = epoch
}

// stamps returns every incarnation's Loop records.
func (l *loopLog) stamps() []stamp {
	var out []stamp
	for _, inc := range l.incs {
		out = append(out, inc.returns...)
	}
	return out
}

// ready returns when every rank had returned from its first Loop:
// the latest first return over the first incarnation of each rank.
func (l *loopLog) ready(ranks int) (time.Duration, error) {
	first := make([]time.Duration, ranks)
	seen := make([]bool, ranks)
	for _, inc := range l.incs {
		if inc.rank < 0 || inc.rank >= ranks || seen[inc.rank] || len(inc.returns) == 0 {
			continue
		}
		seen[inc.rank] = true
		first[inc.rank] = inc.returns[0].t
	}
	var r time.Duration
	for i, ok := range seen {
		if !ok {
			return 0, fmt.Errorf("rank %d never returned from Loop", i)
		}
		r = max(r, first[i])
	}
	return r, nil
}

// firstLoop returns, per incarnation, the time from entering the app
// body to the first Loop return, split into the incarnations started
// before ready (launch, replica shadows included) and those started
// after it (respawns, replacement shadows).
func (l *loopLog) firstLoop(ready time.Duration) (launch, rejoin dist) {
	for _, inc := range l.incs {
		if len(inc.returns) == 0 {
			continue
		}
		d := msOf(inc.returns[0].t - inc.start)
		if inc.start > ready {
			rejoin = append(rejoin, d)
		} else {
			launch = append(launch, d)
		}
	}
	return launch, rejoin
}

// absorb returns the Loop calls that absorbed a recovery epoch.
func (l *loopLog) absorb() dist {
	var out dist
	for _, inc := range l.incs {
		out = append(out, inc.absorbMs...)
	}
	return out
}

// measure is one reported metric with the samples behind it.
type measure struct {
	value float64
	unit  string
	n     int    // samples behind the value
	note  string // how it was taken
}

// outcome is what one workload run produced.
type outcome struct {
	e2e       map[string]measure
	layer     map[string]measure
	attempted int
	failed    int
	wrong     []string // correctness failures: any one fails the run
	notes     []string // lines for the report
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]measure{}, layer: map[string]measure{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// cpuSampler measures the process CPU time spent per unit of work, in
// windows: every period it divides the CPU time used since the last
// sample, less the host probe's, by the work completed since then.
// Windows without work are skipped. The median over windows is the cost
// of steady-state work; CPU time leaves out the time a shared host's
// hypervisor steals, which moves wall-clock times between runs, and the
// median leaves out the few windows a spinning rank (see the
// known-failure ledger) or a recovery inflates. Each window is also
// scaled by the host probe's slowdown over the same window (hostScale).
type cpuSampler struct {
	done    atomic.Int64
	perUnit float64 // work counts per unit of work
	stop    chan struct{}
	wg      sync.WaitGroup
	raw     dist // ms of CPU per unit of work
	scaled  dist // the same over hostScale of the probe's slowdown
}

func startCPUSampler(period time.Duration, perUnit float64) *cpuSampler {
	c := &cpuSampler{perUnit: perUnit, stop: make(chan struct{})}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		lastCPU, _ := cpuTime()
		lastProbe, mark := probe.used(), probe.mark()
		lastDone, f := int64(0), 1.0
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
			cpu, err := cpuTime()
			if err != nil {
				continue
			}
			used, done := probe.used(), c.done.Load()
			if pf, ok := probe.factor(mark); ok {
				f = pf // else the host keeps the last window's speed
			}
			if done > lastDone {
				ms := msOf(cpu-lastCPU-(used-lastProbe)) / (float64(done-lastDone) / c.perUnit)
				c.raw = append(c.raw, ms)
				c.scaled = append(c.scaled, ms/hostScale(f))
			}
			lastCPU, lastProbe, mark, lastDone = cpu, used, probe.mark(), done
		}
	}()
	return c
}

// add counts n more work items done.
func (c *cpuSampler) add(n int64) { c.done.Add(n) }

// finish stops the sampler and returns its windows, scaled and raw.
func (c *cpuSampler) finish() (scaled, raw dist) {
	close(c.stop)
	c.wg.Wait()
	return c.scaled, c.raw
}

// addCPU stops c and adds its windows: "cpu_window" scaled by the host
// probe, "cpu_raw" as measured. It returns the scaled windows.
func (s *sample) addCPU(c *cpuSampler) dist {
	scaled, raw := c.finish()
	s.add("cpu_window", scaled...)
	s.add("cpu_raw", raw...)
	return scaled
}

// cpuTime is the user and system CPU time the process has used so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// idleCores measures how many cores the process keeps busy over a
// window after every job has ended. Anything above noise is program
// goroutines that outlived their job and still run.
func idleCores(window time.Duration) (float64, error) {
	a, err := cpuTime()
	if err != nil {
		return 0, err
	}
	t := time.Now()
	time.Sleep(window)
	b, err := cpuTime()
	if err != nil {
		return 0, err
	}
	return (b - a).Seconds() / time.Since(t).Seconds(), nil
}
