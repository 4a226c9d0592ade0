package main

import (
	"math"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The reference host is shared: over a few seconds, the CPU time a
// fixed piece of work takes there moves by up to 2x as other tenants
// load the physical cores, and a run samples only a handful of such
// states. The host probe measures that speed beside the workload: a
// goroutine on its own OS thread times a fixed kernel every probeEvery
// in thread CPU time, which leaves out time spent
// waiting for a core but not a slower one. The probe's cost over
// probeRef, its cost on a quiet host, is the host's slowdown, and the
// gated times are divided by hostScale of it.
const (
	probeEvery = 5 * time.Millisecond
	probeRef   = 100 * time.Microsecond // probe kernel on the reference box, quiet host
	probeWords = 512                    // 4 KiB: stays in L1, so the workload's own cache use does not move it
	probePass  = 256
)

// hostProbe is the running probe of one child process.
type hostProbe struct {
	stop chan struct{}
	done chan struct{}
	cpu  atomic.Int64 // thread CPU the probe has used so far, ns

	mu    sync.Mutex
	costs []float64 // ms of thread CPU per kernel run, in order
}

// probe is the child process's probe, started before its first job;
// nil outside a child, where every method treats the host as quiet.
var probe *hostProbe

// startProbe starts the child process's probe.
func startProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *hostProbe) run() {
	defer close(p.done)
	goruntime.LockOSThread()
	defer goruntime.UnlockOSThread()
	buf := make([]uint64, probeWords)
	base := threadCPU()
	var x uint64
	for {
		a := threadCPU()
		for k := 0; k < probePass; k++ {
			for i, v := range buf {
				x ^= v + uint64(i)
				buf[i] = x
			}
		}
		b := threadCPU()
		p.mu.Lock()
		p.costs = append(p.costs, msOf(b-a))
		p.mu.Unlock()
		p.cpu.Store(int64(b - base))
		select {
		case <-p.stop:
			return
		case <-time.After(probeEvery):
		}
	}
}

// close stops the probe and waits for it.
func (p *hostProbe) close() {
	close(p.stop)
	<-p.done
}

// mark returns a position in the probe's record for factor.
func (p *hostProbe) mark() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.costs)
}

// factor is the host's slowdown since mark: the median probe cost
// since then over probeRef. ok is false when the probe has not run
// since mark.
func (p *hostProbe) factor(mark int) (f float64, ok bool) {
	if p == nil {
		return 1, false
	}
	p.mu.Lock()
	c := append(dist(nil), p.costs[mark:]...)
	p.mu.Unlock()
	if len(c) == 0 {
		return 1, false
	}
	sort.Float64s(c)
	return c[(len(c)-1)/2] / msOf(probeRef), true
}

// median is the median probe cost over the whole record, in ms.
func (p *hostProbe) median() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return dist(p.costs).median()
}

// used is the thread CPU the probe has used so far.
func (p *hostProbe) used() time.Duration {
	if p == nil {
		return 0
	}
	return time.Duration(p.cpu.Load())
}

// hostScale is the divisor for a time measured while the probe read
// slowdown f. The probe's tight loop slows down more than the
// workloads' mix of kernel, memory-bound and branchy code when the host
// is busy: dividing by f itself over-corrected, and not scaling at all
// let whole sets of runs move by 40% with the host. f to the power 0.75
// kept the medians of two ten-seed sets within 8% of each other on
// every workload (README, "The host probe").
func hostScale(f float64) float64 { return math.Pow(f, 0.75) }

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
