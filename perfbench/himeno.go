package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"fmi"
	"fmi/internal/himeno"
)

// The himeno workload is the paper's application (Fig 15) with no
// failures: 4 ranks on 2 nodes, so halo exchanges ride both the
// intra-node ring path and the inter-node channel path, with an
// in-memory XOR checkpoint every himInterval iterations. The measured
// time is split over himChildren child processes, one after another,
// each running one long closed-loop job, so that a change of the host's
// speed during a run moves part of the samples, not all of them.
const (
	himRanks       = 4
	himPPN         = 2
	himNX          = 66 // 64 interior planes, 16 per rank
	himNY, himNZ   = 64, 64
	himInterval    = 20
	himGroup       = 4
	himChildren    = 4
	himSetupJobs   = 8 // launch-only jobs per child, for a median set-up time
	himPointsPerIt = (himNX - 2) * (himNY - 2) * (himNZ - 2)
)

// himenoJob is one himeno job's shared state.
type himenoJob struct {
	lg    *loopLog
	tr    *tracer
	stop  atomic.Int64 // ranks leave at this loop id
	dur   time.Duration
	ready atomic.Int64 // ns since lg.t0 when every rank had returned from Loop 0; 0 before
	nRdy  atomic.Int32

	cpu *cpuSampler // counts rank 0's iterations; nil in set-up jobs

	// Written by rank 0 only.
	entries []time.Duration // Loop entry times, by loop id
	gosa    []float64       // global residual, by loop id
}

func (h *himenoJob) app(env *fmi.Env) error {
	rank := env.Rank()
	inc := h.lg.enter(rank, env.Epoch())
	s, err := himeno.New(rank, himRanks, himNX, himNY, himNZ)
	if err != nil {
		return err
	}
	log := h.tr.log(fmt.Sprintf("rank%d", rank))
	var comm himeno.Comm = env.World()
	tc := &timedComm{c: env.World(), log: log, sameNode: func(p int) bool { return p/himPPN == rank/himPPN }}
	if log != nil {
		comm = tc
	}
	first := true
	for {
		entered := h.lg.since()
		if rank == 0 {
			h.entries = append(h.entries, entered)
		}
		n := env.Loop(s.State())
		now := h.lg.since()
		inc.returned(n, entered, now, env.Epoch())
		if log != nil {
			name := "loop.plain"
			if n%himInterval == 0 {
				name = "loop.ckpt"
			}
			log.add(name, int64(n), -1, h.lg.t0.Add(entered), h.lg.t0.Add(now))
		}
		if first {
			first = false
			if h.nRdy.Add(1) == himRanks {
				h.ready.Store(int64(now))
			}
		}
		if rank == 0 {
			if h.cpu != nil {
				h.cpu.add(1)
			}
			if r := h.ready.Load(); r != 0 && now-time.Duration(r) >= h.dur {
				h.stop.CompareAndSwap(math.MaxInt64, int64(n+1))
			}
		}
		if int64(n) >= h.stop.Load() {
			break
		}
		root := log.begin("iter", int64(n), -1)
		tc.iter, tc.parent = int64(n), root
		gosa, err := s.Step(comm)
		log.end(root)
		if err != nil {
			continue // a failure: the next Loop recovers
		}
		if rank == 0 {
			for len(h.gosa) <= n {
				h.gosa = append(h.gosa, math.NaN())
			}
			h.gosa[n] = gosa
		}
	}
	return env.Finalize()
}

func himenoConfig(timeout time.Duration) fmi.Config {
	return fmi.Config{
		Ranks: himRanks, ProcsPerNode: himPPN,
		CheckpointInterval: himInterval, XORGroupSize: himGroup,
		Timeout: timeout,
	}
}

// himenoChild measures one himeno child process: launch-only jobs for
// set-up time, then one job for the child's share of the measured
// time. It returns the job's residuals as "gosa" for the parent to
// check. The workload has no random inputs: the seed is only recorded.
func himenoChild(seed int64, index int, dur time.Duration, tr *tracer) (*sample, error) {
	out := newSample()
	for i := 0; i < himSetupJobs; i++ {
		h := &himenoJob{lg: newLoopLog(), dur: dur}
		if _, err := fmi.Run(himenoConfig(30*time.Second), h.app); err != nil {
			return nil, fmt.Errorf("himeno set-up job: %w", err)
		}
		r, err := h.lg.ready(himRanks)
		if err != nil {
			return nil, err
		}
		out.add("setup_raw", msOf(r))
	}

	h := &himenoJob{lg: newLoopLog(), tr: tr, dur: dur,
		entries: make([]time.Duration, 0, 1<<16), gosa: make([]float64, 0, 1<<16)}
	h.stop.Store(math.MaxInt64)
	out.Attempted = 1
	h.cpu = startCPUSampler(cpuWindow, 1)
	rep, err := fmi.Run(himenoConfig(dur+2*time.Minute), h.app)
	out.add("cpu_child", out.addCPU(h.cpu).median())
	if err != nil {
		out.Failed = 1
		out.notef("himeno job failed: %v", err)
		return out, nil
	}
	r, err := h.lg.ready(himRanks)
	if err != nil {
		return nil, err
	}
	out.add("setup_raw", msOf(r))
	iters := int(h.stop.Load())
	if err := recorded(h.gosa, iters); err != nil {
		out.wrongf("himeno job %d: %v", index, err)
	} else {
		out.add("gosa", h.gosa[:iters]...)
	}

	// Rank 0's iteration times, Loop entry to Loop entry, split by
	// whether the iteration began with a checkpoint.
	for n := 1; n < len(h.entries) && n <= iters; n++ {
		d := msOf(h.entries[n] - h.entries[n-1])
		out.add("iter", d)
		if (n-1)%himInterval == 0 {
			out.add("ckpt_iter", d)
		}
	}
	out.sum("iters", float64(iters))
	out.sum("measured_s", (h.entries[min(iters, len(h.entries)-1)] - time.Duration(h.ready.Load())).Seconds())
	launch, _ := h.lg.firstLoop(r)
	out.add("first_loop", launch...)
	addStats(out, rep.Stats)
	return out, nil
}

// himenoRun runs himChildren children one after another, then checks
// every child's residuals against one serial run as long as the
// longest job.
func himenoRun(dur time.Duration, spawn spawner) (*sample, error) {
	pool := newSample()
	var runs []dist
	for i := 0; i < himChildren; i++ {
		s, err := spawn(i, dur/himChildren)
		if err != nil {
			return nil, err
		}
		if s.Failed == 0 && len(s.Wrong) == 0 {
			runs = append(runs, s.D["gosa"])
		}
		delete(s.D, "gosa")
		pool.merge(s)
	}
	longest := 0
	for _, r := range runs {
		longest = max(longest, len(r))
	}
	if longest == 0 {
		return pool, nil
	}
	want, err := serialResiduals(longest)
	if err != nil {
		return nil, err
	}
	checked := 0
	for i, r := range runs {
		if err := checkResiduals(r, want); err != nil {
			pool.wrongf("himeno job %d: %v", i, err)
		}
		checked += len(r)
	}
	pool.notef("residuals of all %d iterations of %d jobs checked against a %d-sweep serial run (last %.9e)", checked, len(runs), longest, want[longest-1])
	return pool, nil
}

func himenoOutcome(s *sample) *outcome {
	o := newOutcome()
	iter := s.D["iter"]
	p, tail, _ := iter.tail()
	o.e2e["setup_s"] = measure{s.D["setup"].median() / 1e3, "s", len(s.D["setup"]), "fmi.Run until every rank returned from Loop 0, scaled by the host probe; median over jobs"}
	o.e2e["cpu_ms_per_op"] = measure{s.D["cpu_window"].median(), "ms", len(s.D["cpu_window"]), "process CPU time per iteration, scaled by the host probe, median over 200 ms windows"}
	o.layer["p50_ms"] = measure{iter.median(), "ms", len(iter), "himeno.iter_ms.p50: rank 0 Loop entry to Loop entry"}
	o.layer["tail_ms"] = measure{tail, "ms", len(iter), fmt.Sprintf("himeno.iter_ms.p%g: rank 0 iteration time", p)}
	o.layer["event_ms"] = measure{s.D["ckpt_iter"].median(), "ms", len(s.D["ckpt_iter"]), "rank 0 iterations that begin with a checkpoint"}
	o.layer["rate_hz"] = measure{float64(himPointsPerIt) * ratio(s.N["iters"], s.N["measured_s"]), "1/s", int(s.N["iters"]),
		fmt.Sprintf("himeno.mlups x 1e6: interior point updates per second, %dx%dx%d grid", himNX, himNY, himNZ)}

	medianLayer(o, s, "runtime.first_loop_ms", "first_loop", 1, "ms", "app entry to first Loop return")
	statsLayers(o, s)
	medianLayer(o, s, "himeno.jacobi_ms", "self.iter", 1, "ms", "self time of an iteration's Solver.Step outside its halo and Allreduce calls: Solver.Jacobi and halo packing")
	medianLayer(o, s, "p2p.halo_us.ring", "span.halo.ring", 1e3, "us", "Send/Recv/Sendrecv with every peer on the caller's node")
	medianLayer(o, s, "p2p.halo_us.chan", "span.halo.chan", 1e3, "us", "Send/Recv/Sendrecv with a peer on another node")
	medianLayer(o, s, "coll.allreduce_us", "span.allreduce", 1e3, "us", "8-byte Allreduce, including the wait for the slowest rank (4 ranks share the cores)")
	medianLayer(o, s, "ckpt.loop_ms", "span.loop.ckpt", 1, "ms", "Env.Loop on checkpoint iterations")
	medianLayer(o, s, "ckpt.loop_us.plain", "span.loop.plain", 1e3, "us", "Env.Loop on other iterations")
	o.notef("cpu_ms_per_op of each child in turn: %.4g", s.D["cpu_child"])
	o.notef("closed loop: one job in each of %d child processes, %d ranks on %d nodes, checkpoint every %d iterations, group %d", himChildren, himRanks, himRanks/himPPN, himInterval, himGroup)
	return o
}

// recorded checks that the first iters residuals were all recorded.
func recorded(gosa []float64, iters int) error {
	if iters < 1 || len(gosa) < iters {
		return fmt.Errorf("%d residuals recorded for %d iterations", len(gosa), iters)
	}
	for n, g := range gosa[:iters] {
		if math.IsNaN(g) {
			return fmt.Errorf("no residual recorded for iteration %d", n)
		}
	}
	return nil
}

// serialResiduals returns the residuals of the first iters iterations
// of a serial run of the same grid: himeno.RunSerial's loop, one
// one-rank sweep per iteration. Its first values are checked against
// himeno.RunSerial itself.
func serialResiduals(iters int) ([]float64, error) {
	s, err := himeno.New(0, 1, himNX, himNY, himNZ)
	if err != nil {
		return nil, err
	}
	want := make([]float64, iters)
	for i := range want {
		want[i] = s.Jacobi()
	}
	k := min(iters, 10)
	ref, err := himeno.RunSerial(himNX, himNY, himNZ, k)
	if err != nil {
		return nil, err
	}
	if ref != want[k-1] {
		return nil, fmt.Errorf("serial trajectory %.9e after %d sweeps, RunSerial %.9e", want[k-1], k, ref)
	}
	return want, nil
}

// checkResiduals compares each residual of a job with the serial
// reference: within 1e-5 relative, or equal once the grid has converged
// to an exact zero.
func checkResiduals(got, want []float64) error {
	if len(got) == 0 || len(got) > len(want) {
		return fmt.Errorf("%d residuals against a %d-iteration reference", len(got), len(want))
	}
	for n, g := range got {
		if w := want[n]; g != w && !(math.Abs(g-w) <= 1e-5*math.Abs(w)) {
			return fmt.Errorf("residual %.9e at iteration %d, serial reference %.9e", g, n, w)
		}
	}
	return nil
}
