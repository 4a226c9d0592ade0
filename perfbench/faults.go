package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"fmi"
)

// The faults workloads run one fixed-work allreduce job after another
// under one recovery protocol, 4 ranks on 4 nodes, each job with
// several scripted node kills. A 1 ms sleep per iteration stands in for
// compute, so detection, spare allocation, respawn, bootstrap, restore,
// replay and promotion do the work rather than the kernel.
const (
	fltRanks    = 4
	fltIters    = 1200      // iterations per job
	fltKills    = 6         // scripted kills per job
	fltWarm     = 100       // iterations before the first kill
	fltState    = 256 << 10 // checkpointed bytes per rank
	fltStripe   = 4 << 10   // bytes rewritten per iteration
	fltInterval = 8         // checkpoint interval
	fltStep     = time.Millisecond
	fltDeadline = 6 * time.Second // per-job bound, about 3x a job: a job still running then is a hang
	fltSetups   = 5               // launch-only jobs per child; the first pays the process's cold start
)

// fltStripes is the number of stripes after the 4 KiB header stripe.
const fltStripes = fltState/fltStripe - 1

// applyIter folds iteration n's allreduce result into a rank's state:
// word 0 counts iterations, word 1 accumulates sum*(n+1), and one 4 KiB
// stripe, chosen by n, is overwritten with a byte of (n, rank). A
// rollback that restored any byte wrongly shows in the final state.
func applyIter(state []byte, rank, n int, sum uint64) {
	binary.LittleEndian.PutUint64(state[0:], uint64(n+1))
	binary.LittleEndian.PutUint64(state[8:], binary.LittleEndian.Uint64(state[8:])+sum*uint64(n+1))
	off := fltStripe * (1 + n%fltStripes)
	b := stripeByte(rank, n)
	s := state[off : off+fltStripe]
	for i := range s {
		s[i] = b
	}
}

func stripeByte(rank, n int) byte { return byte(n*31 + rank*7 + 1) }

// wantState is the closed form of a rank's state after iters
// failure-free iterations.
func wantState(rank, ranks, iters int) []byte {
	st := make([]byte, fltState)
	binary.LittleEndian.PutUint64(st[0:], uint64(iters))
	var cs uint64
	for n := 0; n < iters; n++ {
		sum := uint64(ranks*(n+1) + ranks*(ranks-1)/2) // sum over r of n+r+1
		cs += sum * uint64(n+1)
	}
	binary.LittleEndian.PutUint64(st[8:], cs)
	for s := 0; s < fltStripes; s++ {
		// The last iteration below iters that wrote stripe s.
		n := iters - 1 - ((iters-1-s)%fltStripes+fltStripes)%fltStripes
		if n < 0 {
			continue
		}
		b := stripeByte(rank, n)
		off := fltStripe * (1 + s)
		for i := 0; i < fltStripe; i++ {
			st[off+i] = b
		}
	}
	return st
}

// stateDiff describes how a final state differs from the closed form.
func stateDiff(got, want []byte) string {
	stripes := 0
	for s := 0; s < fltStripes; s++ {
		off := fltStripe * (1 + s)
		if !bytes.Equal(got[off:off+fltStripe], want[off:off+fltStripe]) {
			stripes++
		}
	}
	return fmt.Sprintf("counter %d want %d, checksum %d want %d, %d of %d stripes differ",
		binary.LittleEndian.Uint64(got), binary.LittleEndian.Uint64(want),
		binary.LittleEndian.Uint64(got[8:]), binary.LittleEndian.Uint64(want[8:]), stripes, fltStripes)
}

// faultJob is one job's shared state.
type faultJob struct {
	lg    *loopLog
	tr    *tracer
	iters int
	want  [][]byte
	cpu   *cpuSampler // counts Loop returns of every rank; nil in set-up jobs

	mu    sync.Mutex
	wrong []string // one line per rank incarnation that ended wrong
}

func (f *faultJob) app(env *fmi.Env) error {
	rank := env.Rank()
	inc := f.lg.enter(rank, env.Epoch())
	log := f.tr.log(fmt.Sprintf("rank%d", rank))
	state := make([]byte, fltState)
	world := env.World()
	var contrib [8]byte
	for {
		entered := f.lg.since()
		n := env.Loop(state)
		now := f.lg.since()
		inc.returned(n, entered, now, env.Epoch())
		log.add("loop", int64(n), -1, f.lg.t0.Add(entered), f.lg.t0.Add(now))
		if f.cpu != nil {
			f.cpu.add(1)
		}
		if n >= f.iters {
			break
		}
		root := log.begin("iter", int64(n), -1)
		time.Sleep(fltStep)
		binary.LittleEndian.PutUint64(contrib[:], uint64(n+rank+1))
		a := log.begin("allreduce", int64(n), root)
		sum, err := world.Allreduce(contrib[:], fmi.SumInt64())
		log.end(a)
		log.end(root)
		if err != nil {
			continue // a failure: the next Loop recovers
		}
		applyIter(state, rank, n, binary.LittleEndian.Uint64(sum))
	}
	if !bytes.Equal(state, f.want[rank]) {
		msg := fmt.Sprintf("rank %d (incarnation started at %v, epoch %d): %s", rank, inc.start, env.Epoch(), stateDiff(state, f.want[rank]))
		f.mu.Lock()
		f.wrong = append(f.wrong, msg)
		f.mu.Unlock()
		return fmt.Errorf("final state differs from the failure-free closed form: %s", msg)
	}
	return env.Finalize()
}

// killPlan draws one job's kills: fltKills loop ids, one per equal
// segment after the warm-up, and a victim rank each (repeats allowed).
func killPlan(rng *rand.Rand, iters int) []fmi.Fault {
	seg := (iters - fltWarm) / fltKills
	out := make([]fmi.Fault, 0, fltKills)
	for i := 0; i < fltKills; i++ {
		at := fltWarm + i*seg + rng.Intn(seg/2)
		out = append(out, fmi.Fault{AfterLoop: at, Node: -1, Rank: rng.Intn(fltRanks)})
	}
	return out
}

// faultsChild runs one faults job in a child process: first
// launch-only jobs for set-up time, then one measured job with its
// seeded kills.
func faultsChild(proto string, seed int64, index int, tr *tracer) (*sample, error) {
	out := newSample()
	zero := wantState(0, fltRanks, 0)
	for i := 0; i < fltSetups; i++ {
		f := &faultJob{lg: newLoopLog(), want: [][]byte{zero, zero, zero, zero}}
		if _, err := fmi.Run(faultConfig(proto, nil, nil), f.app); err != nil {
			return nil, fmt.Errorf("faults %s set-up job: %w", proto, err)
		}
		r, err := f.lg.ready(fltRanks)
		if err != nil {
			return nil, err
		}
		out.add("setup_raw", msOf(r))
	}

	rng := rand.New(rand.NewSource(seed*7919 + int64(index)))
	plan := killPlan(rng, fltIters)
	want := make([][]byte, fltRanks)
	for r := range want {
		want[r] = wantState(r, fltRanks, fltIters)
	}
	f := &faultJob{lg: newLoopLog(), tr: tr, iters: fltIters, want: want, cpu: startCPUSampler(cpuWindow, fltRanks)}
	out.Attempted = 1
	rep, err := fmi.Run(faultConfig(proto, plan, tr), f.app)
	out.addCPU(f.cpu)
	for _, w := range f.wrong {
		out.wrongf("faults %s job %d: %s", proto, index, w)
	}
	if err != nil {
		out.Failed = 1
		out.notef("job %d failed (%d of %d kills fired): %v", index, failures(rep), len(plan), err)
		return out, nil
	}
	r, err := f.lg.ready(fltRanks)
	if err != nil {
		return nil, err
	}
	out.add("setup_raw", msOf(r))
	reach := highWater(f.lg.stamps(), fltRanks)
	var kills []int
	for _, k := range plan[:min(rep.FailuresInjected, len(plan))] {
		kills = append(kills, k.AfterLoop)
	}
	stalls, steady := stallSplit(reach, kills)
	out.add("stall", stalls...)
	out.add("steady", steady...)
	if len(reach) > 1 {
		out.sum("hw_iters", float64(len(reach)-1))
		out.sum("hw_s", (reach[len(reach)-1] - reach[0]).Seconds())
	}
	out.add("absorb", f.lg.absorb()...)
	launch, rejoin := f.lg.firstLoop(r)
	out.add("first_loop", launch...)
	out.add("rejoin", rejoin...)
	st := rep.Stats
	out.sum("kills", float64(rep.FailuresInjected))
	out.sum("epochs", float64(rep.Recoveries))
	out.sum("spares", float64(rep.SparesConsumed))
	out.sum("lost", float64(st.LostIterations))
	out.sum("restore_ms", msOf(st.RestoreTime))
	out.sum("restores", float64(st.Restores))
	out.sum("recovery_ms", msOf(st.RecoveryTime))
	out.sum("recoveries", float64(st.Recoveries))
	out.sum("replayed", float64(st.ReplayedMsgs))
	out.sum("log_bytes", float64(st.LogBytes))
	out.sum("iters", fltIters)
	addStats(out, st)
	for name, d := range recoveryPhases(rep.Timeline) {
		out.add("trace."+name, d...)
	}
	return out, nil
}

// faultsRun runs faults jobs, each in its own child, until the measured
// time is used up.
func faultsRun(dur time.Duration, spawn spawner) (*sample, error) {
	pool := newSample()
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		s, err := spawn(i, 0)
		if err != nil {
			return nil, err
		}
		pool.merge(s)
	}
	return pool, nil
}

func faultsOutcome(proto string, s *sample) *outcome {
	o := newOutcome()
	steady, stalls := s.D["steady"], s.D["stall"]
	p, tail, _ := steady.tail()
	o.e2e["setup_s"] = measure{s.D["setup"].median() / 1e3, "s", len(s.D["setup"]), "fmi.Run until every rank returned from Loop 0, scaled by the host probe; median over all jobs"}
	o.e2e["cpu_ms_per_op"] = measure{s.D["cpu_window"].median(), "ms", len(s.D["cpu_window"]), "process CPU time per job iteration (4 rank Loop returns), scaled by the host probe, median over 200 ms windows"}
	o.layer["p50_ms"] = measure{steady.median(), "ms", len(steady), fmt.Sprintf("faults.iter_ms.%s: high-water advance interval outside kill windows", proto)}
	o.layer["tail_ms"] = measure{tail, "ms", len(steady), fmt.Sprintf("p%g of the same intervals", p)}
	o.layer["event_ms"] = measure{stalls.median(), "ms", len(stalls), fmt.Sprintf("faults.stall_ms.%s: high-water stall across a kill, detection, recovery and lost work", proto)}
	o.layer["rate_hz"] = measure{ratio(s.N["hw_iters"], s.N["hw_s"]), "1/s", int(s.N["hw_iters"]), "high-water iterations per second, kills included"}

	kills := s.N["kills"]
	o.layer["recovery.loop_ms"] = measure{s.D["absorb"].median(), "ms", len(s.D["absorb"]), "a survivor's Loop call that absorbs a recovery epoch"}
	o.layer["recovery.rejoin_ms"] = measure{s.D["rejoin"].median(), "ms", len(s.D["rejoin"]), "a respawned rank or replacement shadow: app entry to first Loop return"}
	o.layer["recovery.epoch_ms"] = measure{ratio(s.N["recovery_ms"], s.N["recoveries"]), "ms", int(s.N["recoveries"]), "Stats.RecoveryTime / Recoveries"}
	o.layer["recovery.restore_ms"] = measure{ratio(s.N["restore_ms"], s.N["restores"]), "ms", int(s.N["restores"]), "Stats.RestoreTime / Restores"}
	o.layer["recovery.lost_iters"] = measure{ratio(s.N["lost"], kills), "count", int(kills), "Stats.LostIterations per kill"}
	o.layer["cluster.spares_used"] = measure{ratio(s.N["spares"], kills), "count", int(kills), "Report.SparesConsumed per kill"}
	o.layer["msglog.log_bytes_per_iter"] = measure{ratio(s.N["log_bytes"], s.N["iters"]), "B", int(s.N["iters"]), "Stats.LogBytes per job iteration"}
	o.layer["msglog.replayed_msgs"] = measure{ratio(s.N["replayed"], kills), "count", int(kills), "Stats.ReplayedMsgs per kill"}
	o.layer["replica.masked_frac"] = measure{ratio(kills-min(s.N["epochs"], kills), kills), "ratio", int(kills), "kills that caused no recovery epoch"}
	medianLayer(o, s, "runtime.first_loop_ms", "first_loop", 1, "ms", "app entry to first Loop return, launch incarnations")
	statsLayers(o, s)
	medianLayer(o, s, "coll.allreduce_us", "span.allreduce", 1e3, "us", "8-byte Allreduce, including the wait for the slowest rank")
	phaseLayers(o, s)
	o.notef("closed loop: %d-iteration jobs back to back, one child process each, %d ranks on %d nodes, %d kills per job, checkpoint every %d, %d KiB state per rank",
		fltIters, fltRanks, fltRanks, fltKills, fltInterval, fltState>>10)
	o.notef("stalls (ms): %s", quartiles(stalls))
	o.notef("%d jobs completed of %d, %.0f kills fired, %.0f recovery epochs, %.0f spares", int(s.N["jobs"]), s.Attempted, kills, s.N["epochs"], s.N["spares"])
	return o
}

// faultConfig is the job configuration of the faults workloads.
func faultConfig(proto string, plan []fmi.Fault, tr *tracer) fmi.Config {
	cfg := fmi.Config{
		Ranks: fltRanks, ProcsPerNode: 1, SpareNodes: fltKills + 2,
		CheckpointInterval: fltInterval, XORGroupSize: fltRanks,
		Recovery:    proto,
		DetectDelay: 2 * time.Millisecond, PropDelay: time.Millisecond,
		Timeout: fltDeadline,
	}
	if len(plan) > 0 {
		cfg.Faults = &fmi.FaultPlan{Script: plan}
	}
	if tr != nil {
		cfg.TraceTo = io.Discard // fills Report.Timeline
	}
	return cfg
}

func failures(rep *fmi.Report) int {
	if rep == nil {
		return 0
	}
	return rep.FailuresInjected
}
