package main

import (
	"fmt"
	"strings"
	"time"

	"fmi"
	"fmi/internal/trace"
)

// phaseNames are the recovery and resize phases read from the runtime's
// own timeline in traced runs.
var phaseNames = []string{"detect", "spare", "respawn", "restore", "replay", "promote", "view_commit"}

var phaseNotes = map[string]string{
	"detect":      "node-failed to the first failure notification",
	"spare":       "node-failed to spare-allocated",
	"respawn":     "spare-allocated to respawn",
	"restore":     "respawn to the last restore or rollback before the next kill",
	"replay":      "first replay-start to last replay-done",
	"promote":     "node-failed to shadow-promote",
	"view_commit": "resize armed to the committed view-change",
}

// recoveryPhases splits a timeline at every primary node failure and
// measures each phase inside the window up to the next failure.
func recoveryPhases(events []fmi.TraceEvent) map[string]dist {
	out := map[string]dist{}
	var fails []int
	for i, e := range events {
		if e.Kind == trace.KindNodeFailed && !strings.Contains(e.Note, "(shadow of") {
			fails = append(fails, i)
		}
	}
	for k, fi := range fails {
		end := len(events)
		if k+1 < len(fails) {
			end = fails[k+1]
		}
		w := events[fi:end]
		t0 := w[0].At
		first := func(kind trace.Kind, after time.Time) (time.Time, bool) {
			for _, e := range w {
				if e.Kind == kind && !e.At.Before(after) {
					return e.At, true
				}
			}
			return time.Time{}, false
		}
		last := func(kinds ...trace.Kind) (time.Time, bool) {
			var t time.Time
			ok := false
			for _, e := range w {
				for _, kd := range kinds {
					if e.Kind == kd {
						t, ok = e.At, true
					}
				}
			}
			return t, ok
		}
		add := func(name string, a, b time.Time) {
			if b.After(a) || b.Equal(a) {
				out[name] = append(out[name], msOf(b.Sub(a)))
			}
		}
		if t, ok := first(trace.KindNotified, t0); ok {
			add("detect", t0, t)
		}
		if t, ok := first(trace.KindShadowPromote, t0); ok {
			add("promote", t0, t)
		}
		sp, ok := first(trace.KindSpareAlloc, t0)
		if !ok {
			continue
		}
		add("spare", t0, sp)
		rs, ok := first(trace.KindRespawn, sp)
		if !ok {
			continue
		}
		add("respawn", sp, rs)
		if t, ok := last(trace.KindRestore, trace.KindRollback); ok && t.After(rs) {
			add("restore", rs, t)
		}
		if a, ok := first(trace.KindReplayStart, rs); ok {
			if b, ok := last(trace.KindReplayDone); ok {
				add("replay", a, b)
			}
		}
	}
	return out
}

// viewCommits measures each resize from its armed event to its
// committed view-change in one job's timeline.
func viewCommits(events []trace.Event) dist {
	var out dist
	var armed time.Time
	for _, e := range events {
		if e.Kind != trace.KindViewChange {
			continue
		}
		switch {
		case strings.HasPrefix(e.Note, "resize armed"):
			armed = e.At
		case strings.Contains(e.Note, " committed at loop ") && !armed.IsZero():
			out = append(out, msOf(e.At.Sub(armed)))
			armed = time.Time{}
		}
	}
	return out
}

// Stages of a hung job, read from its timeline by hangStage.
const (
	hungChecked = "checked"  // every rank passed its output check
	hungMidJob  = "mid-job"  // some rank had not reached its output check
	hungAtEnd   = "at-end"   // every rank got past the last checkpoint; the output is unchecked
	hungNoTrace = "no-trace" // the job has no timeline
)

// hangStage tells from a hung job's timeline whether its output can
// be wrong. The apps check their output after their last Loop and call
// Finalize only if the check passed, so a rank that logged a finalize
// event passed it. A rank whose check fails returns an error instead,
// which holds the others in the finalize barrier until the job
// timeout; the server reports only the timeout. So the job is:
//   - checked when every rank finalized at some time;
//   - mid-job when, after the job's last node failure before it was
//     aborted, some rank neither finalized nor took, restored or rolled
//     back to the checkpoint at loop id last: that rank had not reached
//     its check, and the job was cut off by the hang, not by a check;
//   - at-end otherwise: every rank got past the last checkpoint and not
//     every rank finalized, which a failed check would explain.
func hangStage(events []trace.Event, ranks, last int) string {
	everFinal := make([]bool, ranks)
	from, to := 0, len(events)
	for i, e := range events {
		if e.Kind == trace.KindAbort {
			to = i
			break
		}
		if e.Kind == trace.KindNodeFailed {
			from = i + 1
		}
		if e.Kind == trace.KindFinalize && e.Rank >= 0 && e.Rank < ranks {
			everFinal[e.Rank] = true
		}
	}
	if allTrue(everFinal) {
		return hungChecked
	}
	reached := make([]bool, ranks)
	for _, e := range events[min(from, to):to] {
		if e.Rank < 0 || e.Rank >= ranks {
			continue
		}
		var id int
		switch e.Kind {
		case trace.KindFinalize:
			reached[e.Rank] = true
			continue
		case trace.KindCheckpoint:
			if _, err := fmt.Sscanf(e.Note, "checkpoint %d", &id); err != nil {
				continue
			}
		case trace.KindRestore:
			if _, err := fmt.Sscanf(e.Note, "restored checkpoint %d", &id); err != nil {
				continue
			}
		case trace.KindRollback:
			if _, err := fmt.Sscanf(e.Note, "rolled back to loop %d", &id); err != nil {
				continue
			}
		default:
			continue
		}
		if id >= last {
			reached[e.Rank] = true
		}
	}
	if !allTrue(reached) {
		return hungMidJob
	}
	return hungAtEnd
}

func allTrue(v []bool) bool {
	for _, b := range v {
		if !b {
			return false
		}
	}
	return true
}

// addStats sums the run counters the per-layer metrics read.
func addStats(s *sample, st fmi.Stats) {
	s.sum("checkpoints", float64(st.Checkpoints))
	s.sum("ckpt_ms", msOf(st.CheckpointTime))
	s.sum("ckpt_bytes", float64(st.CheckpointBytes))
	s.sum("init_ms", msOf(st.MeanInit))
	s.sum("jobs", 1)
	for _, m := range st.Matcher {
		s.sum("delivered", float64(m.Delivered))
		s.sum("dropped", float64(m.Dropped))
		s.sum("dup_suppressed", float64(m.DupSuppressed))
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// statsLayers reports the checkpoint, matcher and init counters summed
// by addStats; iters is the number of job iterations they cover.
func statsLayers(o *outcome, s *sample) {
	n, iters := s.N["checkpoints"], s.N["iters"]
	o.layer["ckpt.encode_ms"] = measure{ratio(s.N["ckpt_ms"], n), "ms", int(n), "Stats.CheckpointTime / Checkpoints"}
	o.layer["ckpt.bytes"] = measure{ratio(s.N["ckpt_bytes"], n), "B", int(n), "Stats.CheckpointBytes / Checkpoints"}
	o.layer["runtime.init_ms"] = measure{ratio(s.N["init_ms"], s.N["jobs"]), "ms", int(s.N["jobs"]), "Stats.MeanInit, mean over jobs"}
	o.layer["matcher.delivered_per_iter"] = measure{ratio(s.N["delivered"], iters), "count", int(iters), "Stats.Matcher delivered, all ranks, per job iteration"}
	o.layer["matcher.dropped_per_iter"] = measure{ratio(s.N["dropped"], iters), "count", int(iters), "Stats.Matcher dropped, per job iteration"}
	o.layer["matcher.dup_suppressed_per_iter"] = measure{ratio(s.N["dup_suppressed"], iters), "count", int(iters), "Stats.Matcher duplicates suppressed, per job iteration"}
}

// medianLayer reports the median of the named samples, scaled from ms
// by scale.
func medianLayer(o *outcome, s *sample, metric, name string, scale float64, unit, note string) {
	d := s.D[name]
	o.layer[metric] = measure{d.median() * scale, unit, len(d), note}
}

// phaseLayers reports the median of every trace phase sample.
func phaseLayers(o *outcome, s *sample) {
	for _, name := range phaseNames {
		medianLayer(o, s, "trace."+name+"_ms", "trace."+name, 1, "ms", phaseNotes[name])
	}
}
