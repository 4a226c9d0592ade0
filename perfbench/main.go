// Command perfbench is the repository's whole-job benchmark. It runs
// one named workload through the public fmi API or internal/serve,
// checks that the outputs are correct, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
// the end-to-end metrics of an untraced run (-trace 0), or the
// per-layer metrics of a traced run (-trace 1).
//
//	perfbench -workload himeno -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and the known failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark workload. The parent process calls run,
// which measures through spawn; every spawn re-runs this binary as a
// child that calls child and prints its sample. outcome turns the
// pooled samples into metrics.
type workload struct {
	child   func(seed int64, index int, dur time.Duration, tr *tracer) (*sample, error)
	run     func(dur time.Duration, spawn spawner) (*sample, error)
	outcome func(s *sample) *outcome
}

var workloads = map[string]workload{
	"himeno":         {himenoChild, himenoRun, himenoOutcome},
	"faults-global":  faultsWorkload("global"),
	"faults-local":   faultsWorkload("local"),
	"faults-replica": faultsWorkload("replica"),
	"serve":          serveWorkload(false),
	"serve-kills":    serveWorkload(true),
}

func faultsWorkload(proto string) workload {
	return workload{
		child: func(seed int64, index int, _ time.Duration, tr *tracer) (*sample, error) {
			return faultsChild(proto, seed, index, tr)
		},
		run:     faultsRun,
		outcome: func(s *sample) *outcome { return faultsOutcome(proto, s) },
	}
}

func serveWorkload(kills bool) workload {
	return workload{
		child: func(seed int64, index int, dur time.Duration, tr *tracer) (*sample, error) {
			return serveChild(seed, index, dur, tr, kills)
		},
		run:     serveRun,
		outcome: serveOutcome,
	}
}

// e2eUnits lists the end-to-end metrics every untraced run reports.
var e2eUnits = map[string]string{
	"setup_s":       "s",
	"cpu_ms_per_op": "ms",
}

// cpuWindow is the window of the CPU-cost samplers of himeno and faults.
const cpuWindow = 200 * time.Millisecond

// layerUnits lists the per-layer metrics every traced run reports. A
// layer a workload leaves idle, or cannot observe, reports 0.
var layerUnits = map[string]string{
	"p50_ms":                          "ms",
	"tail_ms":                         "ms",
	"event_ms":                        "ms",
	"rate_hz":                         "1/s",
	"himeno.jacobi_ms":                "ms",
	"p2p.halo_us.ring":                "us",
	"p2p.halo_us.chan":                "us",
	"coll.allreduce_us":               "us",
	"matcher.delivered_per_iter":      "count",
	"matcher.dropped_per_iter":        "count",
	"matcher.dup_suppressed_per_iter": "count",
	"ckpt.loop_ms":                    "ms",
	"ckpt.loop_us.plain":              "us",
	"ckpt.encode_ms":                  "ms",
	"ckpt.bytes":                      "B",
	"runtime.first_loop_ms":           "ms",
	"runtime.init_ms":                 "ms",
	"recovery.loop_ms":                "ms",
	"recovery.rejoin_ms":              "ms",
	"recovery.epoch_ms":               "ms",
	"recovery.restore_ms":             "ms",
	"recovery.lost_iters":             "count",
	"cluster.spares_used":             "count",
	"msglog.log_bytes_per_iter":       "B",
	"msglog.replayed_msgs":            "count",
	"replica.masked_frac":             "ratio",
	"serve.quiet_job_ms.tail":         "ms",
	"serve.submit_us":                 "us",
	"serve.status_us":                 "us",
	"serve.running_ms":                "ms",
	"serve.queued_ms":                 "ms",
	"serve.rejected":                  "count",
	"serve.backlog":                   "count",
	"serve.lease_grants":              "count",
	"serve.lease_waits":               "count",
	"serve.lateness_ms":               "ms",
	"runtime.idle_cores":              "cores",
	"host.probe_ms":                   "ms",
	"cpu.raw_ms_per_op":               "ms",
	"setup.raw_ms":                    "ms",
	"serve.goroutines_left":           "count",
	"trace.detect_ms":                 "ms",
	"trace.spare_ms":                  "ms",
	"trace.respawn_ms":                "ms",
	"trace.restore_ms":                "ms",
	"trace.replay_ms":                 "ms",
	"trace.promote_ms":                "ms",
	"trace.view_commit_ms":            "ms",
	"trace.overhead_pct":              "%",
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	child := flag.Int("child", -1, "internal: run as child process number n")
	childMs := flag.Int64("child-ms", 0, "internal: the child's measured milliseconds")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload one of %v, -seconds >= 1, -trace 0 or 1\n", workloadNames())
		os.Exit(2)
	}
	if *child >= 0 {
		if err := runChild(w, *name, *seed, *child, time.Duration(*childMs)*time.Millisecond, *traced == 1); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s child %d: %v\n", *name, *child, err)
			os.Exit(2)
		}
		return
	}
	dur := time.Duration(*seconds) * time.Second
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *traced)
	fmt.Printf("stamp: commit=%s go=%s GOMAXPROCS=%d nproc=%d\n", commit(), goruntime.Version(), goruntime.GOMAXPROCS(0), goruntime.NumCPU())

	var o *outcome
	var err error
	if *traced == 0 {
		o, err = measureRun(w, *name, *seed, dur, false)
	} else {
		o, err = tracedRun(w, *name, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(2)
	}
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	for _, w := range o.wrong {
		fmt.Println("  WRONG: " + w)
	}
	want, got := e2eUnits, o.e2e
	if *traced == 1 {
		want, got = layerUnits, o.layer
	} else {
		fmt.Println("  not gated (wall clock, counters):")
		for _, name := range sortedKeys(o.layer) {
			if m := o.layer[name]; m.n > 0 {
				fmt.Printf("    %-30s %14.6g %-6s n=%-6d %s\n", name, m.value, m.unit, m.n, m.note)
			}
		}
		fmt.Println("  gated:")
	}
	res := resultJSON{Correct: len(o.wrong) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	for _, name := range sortedKeys(want) {
		m, ok := got[name]
		if !ok {
			m = measure{unit: want[name], note: "layer idle or not observable on this workload"}
		}
		if m.unit != want[name] {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has unit %q, want %q\n", name, m.unit, want[name])
			os.Exit(2)
		}
		fmt.Printf("  %-32s %14.6g %-6s n=%-6d %s\n", name, m.value, m.unit, m.n, m.note)
		res.Metrics[name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runChild runs one child of a workload and prints its sample.
func runChild(w workload, name string, seed int64, index int, dur time.Duration, traced bool) error {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	probe = startProbe()
	s, err := w.child(seed, index, dur, tr)
	probe.close()
	if err != nil {
		return err
	}
	// Set-up times are too short to scale by the probe's cost at the
	// time; the child's median cost stands for its host's speed.
	pm := probe.median()
	s.add("probe_ms", pm)
	for _, v := range s.D["setup_raw"] {
		s.add("setup", v/hostScale(pm/msOf(probeRef)))
	}
	if err := finishChild(s, tr, name, seed, index); err != nil {
		return err
	}
	b, err := s.encode()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

// measureRun runs the workload for dur through child processes and turns
// the pooled samples into its outcome.
func measureRun(w workload, name string, seed int64, dur time.Duration, traced bool) (*outcome, error) {
	spawn, err := newSpawner(name, seed, traced)
	if err != nil {
		return nil, err
	}
	pool, err := w.run(dur, spawn)
	if err != nil {
		return nil, err
	}
	o := w.outcome(pool)
	o.attempted, o.failed, o.wrong = pool.Attempted, pool.Failed, pool.Wrong
	o.notes = append(pool.Notes, o.notes...)
	probes := pool.D["probe_ms"]
	o.layer["host.probe_ms"] = measure{probes.median(), "ms", len(probes),
		fmt.Sprintf("host probe: thread CPU of a fixed kernel, %v on a quiet reference host; median over children of each child's median", probeRef)}
	o.layer["cpu.raw_ms_per_op"] = measure{pool.D["cpu_raw"].median(), "ms", len(pool.D["cpu_raw"]), "cpu_ms_per_op before scaling by the host probe"}
	o.layer["setup.raw_ms"] = measure{pool.D["setup_raw"].median(), "ms", len(pool.D["setup_raw"]), "setup_s before scaling by the host probe, in ms"}
	idle := pool.D["idle_cores"]
	var spinning []int
	for i, v := range idle {
		if v > 0.5 {
			spinning = append(spinning, i)
		}
	}
	o.layer["runtime.idle_cores"] = measure{idle.median(), "cores", len(idle), "CPU a child process burns over 0.2 s after its jobs ended, median over children"}
	o.notef("child processes still burning over half a core after their jobs ended: %v of %d (max %.2f cores)", spinning, len(idle), idle.pct(100))
	if traced {
		for _, k := range sortedKeys(pool.D) {
			if span, ok := strings.CutPrefix(k, "self."); ok {
				o.notef("self time %-12s %10.1f ms", span, pool.D[k].total())
			}
		}
	}
	return o, nil
}

// tracedRun measures the workload untraced and then traced for half the
// time each, and reports the traced half's per-layer metrics with the
// tracing overhead on cpu_ms_per_op.
func tracedRun(w workload, name string, seed int64, dur time.Duration) (*outcome, error) {
	base, err := measureRun(w, name, seed, dur/2, false)
	if err != nil {
		return nil, err
	}
	o, err := measureRun(w, name, seed, dur/2, true)
	if err != nil {
		return nil, err
	}
	o.wrong = append(base.wrong, o.wrong...)
	o.attempted += base.attempted
	o.failed += base.failed
	b, t := base.e2e["cpu_ms_per_op"], o.e2e["cpu_ms_per_op"]
	o.layer["trace.overhead_pct"] = measure{100 * ratio(t.value-b.value, b.value), "%", t.n + b.n,
		fmt.Sprintf("cpu_ms_per_op traced %.4g vs untraced %.4g; two separate runs, so read it against cpu_ms_per_op's run-to-run spread (README)", t.value, b.value)}
	return o, nil
}

// commit names the source revision the binary was built from.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func workloadNames() []string { return sortedKeys(workloads) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
