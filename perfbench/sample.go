package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// sample is what one child process measured, kept raw so that the
// parent can pool children before computing any statistic: named
// samples (D) and named sums (N).
//
// Every job runs in a child process because a rank the runtime has
// killed can outlive its job spinning at full speed (see the
// known-failure ledger). In one long-lived process each such rank would
// take a core from every later job of the run; in a child it dies with
// the child.
type sample struct {
	D         map[string]dist    `json:"d"`
	N         map[string]float64 `json:"n"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Wrong     []string           `json:"wrong"`
	Notes     []string           `json:"notes"`
}

func newSample() *sample {
	return &sample{D: map[string]dist{}, N: map[string]float64{}}
}

func (s *sample) add(name string, v ...float64) { s.D[name] = append(s.D[name], v...) }

func (s *sample) sum(name string, v float64) { s.N[name] += v }

func (s *sample) notef(format string, args ...any) {
	s.Notes = append(s.Notes, fmt.Sprintf(format, args...))
}

func (s *sample) wrongf(format string, args ...any) {
	s.Wrong = append(s.Wrong, fmt.Sprintf(format, args...))
}

// merge pools o into s.
func (s *sample) merge(o *sample) {
	for k, v := range o.D {
		s.add(k, v...)
	}
	for k, v := range o.N {
		s.sum(k, v)
	}
	s.Attempted += o.Attempted
	s.Failed += o.Failed
	s.Wrong = append(s.Wrong, o.Wrong...)
	s.Notes = append(s.Notes, o.Notes...)
}

// wireInf stands for +Inf on the wire: JSON has no infinities, and a
// refused or failed request's latency is +Inf.
const wireInf = math.MaxFloat64

func (s *sample) encode() ([]byte, error) {
	out := &sample{D: map[string]dist{}, N: s.N, Attempted: s.Attempted, Failed: s.Failed, Wrong: s.Wrong, Notes: s.Notes}
	for k, d := range s.D {
		w := make(dist, len(d))
		for i, v := range d {
			w[i] = v
			if math.IsInf(v, 1) {
				w[i] = wireInf
			}
		}
		out.D[k] = w
	}
	return json.Marshal(out)
}

func decodeSample(b []byte) (*sample, error) {
	s := newSample()
	if err := json.Unmarshal(b, s); err != nil {
		return nil, err
	}
	for _, d := range s.D {
		for i, v := range d {
			if v == wireInf {
				d[i] = math.Inf(1)
			}
		}
	}
	return s, nil
}

// childDeadline bounds one child process; every child ends well within
// it unless the program hangs outside every job deadline.
const childDeadline = 150 * time.Second

// spawner runs one child of the current workload and returns its
// sample. seconds is the child's share of the measured time.
type spawner func(index int, seconds time.Duration) (*sample, error)

// newSpawner returns the spawner of a parent process: each call
// re-runs this binary in child mode and waits for it.
func newSpawner(workload string, seed int64, traced bool) (spawner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	return func(index int, seconds time.Duration) (*sample, error) {
		ctx, cancel := context.WithTimeout(context.Background(), childDeadline)
		defer cancel()
		cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
			"-trace", tr, "-child", strconv.Itoa(index), "-child-ms", strconv.FormatInt(seconds.Milliseconds(), 10))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("child %d: %w", index, err)
		}
		s, err := decodeSample(out.Bytes())
		if err != nil {
			return nil, fmt.Errorf("child %d output: %w", index, err)
		}
		return s, nil
	}, nil
}

// finishChild adds what every child reports at its end: the CPU its
// process still burns with no job running, and, in a traced child, the
// spans' durations and self times, which it also writes out.
func finishChild(s *sample, tr *tracer, workload string, seed int64, index int) error {
	idle, err := idleCores(200 * time.Millisecond)
	if err != nil {
		return err
	}
	s.add("idle_cores", idle)
	if tr == nil {
		return nil
	}
	for name, d := range tr.byName() {
		s.add("span."+name, d...)
	}
	for name, d := range tr.selfTimes() {
		s.add("self."+name, d...)
	}
	path, err := tr.write(".bench_build", fmt.Sprintf("perfbench-spans-%s-%d-%d.jsonl", workload, seed, index))
	if err != nil {
		return err
	}
	if index == 0 {
		s.notef("spans written to %s (one file per child)", path)
	}
	return nil
}
