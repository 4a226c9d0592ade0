package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records the benchmark's own spans around its calls into the
// program, in memory, and writes them out when the run ends. A nil
// *tracer records nothing: measured (untraced) runs pass nil.
type tracer struct {
	t0   time.Time
	mu   sync.Mutex
	logs []*spanLog
}

// spanLog holds the spans of one goroutine (one rank incarnation or
// one client), so recording takes no lock.
type spanLog struct {
	tr    *tracer
	owner string
	spans []span
}

// span is one timed call. ID is shared by every span of one
// iteration, kill or job; Parent indexes the enclosing span in the
// same log (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	ID     int64         `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// log registers a span log for one goroutine.
func (t *tracer) log(owner string) *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{tr: t, owner: owner, spans: make([]span, 0, 16)}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// begin opens a span and returns its handle (-1 on a nil log).
func (l *spanLog) begin(name string, id int64, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: time.Since(l.tr.t0), End: -1})
	return len(l.spans) - 1
}

// end closes the span opened as h.
func (l *spanLog) end(h int) {
	if l == nil || h < 0 {
		return
	}
	l.spans[h].End = time.Since(l.tr.t0)
}

// add records a span whose bounds were measured elsewhere.
func (l *spanLog) add(name string, id int64, parent int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: start.Sub(l.tr.t0), End: end.Sub(l.tr.t0)})
	return len(l.spans) - 1
}

// byName returns the durations of every closed span, in ms, by span
// name. Call it only after every recording goroutine has finished.
func (t *tracer) byName() map[string]dist {
	out := map[string]dist{}
	for _, l := range t.logs {
		for _, s := range l.spans {
			if s.End >= s.Start {
				out[s.Name] = append(out[s.Name], msOf(s.End-s.Start))
			}
		}
	}
	return out
}

// selfTimes returns, per span name, each span's self time in ms: its
// duration minus the part of it covered by its child spans.
func (t *tracer) selfTimes() map[string]dist {
	out := map[string]dist{}
	if t == nil {
		return out
	}
	for _, l := range t.logs {
		children := make([][]int, len(l.spans))
		for i, s := range l.spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], i)
			}
		}
		for i, s := range l.spans {
			if s.End < s.Start {
				continue
			}
			out[s.Name] = append(out[s.Name], msOf(s.End-s.Start-covered(l.spans, children[i], s.Start, s.End)))
		}
	}
	return out
}

// covered is the length of [lo,hi) covered by the union of the given
// spans.
func covered(spans []span, idx []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, i := range idx {
		a, b := spans[i].Start, spans[i].End
		if b < a {
			continue
		}
		a, b = max(a, lo), min(b, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a > end {
			end = v.a
		}
		total += v.b - end
		end = v.b
	}
	return total
}

// write saves every span as JSON Lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range t.logs {
		for _, s := range l.spans {
			if err := enc.Encode(struct {
				Owner string `json:"owner"`
				span
			}{l.owner, s}); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
