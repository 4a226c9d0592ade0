package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"fmi/internal/trace"
)

// The lateness and submit-time samples of a serve child must cover the
// nominal phase's sends only, one each, and none of the warm-up's.
func TestLatenessCoversOnlyNominalSends(t *testing.T) {
	srv, base, _, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	transport := &http.Transport{MaxConnsPerHost: srvConns, MaxIdleConnsPerHost: srvConns}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	warm, s := warmUp(srv, base, client, nil, 300*time.Millisecond)
	if warm.attempted == 0 {
		t.Fatal("the warm-up ran no jobs")
	}
	out := newSample()
	s.nominal(rand.New(rand.NewSource(1)), 300*time.Millisecond, out, true)
	jobs := len(out.D["job"])
	if jobs == 0 {
		t.Fatal("the nominal phase sent no jobs")
	}
	if got := len(out.D["late"]); got != jobs {
		t.Errorf("%d lateness records for %d nominal jobs (warm-up ran %d)", got, jobs, warm.attempted)
	}
	if got := len(out.D["submit"]); got != jobs {
		t.Errorf("%d submit times for %d nominal jobs (warm-up ran %d)", got, jobs, warm.attempted)
	}
}

func TestHangStage(t *testing.T) {
	ev := func(kind trace.Kind, rank int, note string) trace.Event {
		return trace.Event{Kind: kind, Rank: rank, Note: note}
	}
	ckpt := func(id int, ranks ...int) []trace.Event {
		var out []trace.Event
		for _, r := range ranks {
			out = append(out, ev(trace.KindCheckpoint, r, fmt.Sprintf("checkpoint %d (16 B, interval 3)", id)))
		}
		return out
	}
	failed := ev(trace.KindNodeFailed, -1, "node 3 failed")
	cat := func(parts ...[]trace.Event) []trace.Event {
		var out []trace.Event
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	fin := func(ranks ...int) []trace.Event {
		var out []trace.Event
		for _, r := range ranks {
			out = append(out, ev(trace.KindFinalize, r, "finalized"))
		}
		return out
	}
	abort := []trace.Event{ev(trace.KindAbort, -1, "job aborted: timeout"), failed}
	for _, c := range []struct {
		name   string
		events []trace.Event
		want   string
	}{
		{"one rank short of the last checkpoint", cat(ckpt(15, 0, 1, 2, 3), ckpt(18, 0, 1, 2), abort), hungMidJob},
		{"every rank at the last checkpoint, none finalized", cat(ckpt(18, 0, 1, 2, 3), abort), hungAtEnd},
		{"two ranks finalized, two at the last checkpoint", cat(ckpt(18, 0, 1, 2, 3), fin(2, 3), abort), hungAtEnd},
		{"a failure after the last checkpoint", cat(ckpt(18, 0, 1, 2, 3), []trace.Event{failed}, abort), hungMidJob},
		{"restored to the last checkpoint after a failure", cat(ckpt(18, 0, 1, 2, 3), []trace.Event{failed,
			ev(trace.KindRestore, 0, "restored checkpoint 18 into 1 segment(s)"),
			ev(trace.KindRestore, 1, "restored checkpoint 18 into 1 segment(s)"),
			ev(trace.KindRollback, 2, "rolled back to loop 18"),
			ev(trace.KindRollback, 3, "rolled back to loop 18")}, abort), hungAtEnd},
		{"a kill during finalize", cat(ckpt(18, 0, 1, 2, 3), fin(2, 3), []trace.Event{failed}, fin(0, 1), abort), hungChecked},
		{"a kill during finalize, respawns stuck", cat(ckpt(18, 0, 1, 2, 3), fin(2), []trace.Event{failed}, fin(0, 3), abort), hungMidJob},
	} {
		if got := hangStage(c.events, 4, 18); got != c.want {
			t.Errorf("%s: hangStage = %s, want %s", c.name, got, c.want)
		}
	}
}
