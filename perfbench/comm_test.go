package main

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"fmi/internal/core"
	"fmi/internal/himeno"
)

// fakeNet is an in-memory point-to-point network for n ranks with one
// buffered channel per (src, dst, tag).
type fakeNet struct {
	mu sync.Mutex
	ch map[[3]int]chan []byte
}

func (f *fakeNet) link(src, dst, tag int) chan []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := [3]int{src, dst, tag}
	if f.ch[k] == nil {
		f.ch[k] = make(chan []byte, 4)
	}
	return f.ch[k]
}

// fakeComm is one rank's view of a fakeNet. It implements the whole
// p2pComm surface; minimalComm below hides Send and Recv.
type fakeComm struct {
	net  *fakeNet
	rank int
}

func (c *fakeComm) Send(dst, tag int, data []byte) error {
	c.net.link(c.rank, dst, tag) <- append([]byte(nil), data...)
	return nil
}

func (c *fakeComm) Recv(src, tag int) ([]byte, int, error) {
	return <-c.net.link(src, c.rank, tag), src, nil
}

func (c *fakeComm) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) ([]byte, error) {
	if err := c.Send(dst, sendTag, data); err != nil {
		return nil, err
	}
	out, _, err := c.Recv(src, recvTag)
	return out, err
}

func (c *fakeComm) Allreduce(data []byte, op core.Op) ([]byte, error) {
	return append([]byte(nil), data...), nil
}

// minimalComm satisfies himeno.Comm and nothing more, like a timing
// wrapper that forgot to forward Send and Recv.
type minimalComm struct{ c *fakeComm }

func (m minimalComm) Sendrecv(dst, st int, d []byte, src, rt int) ([]byte, error) {
	return m.c.Sendrecv(dst, st, d, src, rt)
}
func (m minimalComm) Allreduce(d []byte, op core.Op) ([]byte, error) { return m.c.Allreduce(d, op) }

// exchangeAll runs one halo exchange on every rank concurrently.
func exchangeAll(t *testing.T, n int, comm func(rank int, c *fakeComm) himeno.Comm) []error {
	t.Helper()
	net := &fakeNet{ch: map[[3]int]chan []byte{}}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		s, err := himeno.New(r, n, 2+2*n, 6, 6)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int, s *himeno.Solver) {
			defer wg.Done()
			errs[r] = s.Exchange(comm(r, &fakeComm{net: net, rank: r}))
		}(r, s)
	}
	wg.Wait()
	return errs
}

// TestTimedCommForwardsSendRecv runs a halo exchange through the timing
// wrapper on 4 ranks, 2 per node: the edge ranks use Send and Recv, the
// middle ones Sendrecv, and every call lands in the ring or chan span
// by where its peers live.
func TestTimedCommForwardsSendRecv(t *testing.T) {
	tr := newTracer()
	const n, ppn = 4, 2
	errs := exchangeAll(t, n, func(r int, c *fakeComm) himeno.Comm {
		return &timedComm{c: c, log: tr.log(fmt.Sprint(r)), sameNode: func(p int) bool { return p/ppn == r/ppn }}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: Exchange through timedComm: %v", r, err)
		}
	}
	// Edge ranks 0 and 3 Send+Recv with their node mate: 2 ring calls
	// each. Middle ranks 1 and 2 Sendrecv twice, each call naming a
	// peer on the other node: 4 chan calls.
	if got := len(tr.byName()["halo.ring"]); got != 4 {
		t.Errorf("ring calls = %d, want 4", got)
	}
	if got := len(tr.byName()["halo.chan"]); got != 4 {
		t.Errorf("chan calls = %d, want 4", got)
	}
}

// TestExchangeNeedsSendRecv pins why the wrapper forwards Send and Recv:
// without them Exchange fails on the edge ranks on every call.
func TestExchangeNeedsSendRecv(t *testing.T) {
	errs := exchangeAll(t, 2, func(r int, c *fakeComm) himeno.Comm { return minimalComm{c} })
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "cannot") {
			t.Errorf("rank %d: Exchange without Send/Recv = %v, want a cannot-Send/Recv error", r, err)
		}
	}
}
