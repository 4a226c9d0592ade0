package main

import (
	"fmi/internal/core"
	"fmi/internal/himeno"
)

// p2pComm is the part of a communicator the Himeno solver uses. Besides
// himeno.Comm it includes Send and Recv, which Solver.Exchange
// type-asserts on edge ranks: a wrapper without them makes Exchange
// fail on every call, and an app that continues to Loop on error then
// spins forever.
type p2pComm interface {
	himeno.Comm
	Send(dst, tag int, data []byte) error
	Recv(src, tag int) ([]byte, int, error)
}

// timedComm forwards every call to c and records a span per call. A
// point-to-point call is "ring" when every peer it names shares the
// caller's node and "chan" when any peer is on another node, matching
// the transport path the frames take.
type timedComm struct {
	c        p2pComm
	log      *spanLog
	sameNode func(peer int) bool
	iter     int64 // id stamped on spans: the current iteration
	parent   int   // enclosing span handle
}

var _ p2pComm = (*timedComm)(nil)

func (t *timedComm) path(peers ...int) string {
	for _, p := range peers {
		if !t.sameNode(p) {
			return "halo.chan"
		}
	}
	return "halo.ring"
}

func (t *timedComm) Send(dst, tag int, data []byte) error {
	h := t.log.begin(t.path(dst), t.iter, t.parent)
	err := t.c.Send(dst, tag, data)
	t.log.end(h)
	return err
}

func (t *timedComm) Recv(src, tag int) ([]byte, int, error) {
	h := t.log.begin(t.path(src), t.iter, t.parent)
	data, from, err := t.c.Recv(src, tag)
	t.log.end(h)
	return data, from, err
}

func (t *timedComm) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) ([]byte, error) {
	h := t.log.begin(t.path(dst, src), t.iter, t.parent)
	out, err := t.c.Sendrecv(dst, sendTag, data, src, recvTag)
	t.log.end(h)
	return out, err
}

func (t *timedComm) Allreduce(data []byte, op core.Op) ([]byte, error) {
	h := t.log.begin("allreduce", t.iter, t.parent)
	out, err := t.c.Allreduce(data, op)
	t.log.end(h)
	return out, err
}
