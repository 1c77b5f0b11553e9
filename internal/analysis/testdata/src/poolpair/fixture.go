// Fixture for the poolpair analyzer: pooled values (sync.Pool.Get,
// binary.GetBuffer, SolverPool.Get) must be released on every path and
// must never escape the acquiring function (type-checked as
// paydemand/internal/server, which makes readBody below an acquire
// front for the buffer pool).
package server

import (
	"errors"
	"sync"

	"paydemand/internal/selection"
	"paydemand/internal/wire/binary"
)

var errFixture = errors.New("fixture")

var pool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

func cond() bool { return len(errFixture.Error()) > 3 }

func use(b []byte) int { return len(b) }

// Balanced acquire/release pairs are accepted, in both the straight-line
// and deferred forms.

func balanced() {
	buf := pool.Get().(*[]byte)
	pool.Put(buf)
}

func deferredPut() {
	buf := pool.Get().(*[]byte)
	defer pool.Put(buf)
	*buf = (*buf)[:0]
}

func deferredBuffer() {
	buf := binary.GetBuffer()
	defer binary.PutBuffer(buf)
	use(*buf)
}

// A leak on every path.

func leak() {
	buf := pool.Get().(*[]byte) // want `pooled value acquired here is not released on every path`
	use(*buf)
}

func solverLeak(p *selection.SolverPool) {
	alg := p.Get() // want `pooled solver acquired here is not released on every path`
	_ = alg
}

func solverBalanced(p *selection.SolverPool) {
	alg := p.Get()
	defer p.Put(alg)
}

// A leak on the error path only: the early return skips the Put.

func errPathLeak() error {
	buf := binary.GetBuffer() // want `pooled buffer acquired here is released on some paths but not others`
	if cond() {
		return errFixture
	}
	binary.PutBuffer(buf)
	return nil
}

func errPathBalanced() error {
	buf := binary.GetBuffer()
	if cond() {
		binary.PutBuffer(buf)
		return errFixture
	}
	binary.PutBuffer(buf)
	return nil
}

// A loop body may run zero times, so a release inside it does not cover
// an acquire before the loop.

func loopRelease(xs []int) {
	buf := binary.GetBuffer() // want `pooled buffer acquired here is released on some paths but not others`
	for range xs {
		binary.PutBuffer(buf)
	}
}

// readBody is an acquire front (declared in the analyzer's pair table):
// it returns a pooled buffer the caller owns. Returning the buffer
// transfers ownership out of this function, so readBody itself is clean.
func readBody() (*[]byte, error) {
	buf := binary.GetBuffer()
	if cond() {
		binary.PutBuffer(buf)
		return nil, errFixture
	}
	return buf, nil
}

// Conditional ownership: the buffer is owned iff err is nil, and the
// err != nil early return correctly carries nothing to release.

func condBalanced() error {
	body, err := readBody()
	if err != nil {
		return err
	}
	binary.PutBuffer(body)
	return nil
}

func condSuccessLeak() error {
	body, err := readBody() // want `pooled buffer acquired here is released on some paths but not others`
	if err != nil {
		return err
	}
	use(*body)
	return nil
}

func condForgotten() error {
	body, err := readBody() // want `pooled buffer acquired here is not released on the success path`
	_ = body
	return err
}

// Escapes: a pooled value stored into a field, map, or pointer target
// outlives the function and defeats recycling.

type holder struct {
	b *[]byte
	m map[string]*[]byte
}

func (h *holder) escapeField() {
	buf := binary.GetBuffer()
	h.b = buf // want `pooled buffer escapes into a field, map, or pointer target`
}

func (h *holder) escapeDirect() {
	h.b = binary.GetBuffer() // want `pooled buffer from binary.GetBuffer escapes into a field, map, or pointer target`
}

func (h *holder) escapeMap() {
	buf := binary.GetBuffer()
	h.m["k"] = buf // want `pooled buffer escapes into a field, map, or pointer target`
}

// A discarded acquire can never be released.

func discard() {
	binary.GetBuffer() // want `result of binary.GetBuffer is discarded`
}

// Overwriting a still-owned value loses the only reference to it.

func overwrite() {
	buf := binary.GetBuffer() // want `pooled buffer acquired here is overwritten before it is released`
	buf = binary.GetBuffer()
	binary.PutBuffer(buf)
}

// Ownership handoffs end tracking: the callee, goroutine, channel
// receiver, or capturing closure becomes responsible for the release.

func handoffCall() {
	buf := binary.GetBuffer()
	consume(buf)
}

func consume(b *[]byte) {
	binary.PutBuffer(b)
}

func handoffGoroutine() {
	buf := binary.GetBuffer()
	go consume(buf)
}

func handoffChannel(ch chan *[]byte) {
	buf := binary.GetBuffer()
	ch <- buf
}

func handoffClosure() func() {
	buf := binary.GetBuffer()
	return func() { binary.PutBuffer(buf) }
}

// Closure bodies are their own analysis units and must balance their
// own acquires.

func closureLeak() {
	go func() {
		buf := binary.GetBuffer() // want `pooled buffer acquired here is not released on every path`
		use(*buf)
	}()
}

// A directive with a reason suppresses the finding at the acquire site.

func suppressed() {
	//paylint:poolpair the audit goroutine started at boot releases this buffer
	buf := binary.GetBuffer()
	use(*buf)
}
