package runio

import (
	"io"
	"sync"
)

// Prefetch wraps a RunReader so that the next run is read ahead by a
// background goroutine while the caller processes the current one — the
// I/O–computation overlap the paper lists as future work ("we can
// significantly reduce the total execution time by overlapping the I/O
// and the computation", Section 4). depth is the number of runs buffered
// ahead; 1 suffices to hide I/O behind sampling when the two are
// comparable, which is exactly the regime Tables 11–12 report.
//
// The wrapped reader must not be used directly afterwards. The goroutine
// exits after delivering io.EOF or an error, or when Close is called.
func Prefetch[T any](rr RunReader[T], depth int) *PrefetchReader[T] {
	if depth < 1 {
		depth = 1
	}
	p := &PrefetchReader[T]{
		inner:    rr,
		ch:       make(chan prefetched[T], depth),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	go p.loop()
	return p
}

type prefetched[T any] struct {
	run []T
	err error
}

// PrefetchReader is a RunReader that reads ahead; see Prefetch.
type PrefetchReader[T any] struct {
	inner    RunReader[T]
	ch       chan prefetched[T]
	stop     chan struct{}
	stopOnce sync.Once
	loopDone chan struct{}
	done     bool
}

func (p *PrefetchReader[T]) loop() {
	defer close(p.loopDone)
	defer close(p.ch)
	for {
		run, err := p.inner.NextRun()
		select {
		case p.ch <- prefetched[T]{run: run, err: err}:
			if err != nil {
				return
			}
		case <-p.stop:
			return
		}
	}
}

// NextRun implements RunReader, delivering prefetched runs in order.
func (p *PrefetchReader[T]) NextRun() ([]T, error) {
	// After the stream is exhausted every call sees a plain EOF: the inner
	// reader's own terminal error was already delivered once.
	if p.done {
		return nil, io.EOF
	}
	msg, ok := <-p.ch
	if !ok {
		p.done = true
		return nil, io.EOF
	}
	if msg.err != nil {
		p.done = true
		return nil, msg.err
	}
	return msg.run, nil
}

// Close implements RunReader: it stops the read-ahead goroutine, waits for
// it to finish any in-flight read, and closes the inner reader. Idempotent
// and safe after exhaustion. Close deliberately leaves the consumer-side
// `done` flag alone — it may run on a different goroutine than NextRun, and
// a consumer blocked in NextRun is unblocked by the loop closing the
// channel, which already yields io.EOF.
func (p *PrefetchReader[T]) Close() error {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.loopDone // the loop must not race the inner Close below
	return p.inner.Close()
}

// Count implements RunReader.
func (p *PrefetchReader[T]) Count() int64 { return p.inner.Count() }

// RunLen implements RunReader.
func (p *PrefetchReader[T]) RunLen() int { return p.inner.RunLen() }
