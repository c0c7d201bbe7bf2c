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
// The wrapped reader must not be used directly afterwards. Close-like
// cleanup is automatic: the goroutine exits after delivering io.EOF or an
// error, or when Stop is called.
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
	if p.done {
		return nil, errDone(p)
	}
	msg, ok := <-p.ch
	if !ok {
		p.done = true
		return nil, errDone(p)
	}
	if msg.err != nil {
		p.done = true
		return nil, msg.err
	}
	return msg.run, nil
}

// errDone returns the terminal error after the stream is exhausted: the
// inner reader's own terminal error was already delivered once, so any
// further call sees a plain EOF.
func errDone[T any](p *PrefetchReader[T]) error {
	return io.EOF
}

// Recycle implements Recycler by forwarding run to the wrapped reader, if
// it recycles. The read-ahead goroutine calls that reader's NextRun while
// consumers recycle, which Recycler allows.
func (p *PrefetchReader[T]) Recycle(run []T) {
	if rc, ok := p.inner.(Recycler[T]); ok {
		rc.Recycle(run)
	}
}

// Stop cancels the prefetcher early (e.g. when the consumer abandons the
// scan); safe to call multiple times and after exhaustion. Stop does not
// release the inner reader — use Close for that.
func (p *PrefetchReader[T]) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
}

// Close implements RunReader: it stops the read-ahead goroutine, waits for
// it to finish any in-flight read, and closes the inner reader. Idempotent
// and safe after exhaustion. Close deliberately leaves the consumer-side
// `done` flag alone — it may run on a different goroutine than NextRun, and
// a consumer blocked in NextRun is unblocked by the loop closing the
// channel, which already yields io.EOF.
func (p *PrefetchReader[T]) Close() error {
	p.Stop()
	<-p.loopDone // the loop must not race the inner Close below
	return p.inner.Close()
}

// Count implements RunReader.
func (p *PrefetchReader[T]) Count() int64 { return p.inner.Count() }

// RunLen implements RunReader.
func (p *PrefetchReader[T]) RunLen() int { return p.inner.RunLen() }
