// Package simnet simulates the coarse-grained parallel machine of the
// paper's Section 3: p processors with private memory, connected by a
// virtual crossbar, under a two-level cost model — local computation costs
// α per unit, a message costs a startup overhead τ plus 1/μ-rate transfer
// (the paper writes the transfer term as μ per word). The model "closely
// models the interconnection network on the IBM SP-2 on which we present
// our experimental results" (paper, Section 3); since that machine is long
// gone, this simulator stands in for it: the parallel tables report the
// model's times, not wall-clock times on real hardware.
//
// Programs run SPMD: Machine.Run launches one goroutine per processor, and
// each Proc carries a private simulated clock. Sends and receives move
// real data between goroutines while advancing the clocks per the cost
// model, so algorithms are executed for real (results are checked by
// tests) while their reported times are the model's. The parallel time of
// a run is the maximum clock over processors.
//
// internal/parallel runs the paper's global merge algorithms (bitonic
// merge-split and PSRS-style sample merge) directly on Proc, and this
// machine supplies their cost accounting.
package simnet

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// CostModel is the two-level model's three constants.
type CostModel struct {
	// Alpha is the cost of one unit of local computation (one comparison /
	// element move).
	Alpha time.Duration
	// Tau is the fixed startup overhead of one message.
	Tau time.Duration
	// Mu is the per-word (per-element) transfer cost of a message.
	Mu time.Duration
}

// DefaultCostModel is calibrated to mid-1990s MPP constants in the spirit
// of the SP-2: ~100ns per local comparison/move (a ~66 MHz-era RISC
// pipeline with cache misses), ~40µs message startup, ~0.25µs per 8-byte
// word (~32 MB/s point-to-point). Together with runio.DefaultDiskModel
// (8 MB/s per-node disk) this reproduces the paper's Table 11/12 balance:
// per element, I/O costs ~1µs and sampling ~log₂(s)·α ≈ 1µs at the paper's
// s = 1024, so I/O lands at ≈50% of total time.
func DefaultCostModel() CostModel {
	return CostModel{
		Alpha: 100 * time.Nanosecond,
		Tau:   40 * time.Microsecond,
		Mu:    250 * time.Nanosecond,
	}
}

// Machine is a p-processor virtual-crossbar machine.
type Machine struct {
	p     int
	model CostModel
	// chans[from][to] carries timestamped messages; buffered so symmetric
	// exchange patterns (both partners send, then both receive) cannot
	// deadlock.
	chans [][]chan message
	bar   *barrier
	procs []*Proc
	// abort releases processors blocked in Send/Recv when a peer fails
	// (the barrier has its own abort); closed at most once.
	abort    chan struct{}
	failOnce sync.Once
}

// fail releases every blocked primitive after a processor panicked or
// returned an error: peers otherwise deadlock waiting for messages or
// barrier arrivals that will never come.
func (m *Machine) fail() {
	m.failOnce.Do(func() { close(m.abort) })
	m.bar.abort()
}

type message struct {
	payload any
	arrival time.Duration // simulated time at which the message is available
}

// NewMachine builds a machine of p processors under the given cost model.
func NewMachine(p int, model CostModel) (*Machine, error) {
	if p < 1 {
		return nil, fmt.Errorf("simnet: need at least one processor, got %d", p)
	}
	m := &Machine{p: p, model: model, bar: newBarrier(p), abort: make(chan struct{})}
	m.chans = make([][]chan message, p)
	for i := range m.chans {
		m.chans[i] = make([]chan message, p)
		for j := range m.chans[i] {
			m.chans[i][j] = make(chan message, 64)
		}
	}
	return m, nil
}

// P returns the processor count.
func (m *Machine) P() int { return m.p }

// Run executes f as an SPMD program: one goroutine per processor. It
// returns the first error any processor produced (the others still run to
// completion). After Run, per-processor clocks are available via Clocks.
func (m *Machine) Run(f func(p *Proc) error) error {
	m.procs = make([]*Proc, m.p)
	errs := make([]error, m.p)
	var wg sync.WaitGroup
	for i := 0; i < m.p; i++ {
		m.procs[i] = &Proc{id: i, m: m}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("simnet: processor %d panicked: %v", i, r)
					m.fail()
				}
			}()
			errs[i] = f(m.procs[i])
			if errs[i] != nil {
				// A processor that exits with an error never sends the
				// messages or reaches the barriers its peers wait on;
				// release them.
				m.fail()
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Clocks returns each processor's final simulated clock.
func (m *Machine) Clocks() []time.Duration {
	out := make([]time.Duration, m.p)
	for i, p := range m.procs {
		if p != nil {
			out[i] = p.clock
		}
	}
	return out
}

// MaxClock returns the parallel execution time: the maximum processor
// clock after Run.
func (m *Machine) MaxClock() time.Duration {
	max := time.Duration(0)
	for _, c := range m.Clocks() {
		if c > max {
			max = c
		}
	}
	return max
}

// Proc is one simulated processor: an SPMD rank with a private clock.
type Proc struct {
	id    int
	m     *Machine
	clock time.Duration
}

// ID returns the processor rank in [0, P).
func (p *Proc) ID() int { return p.id }

// P returns the machine's processor count.
func (p *Proc) P() int { return p.m.p }

// Clock returns the processor's current simulated time.
func (p *Proc) Clock() time.Duration { return p.clock }

// Compute advances the clock by units of local work (α each).
func (p *Proc) Compute(units int64) {
	if units > 0 {
		p.clock += time.Duration(units) * p.m.model.Alpha
	}
}

// Charge advances the clock by an externally modeled duration (e.g. the
// runio DiskModel's I/O time).
func (p *Proc) Charge(d time.Duration) {
	if d > 0 {
		p.clock += d
	}
}

// Send transmits payload (words elements) to processor to. The sender is
// busy for τ + words·μ; the message becomes visible to the receiver at the
// sender's post-send clock.
func (p *Proc) Send(to int, words int64, payload any) error {
	if to < 0 || to >= p.m.p {
		return fmt.Errorf("simnet: send to rank %d of %d", to, p.m.p)
	}
	if to == p.id {
		return fmt.Errorf("simnet: self-send on rank %d", p.id)
	}
	cost := p.m.model.Tau + time.Duration(words)*p.m.model.Mu
	p.clock += cost
	select {
	case p.m.chans[p.id][to] <- message{payload: payload, arrival: p.clock}:
		return nil
	case <-p.m.abort:
		return errors.New("simnet: send aborted (peer failed)")
	}
}

// Recv blocks for the next message from processor from and advances the
// clock to the message's arrival time if that is later.
func (p *Proc) Recv(from int) (any, error) {
	if from < 0 || from >= p.m.p {
		return nil, fmt.Errorf("simnet: recv from rank %d of %d", from, p.m.p)
	}
	if from == p.id {
		return nil, fmt.Errorf("simnet: self-recv on rank %d", p.id)
	}
	var msg message
	select {
	case msg = <-p.m.chans[from][p.id]:
	case <-p.m.abort:
		// Prefer a message that raced with the abort so a completed send
		// is not misreported; the machine is failing either way.
		select {
		case msg = <-p.m.chans[from][p.id]:
		default:
			return nil, errors.New("simnet: receive aborted (peer failed)")
		}
	}
	if msg.arrival > p.clock {
		p.clock = msg.arrival
	}
	return msg.payload, nil
}

// Exchange sends payload to partner and receives the partner's payload —
// the compare-exchange primitive of the bitonic network. Both transfers
// overlap (full-duplex crossbar), so each side pays one τ + words·μ.
func (p *Proc) Exchange(partner int, words int64, payload any) (any, error) {
	if err := p.Send(partner, words, payload); err != nil {
		return nil, err
	}
	return p.Recv(partner)
}

// Barrier synchronizes all processors: every clock advances to the global
// maximum, plus a τ·⌈log₂ p⌉ combining-tree overhead.
func (p *Proc) Barrier() error {
	max, err := p.m.bar.wait(p.clock)
	if err != nil {
		return err
	}
	p.clock = max
	if p.m.p > 1 {
		p.clock += time.Duration(ceilLog2(p.m.p)) * p.m.model.Tau
	}
	return nil
}

// AllGather collects every rank's payload (words elements each) into a
// slice indexed by rank, visible to all ranks. Modeled as a gather to rank
// 0 plus broadcast down a binomial tree: 2·⌈log₂ p⌉ message rounds.
func (p *Proc) AllGather(words int64, payload any) ([]any, error) {
	if p.m.p == 1 {
		return []any{payload}, nil
	}
	// Simple, deterministic implementation: everyone sends to rank 0, rank
	// 0 re-broadcasts the full vector. Costs are charged per the model on
	// each edge; the tree depth surcharge is folded into the barrier below.
	if p.id != 0 {
		if err := p.Send(0, words, payload); err != nil {
			return nil, err
		}
		v, err := p.Recv(0)
		if err != nil {
			return nil, err
		}
		return v.([]any), nil
	}
	all := make([]any, p.m.p)
	all[0] = payload
	for r := 1; r < p.m.p; r++ {
		v, err := p.Recv(r)
		if err != nil {
			return nil, err
		}
		all[r] = v
	}
	for r := 1; r < p.m.p; r++ {
		if err := p.Send(r, words*int64(p.m.p), all); err != nil {
			return nil, err
		}
	}
	return all, nil
}

// barrier is a reusable max-combining barrier.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	p       int
	count   int
	gen     int
	max     time.Duration
	result  time.Duration
	aborted bool
}

func newBarrier(p int) *barrier {
	b := &barrier{p: p}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all p processors have arrived and returns the maximum
// submitted clock.
func (b *barrier) wait(clock time.Duration) (time.Duration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return 0, errAborted
	}
	if clock > b.max {
		b.max = clock
	}
	b.count++
	gen := b.gen
	if b.count == b.p {
		b.result = b.max
		b.max = 0
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return b.result, nil
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
	// Only a barrier whose own generation never completed was aborted; a
	// generation that finished before the abort landed succeeded for real.
	if gen == b.gen && b.aborted {
		return 0, errAborted
	}
	return b.result, nil
}

// errAborted reports a barrier released because a peer panicked or
// returned an error before arriving.
var errAborted = errors.New("simnet: barrier aborted (peer failed)")

// abort releases all waiters with an error; called when a peer panics so
// Run does not deadlock.
func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// ceilLog2 returns ⌈log₂ n⌉ for n ≥ 1.
func ceilLog2(n int) int {
	l, v := 0, 1
	for v < n {
		v <<= 1
		l++
	}
	return l
}
