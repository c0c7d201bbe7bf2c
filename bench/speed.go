package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark runs on are shared virtual machines whose
// speed drifts by ±15 % over seconds: a fixed sorting loop runs 120 to 170
// times a second within one minute. Every timing of a run would drift
// with it. A speed probe runs a fixed compute kernel every 20 ms on a
// thread of its own and measures the kernel's thread CPU time, which
// follows the machine's speed but not the fleet's load (a busy second
// core leaves it unchanged). The gated times are scaled by
// probeRef / probe time, that is, expressed at the speed where the
// kernel takes probeRef.

// probeRef is the kernel's CPU time at the reference speed, about what it
// takes on an unloaded core of the 2-vCPU machine the workloads were
// sized on.
const probeRef = 45 * time.Microsecond

const probeEvery = 20 * time.Millisecond

type speedProbe struct {
	stop, done chan struct{}
	mu         sync.Mutex
	at         []time.Time
	took       []time.Duration
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *speedProbe) loop() {
	defer close(p.done)
	// The goroutine keeps its thread so thread CPU time is the kernel's
	// alone; it never unlocks, and the thread ends with it.
	runtime.LockOSThread()
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			c0 := threadCPU()
			probeKernel()
			took := threadCPU() - c0
			p.mu.Lock()
			p.at = append(p.at, time.Now())
			p.took = append(p.took, took)
			p.mu.Unlock()
		}
	}
}

func (p *speedProbe) close() {
	close(p.stop)
	<-p.done
}

// factor is probeRef over the median probe time in [from, to], and the
// number of probes behind it; 1 when no probe fell in the window.
func (p *speedProbe) factor(from, to time.Time) (float64, int) {
	p.mu.Lock()
	var took []time.Duration
	for i, at := range p.at {
		if !at.Before(from) && !at.After(to) {
			took = append(took, p.took[i])
		}
	}
	p.mu.Unlock()
	if len(took) == 0 {
		return 1, 0
	}
	sort.Slice(took, func(a, b int) bool { return took[a] < took[b] })
	return float64(probeRef) / float64(took[len(took)/2]), len(took)
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

var probeSink uint64

// probeKernel is about 20 000 xorshift steps over a 4 KiB array: it stays
// in the first-level cache, so memory traffic from the fleet does not
// slow it.
func probeKernel() {
	x := uint64(88172645463325252)
	var buf [512]uint64
	for r := 0; r < 40; r++ {
		for i := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[i] += x
		}
	}
	probeSink += buf[7]
}
