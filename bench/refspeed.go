package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"syscall"
	"time"
)

// Reference speed. On this sandbox the CPU time one request costs moves by
// up to 1.6x from one minute to the next with what the host's other
// tenants do to the shared caches and memory (README.md, "Measured
// spreads"): requests per second follow it, the processor's busy share
// does not. So beside the load the harness times a fixed reference
// computation every refEvery, and the two gated timings are reported at
// reference speed: rate ÷ speed, latency × speed, where speed is how fast
// the reference ran during the measured window relative to its nominal
// time (1 = this box on a median minute). The reference is four small kernels, one
// per thing a server's time goes to — arithmetic in the L1/L2 cache,
// dependent loads inside the last-level cache, dependent loads from DRAM,
// and system calls — and speed is the geometric mean of the four ratios.

const (
	refKernels = 4
	refReps    = 3 // each kernel's time is the fastest of refReps runs

	arithWords = 1 << 15 // 256 KB of uint64
	arithSteps = 50000
	smallBytes = 4 << 20 // fits the last-level cache
	smallHops  = 4000
	largeBytes = 64 << 20 // does not
	largeHops  = 1500
	refCalls   = 200
	cacheLine  = 64
)

// refNominal is what each kernel took on this sandbox in the median run
// of the sweeps that sized the bounds, so that speed is about 1 there and
// a figure at reference speed reads like a raw one. The values only fix
// the scale, not the spread.
var refNominal = [refKernels]time.Duration{176 * time.Microsecond, 510 * time.Microsecond, 365 * time.Microsecond, 27200 * time.Nanosecond}

// chase is a pointer chase over one random cycle through a buffer, one
// 4-byte link per cache line, so every hop is a dependent load of a new
// line.
type chase struct {
	links []byte
	at    uint32
	hops  int
}

// newChase lays a single cycle (Sattolo's shuffle, fixed seed) over buf.
func newChase(buf []byte, hops int) chase {
	n := len(buf) / cacheLine
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, to := range perm {
		binary.LittleEndian.PutUint32(buf[i*cacheLine:], to*cacheLine)
	}
	return chase{links: buf, hops: hops}
}

func (c *chase) run() uint64 {
	at := c.at
	for i := 0; i < c.hops; i++ {
		at = binary.LittleEndian.Uint32(c.links[at:])
	}
	c.at = at
	return uint64(at)
}

// reference holds the kernels' memory. The chase buffers are mapped
// outside the Go heap: inside it they would raise the live heap ninefold
// and so stretch the program's garbage-collection cycle.
type reference struct {
	mem          []byte
	small, large chase
	arith        []uint64
	sink         uint64 // keeps the kernels' results live
}

func newReference() (*reference, error) {
	mem, err := syscall.Mmap(-1, 0, smallBytes+largeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference kernels' memory: %w", err)
	}
	return &reference{
		mem:   mem,
		small: newChase(mem[:smallBytes], smallHops),
		large: newChase(mem[smallBytes:], largeHops),
		arith: make([]uint64, arithWords),
	}, nil
}

func (r *reference) close() error { return syscall.Munmap(r.mem) }

func (r *reference) runArith() uint64 {
	x := uint64(88172645463325252)
	var s uint64
	for i := 0; i < arithSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		at := x & (arithWords - 1)
		r.arith[at] += x
		s += r.arith[(at*31)&(arithWords-1)]
	}
	return s
}

func runCalls() uint64 {
	var s uint64
	for i := 0; i < refCalls; i++ {
		s += uint64(syscall.Getppid())
	}
	return s
}

// refSample is one timing of the four kernels, at relative to the load's
// base time.
type refSample struct {
	at time.Duration
	d  [refKernels]time.Duration
}

func (r *reference) sample(base time.Time) refSample {
	var s refSample
	for k, kernel := range [refKernels]func() uint64{r.runArith, r.small.run, r.large.run, runCalls} {
		s.d[k] = time.Hour
		for rep := 0; rep < refReps; rep++ {
			start := time.Now()
			r.sink += kernel()
			s.d[k] = min(s.d[k], time.Since(start))
		}
	}
	s.at = time.Since(base)
	return s
}

// watch samples the reference every interval until done is closed.
func (r *reference) watch(base time.Time, every time.Duration, done <-chan struct{}) []refSample {
	var out []refSample
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return out
		case <-tick.C:
			out = append(out, r.sample(base))
		}
	}
}

// refSpeed is the machine's speed over the phase's legs: the geometric
// mean, over the kernels, of nominal time ÷ median sampled time.
func refSpeed(samples []refSample, p phase) (float64, error) {
	var in [refKernels][]float64
	for _, s := range samples {
		for _, l := range p {
			if s.at >= l.from.at && s.at < l.to.at {
				for k, d := range s.d {
					in[k] = append(in[k], float64(d))
				}
				break
			}
		}
	}
	if len(in[0]) == 0 {
		return 0, fmt.Errorf("no reference sample fell inside the measured window")
	}
	var logSum float64
	for k := range in {
		logSum += math.Log(float64(refNominal[k]) / median(in[k]))
	}
	return math.Exp(logSum / refKernels), nil
}
