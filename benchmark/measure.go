package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

// quantile returns the q-quantile of ns (nearest rank on a sorted copy).
func quantile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q * float64(len(s)-1))
	return float64(s[k])
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuNs is the process's user+system CPU time, all threads.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// The host-speed reference. This host is a shared VM whose neighbours slow
// the same binary by tens of percent for minutes at a time: over five sets
// of ten identical runs the medians as measured spread 7–39% between their
// quartiles, all workloads moving together, with no steal time reported
// (README has the table). More or longer runs inside the benchmark's time
// cap do not average that out. So each timed interval is paired with a
// fixed piece of handwritten work timed just before it, and reported as
//
//	wall × √(small.nominal ÷ small.median × large.nominal ÷ large.median)
//
// where each median is over the refWindow latest readings of that part:
// wall time in units of the reference, with the nominal times converting
// back to nanoseconds on a host that runs the parts that fast. The two
// parts are the two ways a neighbour slows a program: a cache-resident
// sweep (six 96×96 arrays) feels lost cycles, a cache-spilling one (six
// 256×256 arrays) feels the shared cache and memory. Neither alone tracked
// every workload; their geometric mean tracked each about as well as the
// better of the two (README has the comparison). Both run on two goroutines
// at once, one hand-off each way per reading. It is this directory's code
// on this directory's data; what the program can still do to it is leave
// concurrent GC work behind an op, which slows the next reading — the run
// prints the factor inside and between passes so that the effect shows.
type hostRef struct {
	small, large refPart
	req          chan *refPart
	ack          chan struct{}
}

// refPart is one handwritten Tomcatv problem, a copy per goroutine.
type refPart struct {
	own, peer refLoop
	sweeps    int     // forward+backward sweeps per reading
	nominal   float64 // ns per reading on this host on a middling day: the unit conversion
	recent    [refWindow]int64
	n         int
}

// refWindow is the number of latest readings whose median is used.
const refWindow = 5

// refLoop is one goroutine's share of a part: the arrays the sweeps touch
// and the saved copies they are restored from.
type refLoop struct {
	o     *tomcatvOracle
	saved [][]float64
	mem   []byte // the mapping that holds them
}

// newRefLoop primes an n×n problem and moves its arrays out of the Go heap
// into mapped memory, so that the reference neither shows in live_heap_mb
// nor changes the GC pacing of the ops it is timed between.
func newRefLoop(n int) (refLoop, error) {
	_, o, err := newTomcatv(n, 1)
	if err != nil {
		return refLoop{}, err
	}
	live := []*[]float64{&o.aa, &o.dd, &o.d, &o.r, &o.rx, &o.ry}
	mem, err := syscall.Mmap(-1, 0, (len(live)+len(forwardArrays))*n*n*8,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return refLoop{}, fmt.Errorf("host reference: mmap: %w", err)
	}
	room := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), len(mem)/8)
	place := func(v []float64) []float64 {
		out := room[:len(v):len(v)]
		room = room[len(v):]
		copy(out, v)
		return out
	}
	for _, v := range live {
		*v = place(*v)
	}
	r := refLoop{o: o, mem: mem}
	for _, name := range forwardArrays {
		r.saved = append(r.saved, place(o.arrays()[name]))
	}
	o.x, o.y = nil, nil // the sweeps do not read the mesh
	return r, nil
}

func (r *refLoop) sweep(times int) {
	for ; times > 0; times-- {
		for i, name := range forwardArrays {
			copy(r.o.arrays()[name], r.saved[i])
		}
		r.o.forward()
		r.o.backward()
	}
}

func newRefPart(n, sweeps int, nominal float64) (refPart, error) {
	own, err := newRefLoop(n)
	if err != nil {
		return refPart{}, err
	}
	peer, err := newRefLoop(n)
	return refPart{own: own, peer: peer, sweeps: sweeps, nominal: nominal}, err
}

// newHostRef starts the reference's second goroutine; stop ends it.
func newHostRef() (*hostRef, error) {
	small, err := newRefPart(96, 2, 400_000)
	if err != nil {
		return nil, err
	}
	large, err := newRefPart(256, 1, 1_150_000)
	if err != nil {
		return nil, err
	}
	h := &hostRef{small: small, large: large, req: make(chan *refPart), ack: make(chan struct{})}
	go func() {
		for p := range h.req {
			p.peer.sweep(p.sweeps)
			h.ack <- struct{}{}
		}
		close(h.ack)
	}()
	return h, nil
}

// stop ends the second goroutine and unmaps the arrays; the reference must
// not be read afterwards.
func (h *hostRef) stop() {
	close(h.req)
	<-h.ack
	for _, l := range []*refLoop{&h.small.own, &h.small.peer, &h.large.own, &h.large.peer} {
		_ = syscall.Munmap(l.mem) // nothing to do about a failed unmap at exit
	}
}

// timePart runs part p once on both goroutines and returns nominal over the
// median of its latest readings.
func (h *hostRef) timePart(p *refPart) float64 {
	t0 := time.Now()
	h.req <- p
	p.own.sweep(p.sweeps)
	<-h.ack
	p.recent[p.n%refWindow] = time.Since(t0).Nanoseconds()
	p.n++
	// Median of the window by insertion sort on a copy: a reading must not
	// allocate, or it would show in the op's allocation counts.
	w := p.recent
	k := p.n
	if k > refWindow {
		k = refWindow
	}
	for i := 1; i < k; i++ {
		for j := i; j > 0 && w[j] < w[j-1]; j-- {
			w[j], w[j-1] = w[j-1], w[j]
		}
	}
	return p.nominal / float64(w[(k-1)/2])
}

// read times both parts once and returns the factor that turns a wall time
// measured now into reference time. A nil reference returns 1: the traced
// run, the layer probes and the self-test report times as measured.
func (h *hostRef) read() float64 {
	if h == nil {
		return 1
	}
	return math.Sqrt(h.timePart(&h.small) * h.timePart(&h.large))
}

// settled fills the windows with fresh readings and returns the factor: for
// an interval, such as a set-up, that has no reading right before it.
func (h *hostRef) settled() float64 {
	f := 1.0
	for i := 0; i < refWindow; i++ {
		f = h.read()
	}
	return f
}

// recorder times the ops of a pass: wall clock and the process's CPU time
// over the same intervals, each scaled by the reference reading taken just
// before the op.
type recorder struct {
	ref    *hostRef
	factor float64 // from the latest calibrate
	t0     time.Time
	cpu0   int64
	raw    []int64 // wall ns of each op as measured
	scaled []int64 // the same in reference ns
	cpu    float64 // Σ reference CPU ns over the recorded ops
}

// calibrate reads the reference, with nothing of the op running.
func (r *recorder) calibrate() { r.factor = r.ref.read() }

// start opens an op's timed interval.
func (r *recorder) start() {
	r.cpu0 = cpuNs()
	r.t0 = time.Now()
}

// begin is calibrate then start, for an op one goroutine issues.
func (r *recorder) begin() {
	r.calibrate()
	r.start()
}

// end closes the interval start opened and records the op.
func (r *recorder) end() {
	d := time.Since(r.t0).Nanoseconds()
	r.cpu += float64(cpuNs()-r.cpu0) * r.factor
	r.raw = append(r.raw, d)
	r.scaled = append(r.scaled, int64(float64(d)*r.factor))
}

// pass is the outcome of one measured phase.
type pass struct {
	samples   []int64 // reference ns of each op, in order
	raw       []int64 // wall ns of each op as measured
	attempted int
	failed    int
	firstErr  error
	cpu       int64 // reference CPU ns spent inside the timed intervals
	mallocs   uint64
	bytes     uint64
	liveHeap  uint64
}

// limit bounds a pass: it stops at the first chunk boundary after budget
// has elapsed or maxOps ops have run, whichever is set and comes first.
type limit struct {
	budget time.Duration
	maxOps int
}

// passHooks run around each chunk, outside the timed interval: before after
// the restore, after between run and verify. Either may be nil.
type passHooks struct {
	before, after func()
}

// runPass is the closed loop: one caller, the next op issued when the
// previous one returns. Around each chunk it restores the inputs before and
// verifies the outputs after, both outside the timed interval. A nil ref
// leaves times as measured.
func runPass(in *instance, ref *hostRef, lim limit, hooks passHooks) pass {
	// Room for every sample up front: growing a slice inside the pass would
	// show in the op's allocation counts.
	room := 1 << 16
	if lim.maxOps > 0 {
		room = lim.maxOps + in.chunk
	}
	rec := &recorder{ref: ref, factor: 1, raw: make([]int64, 0, room), scaled: make([]int64, 0, room)}
	var p pass
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for (lim.budget == 0 || time.Since(start) < lim.budget) && (lim.maxOps == 0 || p.attempted < lim.maxOps) {
		in.restore()
		if hooks.before != nil {
			hooks.before()
		}
		before, cpuBefore := len(rec.raw), rec.cpu
		err := in.run(rec)
		if hooks.after != nil {
			hooks.after()
		}
		if err == nil {
			err = in.verify()
		}
		p.attempted += in.chunk
		if err != nil {
			// An op that errors or mismatches is a failed op; its time is
			// not a sample.
			p.failed += in.chunk
			rec.raw, rec.scaled, rec.cpu = rec.raw[:before], rec.scaled[:before], cpuBefore
			if p.firstErr == nil {
				p.firstErr = err
			}
		}
	}
	p.samples, p.raw, p.cpu = rec.scaled, rec.raw, int64(rec.cpu)
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.liveHeap = m1.HeapAlloc
	return p
}

// throughputParts is the number of equal parts a pass is cut into for the mean-based
// throughput: the median of the parts' means keeps the mean's sensitivity
// to slow ops but not to one stall of the shared host.
const throughputParts = 20

// nsPerPoint is the median over slices of (slice wall ÷ slice points).
func nsPerPoint(samples []int64, points float64) float64 {
	k := throughputParts
	if len(samples) < 2*k {
		k = 1
	}
	var means []float64
	for s := 0; s < k; s++ {
		part := samples[s*len(samples)/k : (s+1)*len(samples)/k]
		var sum int64
		for _, v := range part {
			sum += v
		}
		means = append(means, float64(sum)/(float64(len(part))*points))
	}
	return medianFloat(means)
}

// endToEnd derives the end-to-end metrics of a timed pass.
func endToEnd(p pass, points float64, setupS []float64) []metric {
	ops := float64(len(p.samples))
	n := len(p.samples)
	return []metric{
		{"setup_s", medianFloat(setupS), "s", len(setupS)},
		{"run_p50_us", quantile(p.samples, 0.5) / 1e3, "us", n},
		{"ns_per_point", nsPerPoint(p.samples, points), "ns", n},
		{"cpu_us_per_op", float64(p.cpu) / 1e3 / ops, "us", n},
		{"allocs_per_op", float64(p.mallocs) / ops, "count", n},
		{"bytes_per_op", float64(p.bytes) / ops, "B", n},
		{"live_heap_mb", float64(p.liveHeap) / (1 << 20), "MB", 1},
	}
}

// diagnostics are printed beside the end-to-end metrics but not gated: the
// tails, which on a shared host do not repeat within a tenth, the median as
// measured with the host-speed factor that was applied to it, and the factor
// read around the set-ups, with no op just finished: the two factors differ
// by what the ops themselves do to the reference.
func diagnostics(p pass, idle []float64) []metric {
	n := len(p.samples)
	out := []metric{{"run_p90_us", quantile(p.samples, 0.9) / 1e3, "us", n}}
	if n >= 1000 {
		out = append(out, metric{"run_p99_us", quantile(p.samples, 0.99) / 1e3, "us", n})
	}
	return append(out,
		metric{"run_p50_raw_us", quantile(p.raw, 0.5) / 1e3, "us", n},
		metric{"host_speed_factor", quantile(p.samples, 0.5) / quantile(p.raw, 0.5), "ratio", n},
		metric{"host_speed_factor_idle", medianFloat(idle), "ratio", len(idle)})
}

func printMetrics(workload string, ms []metric) {
	for _, m := range ms {
		fmt.Printf("%s %s %.6g %s n=%d\n", workload, m.name, m.value, m.unit, m.n)
	}
}
