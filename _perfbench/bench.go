package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"perfdmf/internal/analysis"
	"perfdmf/internal/core"
	"perfdmf/internal/godbc"
	"perfdmf/internal/obs"
)

// bench holds one run's samples, failures and (in a traced run) spans and
// counter deltas.
type bench struct {
	cfg config
	fx  *fixtures
	tr  *tracer // nil in an untraced run

	mu           sync.Mutex           // the shared activity records from two goroutines
	samples      map[string][]float64 // untraced samples, steal taken out (steal.go)
	raw          map[string][]float64 // the same samples as measured
	traced       map[string][]float64 // traced run: samples of traced operations
	cpu          cpuClocks            // process CPU time and steal over the slices
	busyShare    float64              // received share of the latest closed-loop slice
	attempted    int
	failed       int
	failures     []string
	flip         map[string]int
	opKind       map[int64]string
	meters       map[string]*meter
	phases       map[string]*phaseStats
	region       counters // registry delta over the whole measured region
	act          string   // the activity running now
	ingestCycles int
	firstStudy   *analysis.SpeedupStudy
	sharedTrials []int64 // uploads the current shared slice acknowledged
	heap         *heapSampler
	passPeaks    []float64        // peak live heap of each pass, MB
	opCount      map[string]int   // traced operations per kind
	opRows       map[string]int64 // rows fetched by traced operations per kind
	actOps       map[string]int   // operations per activity, traced or not
}

func newBench(cfg config, fx *fixtures) *bench {
	b := &bench{
		cfg:       cfg,
		fx:        fx,
		busyShare: 1,
		samples:   make(map[string][]float64),
		raw:       make(map[string][]float64),
		traced:    make(map[string][]float64),
		flip:      make(map[string]int),
		opKind:    make(map[int64]string),
		meters:    make(map[string]*meter),
		phases:    make(map[string]*phaseStats),
		opCount:   make(map[string]int),
		opRows:    make(map[string]int64),
		actOps:    make(map[string]int),
	}
	if cfg.trace {
		b.tr = newTracer()
	}
	return b
}

// newLane returns a lane for one client goroutine (nil when untraced).
func (b *bench) newLane() *lane {
	if b.tr == nil {
		return nil
	}
	return &lane{tr: b.tr}
}

// session wraps conn in a core session. In a traced run the connection is
// decorated first, so every statement the session issues becomes a godbc
// span; untraced runs hand core the bare connection.
func (b *bench) session(l *lane, conn godbc.Conn) (*core.DataSession, error) {
	if l != nil {
		conn = &tracedConn{Conn: conn, l: l}
	}
	return core.NewSession(conn)
}

// op runs n back-to-back user operations of the given kind and returns
// their wall time.
// In a traced run every other operation of a kind is traced (spans plus
// counter deltas) and the rest run plain, so the tracing overhead is the
// difference between the two halves' medians. metered is false for the
// open-loop activity, whose two goroutines share the counters; its layer
// counts come from phase deltas instead.
func (b *bench) op(l *lane, kind string, n int, metered bool, fn func() error) (time.Duration, bool, error) {
	traced := false
	if l != nil {
		b.mu.Lock()
		traced = b.flip[kind]%2 == 0
		b.flip[kind]++
		b.mu.Unlock()
		l.begin(traced)
		if traced {
			b.mu.Lock()
			b.opKind[l.op] = kind
			b.mu.Unlock()
		}
	}
	var m *meter
	if traced && metered {
		m = b.meter(kind)
		m.start()
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if m != nil {
		m.stop()
	}
	b.mu.Lock()
	b.actOps[b.act] += n
	if traced {
		b.opCount[kind] += n
		b.opRows[kind] += l.rows
	}
	b.mu.Unlock()
	if l != nil {
		l.on = false
	}
	b.record("op_ms "+kind, ms(d), traced)
	return d, traced, err
}

// record adds one sample of an end-to-end quantity. Samples of traced
// operations are kept apart: they feed only the tracing-overhead figure.
func (b *bench) record(name string, v float64, traced bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if traced {
		b.traced[name] = append(b.traced[name], v)
		return
	}
	b.samples[name] = append(b.samples[name], v)
	b.raw[name] = append(b.raw[name], v)
}

// sampleMarks holds the length of every sample series at one moment.
type sampleMarks struct{ untraced, traced map[string]int }

func (b *bench) mark() sampleMarks {
	return sampleMarks{lengths(b.samples), lengths(b.traced)}
}

func lengths(m map[string][]float64) map[string]int {
	n := make(map[string]int, len(m))
	for k, xs := range m {
		n[k] = len(xs)
	}
	return n
}

// unsteal scales the samples an activity's slice recorded since m by the
// share of its runnable time the process received: the slice's own share,
// except for the busy operations of a shared slice (see steal.go).
func (b *bench) unsteal(act string, m sampleMarks, share float64) {
	shareOf := func(name string) float64 {
		if act == actShared && busySeries(name) {
			return b.busyShare
		}
		return share
	}
	scaleSince(b.samples, m.untraced, shareOf)
	scaleSince(b.traced, m.traced, shareOf)
	if act != actShared {
		b.busyShare = share
	}
}

func scaleSince(m map[string][]float64, from map[string]int, shareOf func(string) float64) {
	for name, xs := range m {
		for i := from[name]; i < len(xs); i++ {
			xs[i] = unstolen(name, xs[i], shareOf(name))
		}
	}
}

// check counts one attempted operation and, when err is non-nil, one
// failure. A wrong result is reported through err like a failed call.
func (b *bench) check(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, err.Error())
		}
	}
}

// checkAll is check for each of a batch's operations.
func (b *bench) checkAll(errs []error) {
	for _, err := range errs {
		b.check(err)
	}
}

func (b *bench) meter(kind string) *meter {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.meters[kind]
	if m == nil {
		m = &meter{}
		b.meters[kind] = m
	}
	return m
}

// runActivity runs one slice of an activity for about d and adds the
// registry and runtime deltas it caused to the activity's totals. It starts
// from a collected heap, so garbage left by the previous slice does not
// fall on this one's operations, and takes the hypervisor's steal during
// the slice out of the slice's timings.
func (b *bench) runActivity(act string, d time.Duration) error {
	b.act = act
	ps := b.phases[act]
	if ps == nil {
		ps = &phaseStats{delta: make(counters)}
		b.phases[act] = ps
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := readCounters()
	marks, cpu0 := b.mark(), readCPUClocks()
	var err error
	switch act {
	case actIngest:
		err = b.runIngest(d)
	case actAnalyze:
		err = b.runAnalyze(d)
	case actShared:
		err = b.runShared(d)
	}
	cpu1 := readCPUClocks()
	b.unsteal(act, marks, receivedShare(cpu0, cpu1))
	b.cpu.proc += cpu1.proc - cpu0.proc
	b.cpu.steal += cpu1.steal - cpu0.steal
	ps.delta.addDelta(c0, readCounters())
	runtime.ReadMemStats(&ms1)
	ps.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	ps.gcCycles += ms1.NumGC - ms0.NumGC
	ps.gcPauseNS += ms1.PauseTotalNs - ms0.PauseTotalNs
	return err
}

// stopAfterRound reports whether a loop should stop after a round (a
// closed-loop round, or a pass of the measured region) that started at
// t0: when less than half a round's time is left before end. A loop so
// completes at least one round and runs for its nominal time on average.
func stopAfterRound(t0, end time.Time) bool {
	return time.Until(end) < time.Since(t0)/2
}

// counters is a flat copy of the obs registry: counters and gauges by
// name, histograms as name+".count" and name+".sum".
type counters map[string]float64

func readCounters() counters {
	snap := obs.Default.Snapshot()
	c := make(counters, len(snap.Counters)+len(snap.Gauges)+2*len(snap.Histograms))
	for k, v := range snap.Counters {
		c[k] = float64(v)
	}
	for k, v := range snap.Gauges {
		c[k] = float64(v)
	}
	for k, h := range snap.Histograms {
		c[k+".count"] = float64(h.Count)
		c[k+".sum"] = float64(h.Sum)
	}
	return c
}

// addDelta accumulates after-before into c.
func (c counters) addDelta(before, after counters) {
	for k, v := range after {
		c[k] += v - before[k]
	}
}

// meter accumulates registry deltas over the traced operations of one
// kind.
type meter struct {
	points int
	c0     counters
	delta  counters
	gauges counters // registry values after the last operation
}

func (m *meter) start() { m.c0 = readCounters() }

func (m *meter) stop() {
	c1 := readCounters()
	if m.delta == nil {
		m.delta = make(counters)
	}
	m.delta.addDelta(m.c0, c1)
	m.gauges = c1
}

// phaseStats totals an activity's slices: registry deltas, heap
// allocation and GC work.
type phaseStats struct {
	delta      counters
	allocBytes uint64
	gcCycles   uint32
	gcPauseNS  uint64
}

// heapSampler records the peak live heap: the heap bytes the most recent
// GC found reachable, sampled every few milliseconds. Unlike heap in use,
// it does not depend on where in a GC cycle the sample falls.
type heapSampler struct {
	peak   atomic.Uint64 // largest live heap since the last take
	stopCh chan struct{}
	done   chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
			}
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak in bytes since the previous take and starts the
// next one.
func (h *heapSampler) take() uint64 { return h.peak.Swap(0) }

// stop ends sampling and waits for the sampler to exit.
func (h *heapSampler) stop() {
	close(h.stopCh)
	<-h.done
}
