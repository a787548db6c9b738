// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against PerfDMF's public Go API (formats, core, analysis,
// mining, godbc), checks every result, and prints one JSON line of metrics
// as the last line of its output. See README.md for the workloads, the
// metrics and the layer each one reads.
//
//	perfbench --workload local|served --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// The two workloads. Both run the three activities below for equal
// shares of the measured time, so each reports every end-to-end metric.
// They differ in where the serve telemetry runs: in local, only while the
// shared repository is served, so ingest and analysis run as `perfdmf
// load` and the analysis commands do, with no telemetry; in served, the
// whole process runs under `perfdmf serve`'s telemetry, so the spans of
// every upload and analysis are persisted beside the work itself.
const (
	wlLocal  = "local"
	wlServed = "served"
)

var workloads = []string{wlLocal, wlServed}

// The three activities, in the order each pass runs them.
const (
	actIngest  = "ingest"
	actAnalyze = "analyze"
	actShared  = "shared"
)

var activities = []string{actAnalyze, actShared, actIngest}

// passes sets the slice length: --seconds / (passes × 3 activities),
// about one closed-loop round. Passes, each running every activity for one
// slice, repeat until --seconds is used, so on a slow machine, where rounds
// outlast their slices, fewer complete. The speed of a shared machine
// drifts over seconds; short slices spread every activity's samples evenly
// across the whole region, so one slow stretch does not land on one metric
// alone.
const passes = 8

// sizes are the input sizes of one run. fullSizes is what the benchmark
// measures; the self-test runs smaller ones.
type sizes struct {
	Events int // interval events per Miranda-like trial (the paper's 101)

	IngestThreads int // threads of the ingest trial

	EVH1Procs        []int // the scaling series for the speedup study
	SPPMThreads      int   // the clustered sPPM counter trial
	BystanderThreads int   // Miranda-like trial sitting beside them

	ResidentThreads int           // the trial the shared browser reads
	UploadThreads   int           // threads per trial uploaded in shared
	BrowseRate      float64       // browse requests per second
	UploadEvery     time.Duration // shared upload period

	SetupReps int // set-ups per run; setup_s is their median
}

var fullSizes = sizes{
	Events:           101,
	IngestThreads:    1024,
	EVH1Procs:        []int{1, 2, 4, 8, 16, 32, 64},
	SPPMThreads:      512,
	BystanderThreads: 2048,
	ResidentThreads:  512,
	UploadThreads:    256,
	BrowseRate:       50,
	UploadEvery:      time.Second,
	SetupReps:        3,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // directory holding work/ and out/
	sz       sizes
	log      io.Writer
}

func main() {
	var cfg config
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: local or served")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 40, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 for the traced run (per-layer metrics)")
	fs.StringVar(&cfg.root, "out", ".bench_build/perfbench", "directory for archives, fixtures and traces")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.sz = fullSizes
	cfg.log = os.Stdout
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and returns its report. An error means the
// benchmark itself could not run; wrong results are counted as failures in
// the report instead.
func run(cfg config) (*report, error) {
	if !slices.Contains(workloads, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want local or served)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	work := filepath.Join(cfg.root, "work", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Set-up is repeated in fresh directories, each timed with its steal
	// taken out; the measured region runs on the last one.
	var fx *fixtures
	var setupS []float64
	for i := 0; i < cfg.sz.SetupReps; i++ {
		if fx != nil {
			fx.close()
			if err := os.RemoveAll(fx.dir); err != nil {
				return nil, err
			}
		}
		t0, cpu0 := time.Now(), readCPUClocks()
		var err error
		fx, err = setup(filepath.Join(work, fmt.Sprintf("setup-%d", i)), cfg.seed, cfg.sz)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, unstolen("setup_s", time.Since(t0).Seconds(), receivedShare(cpu0, readCPUClocks())))
	}
	defer fx.close()

	b := newBench(cfg, fx)
	if err := b.runPasses(); err != nil {
		return nil, err
	}

	rep := &report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	out := filepath.Join(cfg.root, "out", fmt.Sprintf("%s-seed%d-trace%v", cfg.workload, cfg.seed, cfg.trace))
	if err := os.RemoveAll(out); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(out, "samples.json"), map[string]any{"untraced": b.samples, "raw": b.raw, "traced": b.traced}); err != nil {
		return nil, err
	}
	if cfg.trace {
		rep.Metrics = b.layerMetrics()
		if err := b.writeTrace(out, rep.Metrics); err != nil {
			return nil, err
		}
	} else {
		rep.Metrics = b.endToEnd()
		rep.Metrics["setup_s"] = metric{median(setupS), "s"}
		rep.Metrics["peak_heap_mb"] = metric{median(b.passPeaks), "MB"}
	}
	b.printSummary(setupS)
	if !rep.Correct {
		for _, f := range b.failures {
			fmt.Fprintln(cfg.log, "FAIL:", f)
		}
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value (%v); the run measured too little", name, m.Value)
		}
	}
	return rep, nil
}

// runPasses runs the measured region: every activity once per pass, each
// for an equal slice, with the serve telemetry on where the workload puts
// it. The registry delta over the region, telemetry start-up and final
// flushes included, is kept for the obs metrics, and the heap sampler
// gives each pass's peak live heap.
func (b *bench) runPasses() error {
	c0 := readCounters()
	b.heap = startHeapSampler()
	err := b.runSlices()
	b.heap.stop()
	b.region = make(counters)
	b.region.addDelta(c0, readCounters())
	return err
}

func (b *bench) runSlices() error {
	served := b.cfg.workload == wlServed
	var stopTel func() error
	stop := func() error {
		if stopTel == nil {
			return nil
		}
		err := stopTel()
		stopTel = nil
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		return nil
	}
	defer stop()
	slice := time.Duration(b.cfg.seconds / float64(passes*len(activities)) * float64(time.Second))
	end := time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	for {
		t0 := time.Now()
		for _, act := range activities {
			if stopTel == nil && (served || act == actShared) {
				var err error
				if stopTel, err = startServeTelemetry(b.fx.sharedDSN); err != nil {
					return err
				}
			}
			if err := b.runActivity(act, slice); err != nil {
				return fmt.Errorf("%s: %w", act, err)
			}
			if act == actShared {
				if err := b.dropSharedUploads(); err != nil {
					return err
				}
			}
			if !served {
				if err := stop(); err != nil {
					return err
				}
			}
		}
		// Each pass's peak heap is one sample. The sampler sees the live
		// heap as the last GC left it, so a pass's peak depends on whether
		// a GC ended while its fullest moment lasted; some passes catch it
		// and others do not, and the largest over the run jumped between
		// about 280 and 340 MB from run to run.
		b.passPeaks = append(b.passPeaks, float64(b.heap.take())/(1<<20))
		if stopAfterRound(t0, end) {
			return stop()
		}
	}
}

// printSummary writes the human-readable lines that precede the JSON
// result: sample counts, the tail percentile, and the runner's GOMAXPROCS.
func (b *bench) printSummary(setupS []float64) {
	w := b.cfg.log
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d GC=on go=%s\n",
		b.cfg.workload, b.cfg.seed, b.cfg.seconds, b.cfg.trace, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(w, "setup: %d reps %s (steal taken out)\n", len(setupS), fmtList(setupS, "s"))
	fmt.Fprintf(w, "steal: %.1f%% of the runnable CPU time of the measured slices (%.1fs of %.1fs) was taken by the hypervisor; medians below leave it out, raw medians include it\n",
		100*(1-receivedShare(cpuClocks{}, b.cpu)), b.cpu.steal.Seconds(), (b.cpu.proc + b.cpu.steal).Seconds())
	for _, k := range sortedKeys(b.samples) {
		fmt.Fprintf(w, "samples %-16s n=%d median=%.4g raw=%.4g\n", k, len(b.samples[k]), median(b.samples[k]), median(b.raw[k]))
	}
	if v, p := tail(b.samples["browse_ms"], tailBeyond); len(b.samples["browse_ms"]) > 0 {
		fmt.Fprintf(w, "browse_tail_ms = %.4g ms at p%.2f of %d samples (%d beyond)\n",
			v, p, len(b.samples["browse_ms"]), tailBeyond)
	}
	fmt.Fprintf(w, "peak live heap per pass: %s\n", fmtList(b.passPeaks, "MB"))
	fmt.Fprintf(w, "operations: attempted=%d failed=%d\n", b.attempted, b.failed)
}

func fmtList(xs []float64, unit string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f%s", x, unit)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
