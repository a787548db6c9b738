package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"

	"perfdmf/internal/core"
	"perfdmf/internal/godbc"
	"perfdmf/internal/obs"
)

// tinySizes keeps a self-test run to a couple of seconds.
var tinySizes = sizes{
	Events:           11,
	IngestThreads:    16,
	EVH1Procs:        []int{1, 2, 4},
	SPPMThreads:      32,
	BystanderThreads: 32,
	ResidentThreads:  16,
	UploadThreads:    8,
	BrowseRate:       200,
	UploadEvery:      50 * time.Millisecond,
	SetupReps:        1,
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyRun(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	rep, err := run(config{
		workload: workload, seed: seed, seconds: 1.5, trace: trace,
		root: t.TempDir(), sz: tinySizes, log: io.Discard,
	})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d",
			workload, trace, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

var legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsEmitDeclaredMetrics runs every declared workload, untraced
// and traced, and checks that each emits exactly the declared metrics with
// their declared units and legal names.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	for _, w := range d.Work {
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			rep := tinyRun(t, w.Name, 1, trace)
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case !legalName.MatchString(m.Name):
					t.Errorf("metric name %q is not legal", m.Name)
				case got.Unit == "" || got.Unit != m.Unit:
					t.Errorf("%s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestSeedChangesInputsNotMetrics checks that two seeds generate different
// inputs and the same set of metrics.
func TestSeedChangesInputsNotMetrics(t *testing.T) {
	fx1, err := setup(t.TempDir(), 1, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	defer fx1.close()
	fx2, err := setup(t.TempDir(), 2, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	defer fx2.close()
	a, err := os.ReadFile(filepath.Join(fx1.ingestDir, "profile.0.0.0"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(fx2.ingestDir, "profile.0.0.0"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(b) {
		t.Error("seeds 1 and 2 wrote the same TAU profile")
	}
	if reflect.DeepEqual(fx1.uploads[0], fx2.uploads[0]) {
		t.Error("seeds 1 and 2 generated the same shared uploads")
	}
	keys := func(r *report) []string {
		var k []string
		for name := range r.Metrics {
			k = append(k, name)
		}
		sort.Strings(k)
		return k
	}
	r1, r2 := tinyRun(t, wlLocal, 1, false), tinyRun(t, wlLocal, 2, false)
	if !reflect.DeepEqual(keys(r1), keys(r2)) {
		t.Errorf("metric sets differ between seeds:\n%v\n%v", keys(r1), keys(r2))
	}
}

// TestWorkloadsDifferInTelemetry checks what separates the two workloads:
// served persists the telemetry of every activity, local only that of the
// shared one.
func TestWorkloadsDifferInTelemetry(t *testing.T) {
	for _, wl := range workloads {
		fx, err := setup(t.TempDir(), 1, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		b := newBench(config{workload: wl, seed: 1, seconds: 1.5, sz: tinySizes, log: io.Discard}, fx)
		err = b.runPasses()
		fx.close()
		if err != nil {
			t.Fatal(err)
		}
		for _, act := range activities {
			offered := spansOffered(b.phases[act].delta)
			if want := wl == wlServed || act == actShared; (offered > 0) != want {
				t.Errorf("%s: %s slices offered %v spans to telemetry, want some: %v", wl, act, offered, want)
			}
		}
	}
}

// TestTrialListCheck checks that the TrialList browse request accepts the
// resident trial plus the acknowledged uploads and at most one in flight,
// and nothing else.
func TestTrialListCheck(t *testing.T) {
	fx, err := setup(t.TempDir(), 1, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	s, err := core.NewSession(fx.browseConn)
	if err == nil {
		err = selectResident(s, fx)
	}
	if err != nil {
		t.Fatal(err)
	}
	k := slices.Index(browseKinds, "TrialList")
	if err := browseOnce(nil, s, fx, k, 1, 0); err != nil {
		t.Errorf("one trial, no uploads acknowledged: %v", err)
	}
	for _, acked := range []int{1, 3} {
		if err := browseOnce(nil, s, fx, k, 1, acked); err == nil {
			t.Errorf("one trial, %d uploads acknowledged: check passed", acked)
		}
	}
	us, err := core.NewSession(fx.uploadConn)
	if err == nil {
		err = selectResident(us, fx)
	}
	if err == nil {
		_, err = us.UploadTrial(fx.uploads[0], core.UploadOptions{TrialName: "in-flight"})
	}
	if err != nil {
		t.Fatal(err)
	}
	for acked, ok := range []bool{true, true, false} {
		if err := browseOnce(nil, s, fx, k, 1, acked); (err == nil) != ok {
			t.Errorf("two trials, %d uploads acknowledged: err = %v", acked, err)
		}
	}
}

// TestTracedConnForwardsOptionalInterfaces checks that the godbc.Conn
// decorator keeps the driver's SpanBinder and TxTrier reachable and records
// statement spans under the lane's current span.
func TestTracedConnForwardsOptionalInterfaces(t *testing.T) {
	const name = "perfbench-decorator-test"
	raw, err := godbc.Open("mem:" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer godbc.DropMemory(name)
	defer raw.Close()
	if _, ok := raw.(godbc.SpanBinder); !ok {
		t.Fatal("mem: connection no longer implements SpanBinder")
	}
	if _, ok := raw.(godbc.TxTrier); !ok {
		t.Fatal("mem: connection no longer implements TxTrier")
	}

	l := &lane{tr: newTracer()}
	var c godbc.Conn = &tracedConn{Conn: raw, l: l}
	binder, ok := c.(godbc.SpanBinder)
	if !ok {
		t.Fatal("tracedConn does not implement godbc.SpanBinder")
	}
	trier, ok := c.(godbc.TxTrier)
	if !ok {
		t.Fatal("tracedConn does not implement godbc.TxTrier")
	}

	l.begin(true)
	err = l.call("core", "Op", func() error {
		if _, err := c.Exec("CREATE TABLE t (x BIGINT)"); err != nil {
			return err
		}
		got, err := trier.TryBegin()
		if err != nil || !got {
			t.Fatalf("TryBegin through the decorator = %v, %v", got, err)
		}
		if _, err := c.Exec("INSERT INTO t (x) VALUES (?)", 1); err != nil {
			return err
		}
		if err := c.Commit(); err != nil {
			return err
		}
		st, err := c.Prepare("SELECT x FROM t")
		if err != nil {
			return err
		}
		defer st.Close()
		rows, err := st.Query()
		if err != nil {
			return err
		}
		defer rows.Close()
		for rows.Next() {
		}
		return rows.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	l.on = false

	// BindSpanContext must reach the driver: statements issued under a
	// bound obs span become its children in the tracer.
	prev := obs.TracingEnabled()
	obs.SetTracing(true)
	defer obs.SetTracing(prev)
	ctx, sp := obs.StartSpan(context.Background(), "test", "bind")
	binder.BindSpanContext(ctx)
	rows, err := c.Query("SELECT x FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()
	binder.BindSpanContext(nil)
	sp.Finish(nil)
	found := false
	for _, s := range obs.DefaultTracer.Recent() {
		if s.ParentID == sp.ID {
			found = true
		}
	}
	if !found {
		t.Error("a statement issued after BindSpanContext was not parented under the bound span")
	}

	names := map[string]int{}
	var root int64
	for _, s := range l.tr.snapshotSpans() {
		names[s.Layer+"."+s.Name]++
		if s.Layer == "core" {
			root = s.ID
		}
	}
	for _, s := range l.tr.snapshotSpans() {
		if s.Layer == "godbc" && s.Parent != root {
			t.Errorf("godbc span %s not parented under the core span", s.Name)
		}
	}
	for _, want := range []string{"godbc.Exec", "godbc.Begin", "godbc.Commit", "godbc.Prepare", "godbc.Query"} {
		if names[want] == 0 {
			t.Errorf("no %s span recorded (got %v)", want, names)
		}
	}
	if l.rows != 1 {
		t.Errorf("rows fetched = %d, want 1", l.rows)
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children, overlapping or not, and its self allocation their bytes.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Layer: "core", Name: "P", Start: 0, End: 10 * ms, Alloc: 100},
		{ID: 2, Parent: 1, Layer: "godbc", Name: "Exec", Start: 1 * ms, End: 4 * ms, Alloc: 10},
		{ID: 3, Parent: 1, Layer: "godbc", Name: "Exec", Start: 3 * ms, End: 5 * ms, Alloc: 20},
		{ID: 4, Parent: 1, Layer: "godbc", Name: "Exec", Start: 8 * ms, End: 12 * ms, Alloc: 30},
	}
	for _, lt := range selfTimes(spans) {
		if lt.Layer == "core" && (lt.Self != 4*ms || lt.SelfAlloc != 40) {
			t.Errorf("core self = %v and %d B, want 4ms and 40 B", lt.Self, lt.SelfAlloc)
		}
		if lt.Layer == "godbc" && (lt.Count != 3 || lt.Self != 9*ms || lt.SelfAlloc != 60) {
			t.Errorf("godbc count=%d self=%v alloc=%d B, want 3, 9ms and 60 B", lt.Count, lt.Self, lt.SelfAlloc)
		}
	}
}

// TestUnstolen checks how a slice's steal is taken out of its samples.
func TestUnstolen(t *testing.T) {
	a := cpuClocks{proc: time.Second, steal: 10 * time.Second}
	b := cpuClocks{proc: 4 * time.Second, steal: 11 * time.Second}
	share := receivedShare(a, b) // 3 s received of 4 s runnable
	if share != 0.75 {
		t.Fatalf("received share = %g, want 0.75", share)
	}
	if s := receivedShare(a, cpuClocks{proc: 2 * time.Second, steal: 10 * time.Second}); s != 1 {
		t.Errorf("share without steal = %g, want 1", s)
	}
	for _, c := range []struct {
		name    string
		v, want float64
	}{
		{"recover_s", 4, 3},
		{"browse_ms", 100, 75},
		{"op_ms upload", 8, 6},
		{"ingest_points_per_s", 300, 400},
		{"disk_bytes_per_point", 76, 76},
		{"browse_ms", math.Inf(1), math.Inf(1)},
	} {
		if got := unstolen(c.name, c.v, share); got != c.want {
			t.Errorf("unstolen(%s, %g) = %g, want %g", c.name, c.v, got, c.want)
		}
	}
}

// TestUnsteal checks which share scales which samples of a slice: the
// slice's own, except for a shared slice's uploads, which take the latest
// closed-loop slice's.
func TestUnsteal(t *testing.T) {
	b := newBench(config{}, nil)
	m := b.mark()
	b.record("recover_s", 1, false)
	b.unsteal(actIngest, m, 0.8)
	m = b.mark()
	b.record("browse_ms", 100, false)
	b.record("shared_upload_ms", 100, false)
	b.record("op_ms shared_upload", 100, true)
	b.unsteal(actShared, m, 0.5)
	for _, c := range []struct {
		got, want float64
	}{
		{b.samples["recover_s"][0], 0.8},
		{b.samples["browse_ms"][0], 50},
		{b.samples["shared_upload_ms"][0], 80},
		{b.traced["op_ms shared_upload"][0], 80},
		{b.raw["shared_upload_ms"][0], 100},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("got %g, want %g", c.got, c.want)
		}
	}
}
