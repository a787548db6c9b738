package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"perfdmf/internal/core"
	"perfdmf/internal/godbc"
	"perfdmf/internal/model"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailBeyond = 10

// endToEnd returns the untraced metrics (setup_s and peak_heap_mb are
// added by run). A failed browse request was recorded with infinite
// latency; should one land on a reported percentile it is reported as
// failedLatencyMS.
func (b *bench) endToEnd() map[string]metric {
	med := func(key string) float64 { return median(b.samples[key]) }
	browseTail, _ := tail(b.samples["browse_ms"], tailBeyond)
	return map[string]metric{
		"ingest_points_per_s":  {med("ingest_points_per_s"), "points/s"},
		"disk_bytes_per_point": {med("disk_bytes_per_point"), "B/point"},
		"checkpoint_s":         {med("checkpoint_s"), "s"},
		"recover_s":            {med("recover_s"), "s"},
		"speedup_study_ms":     {med("speedup_study_ms"), "ms"},
		"extract_cluster_ms":   {med("extract_cluster_ms"), "ms"},
		"reload_points_per_s":  {med("reload_points_per_s"), "points/s"},
		"browse_p50_ms":        {finiteMS(med("browse_ms")), "ms"},
		"browse_tail_ms":       {finiteMS(browseTail), "ms"},
		"shared_upload_ms":     {med("shared_upload_ms"), "ms"},
	}
}

// failedLatencyMS stands for the latency of a failed request, which
// misses any limit; JSON has no infinity.
const failedLatencyMS = 1e9

func finiteMS(v float64) float64 {
	if math.IsInf(v, 1) {
		return failedLatencyMS
	}
	return v
}

// kindOf maps an operation kind to the group the layer metrics use: the
// four browse request kinds form one group.
func kindOf(kind string) string {
	if strings.HasPrefix(kind, "browse ") {
		return "browse"
	}
	return kind
}

// spanIndex groups the traced spans by operation kind.
type spanIndex map[string][]span

func (b *bench) spanIndex() spanIndex {
	idx := make(spanIndex)
	for _, s := range b.tr.snapshotSpans() {
		k := kindOf(b.opKind[s.Op])
		idx[k] = append(idx[k], s)
	}
	return idx
}

// layer sums the layerTimes of kinds' spans in one layer; name "" takes
// every name of the layer.
func (idx spanIndex) layer(layer, name string, kinds ...string) layerTime {
	var sum layerTime
	for _, k := range kinds {
		for _, lt := range selfTimes(idx[k]) {
			if lt.Layer != layer || (name != "" && lt.Name != name) {
				continue
			}
			sum.Count += lt.Count
			sum.Total += lt.Total
			sum.Self += lt.Self
			sum.Alloc += lt.Alloc
			sum.SelfAlloc += lt.SelfAlloc
		}
	}
	return sum
}

// tracedOps counts the traced operations of the given kind groups.
func (b *bench) tracedOps(kinds ...string) float64 {
	n := 0
	for _, k := range kinds {
		for kind, c := range b.opCount {
			if kindOf(kind) == k {
				n += c
			}
		}
	}
	return float64(n)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetrics assembles the per-layer metrics of a traced run. Each is a
// mean per traced operation of the activity that owns it, or a total over
// that activity's slices (see README.md).
func (b *bench) layerMetrics() map[string]metric {
	idx := b.spanIndex()
	opN := b.tracedOps
	meterOf := func(kind string) *meter {
		if m := b.meters[kind]; m != nil {
			return m
		}
		return &meter{delta: counters{}, gauges: counters{}}
	}
	up, rec, chk, reo := meterOf("upload"), meterOf("recover"), meterOf("checkpoint"), meterOf("reopen")
	nUp, nRel := opN("upload"), opN("reload")
	nSpeed, nExt, nBrowse := opN("speedup"), opN("extract"), opN("browse")
	upPoints := float64(up.points)

	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	put("formats.load_ms", div(msOf(idx.layer("formats", "Load", "upload").Self), nUp), "ms")
	put("formats.alloc_bytes_per_point", div(float64(idx.layer("formats", "Load", "upload").Alloc), upPoints), "B/point")

	upCore := idx.layer("core", "UploadTrial", "upload")
	put("core.upload_self_ms", div(msOf(upCore.Self), nUp), "ms")
	put("core.upload_stmts_per_trial", div(float64(idx.layer("godbc", "", "upload").Count), nUp), "count")
	put("core.upload_alloc_bytes_per_point", div(float64(upCore.Alloc), upPoints), "B/point")
	put("core.reload_self_ms", div(msOf(idx.layer("core", "LoadTrial", "reload").Self), nRel), "ms")
	put("core.reload_stmts_per_trial", div(float64(idx.layer("godbc", "", "reload").Count), nRel), "count")
	put("core.browse_self_ms", div(msOf(idx.layer("core", "", "browse").Self), nBrowse), "ms")

	// godbc: exec and commit per traced upload (ingest), queries and rows
	// per traced browse request (shared), plan-cache hits over the shared
	// slices.
	put("godbc.exec_calls", div(float64(idx.layer("godbc", "Exec", "upload").Count), nUp), "count")
	put("godbc.prepare_calls", div(float64(idx.layer("godbc", "Prepare", "upload").Count), nUp), "count")
	put("godbc.exec_ms", div(msOf(idx.layer("godbc", "Exec", "upload").Total), nUp), "ms")
	put("godbc.commit_ms", div(msOf(idx.layer("godbc", "Commit", "upload").Total), nUp), "ms")
	put("godbc.query_calls", div(float64(idx.layer("godbc", "Query", "browse").Count), nBrowse), "count")
	put("godbc.query_ms", div(msOf(idx.layer("godbc", "Query", "browse").Total), nBrowse), "ms")
	var rows int64
	for kind, r := range b.opRows {
		if kindOf(kind) == "browse" {
			rows += r
		}
	}
	put("godbc.rows_fetched", div(float64(rows), nBrowse), "count")
	sh := counters{}
	if p := b.phases[actShared]; p != nil {
		sh = p.delta
	}
	hits, misses := sh["sqlexec_plan_cache_hits_total"], sh["sqlexec_plan_cache_misses_total"]
	put("godbc.plan_cache_hit_ratio", div(hits, hits+misses), "ratio")

	// sqlexec: per traced analysis operation (analyze).
	an := counters{}
	for _, k := range []string{"speedup", "extract", "reload"} {
		an.addDelta(counters{}, meterOf(k).delta)
	}
	nAn := opN("speedup", "extract", "reload")
	put("sqlexec.rows_scanned_per_row_returned", div(an["sqlexec_rows_scanned_total"], an["sqlexec_rows_returned_total"]), "ratio")
	put("sqlexec.full_scans", div(an["sqlexec_full_scan_total"], nAn), "count")
	put("sqlexec.index_accesses", div(an["sqlexec_index_access_total"], nAn), "count")
	put("sqlexec.columnar_scans", div(an["sqlexec_columnar_scans_total"], nAn), "count")
	put("sqlexec.columnar_fallbacks", div(an["sqlexec_columnar_fallbacks_total"], nAn), "count")
	put("sqlexec.parallel_scans", div(an["sqlexec_parallel_scans_total"], nAn), "count")

	put("reldb.rows_inserted_per_point", div(up.delta["reldb_rows_inserted_total"], upPoints), "ratio")
	put("reldb.wal_bytes_per_point", div(up.delta["reldb_wal_bytes_total"], upPoints), "B/point")
	put("reldb.wal_appends", div(up.delta["reldb_wal_appends_total"], nUp), "count")
	put("reldb.wal_append_ms", div(up.delta["reldb_wal_append_ns.sum"]/1e6, nUp), "ms")
	put("reldb.checkpoint_ms", div(chk.delta["reldb_checkpoint_ns.sum"]/1e6, chk.delta["reldb_checkpoint_ns.count"]), "ms")
	put("reldb.snapshot_bytes", chk.gauges["reldb_snapshot_bytes"], "B")
	put("reldb.snapshot_load_ms", div(reo.delta["reldb_snapshot_load_ns.sum"]/1e6, reo.delta["reldb_snapshot_load_ns.count"]), "ms")
	put("reldb.wal_replay_ops", div(rec.delta["reldb_wal_replay_ops_total"], opN("recover")), "count")

	put("reldb.lock_wait_ms", sh["reldb_lock_wait_ns.sum"]/1e6, "ms")
	put("reldb.try_begin_misses", sh["reldb_tx_try_begin_misses_total"], "count")
	put("reldb.segment_builds", sh["reldb_segment_builds_total"], "count")
	put("reldb.segment_invalidations", sh["reldb_segment_invalidations_total"], "count")

	put("analysis.speedup_self_ms", div(msOf(idx.layer("analysis", "Speedup", "speedup").Self), nSpeed), "ms")
	put("analysis.speedup_stmts_per_study", div(float64(idx.layer("godbc", "", "speedup").Count), nSpeed), "count")
	put("mining.extract_self_ms", div(msOf(idx.layer("mining", "ExtractFeatures", "extract").Self), nExt), "ms")
	put("mining.extract_stmts", div(float64(idx.layer("godbc", "", "extract").Count), nExt), "count")
	put("mining.kmeans_ms", div(msOf(idx.layer("mining", "KMeans", "extract").Total), nExt), "ms")

	// obs: the whole measured region, so served counts the telemetry of
	// every activity and local that of the shared slices.
	rg := b.region
	offered, stored := spansOffered(rg), rg["obs_telemetry_stored_total"]
	put("obs.telemetry_offered", offered, "count")
	put("obs.telemetry_stored", stored, "count")
	put("obs.telemetry_stored_ratio", div(stored, offered), "ratio")
	put("obs.telemetry_dropped", rg["obs_telemetry_dropped_total"], "count")
	put("obs.writer_stalls", rg["obs_telemetry_writer_stalls_total"], "count")
	put("obs.group_commit_ms", div(rg["obs_telemetry_group_commit_ns.sum"]/1e6, rg["obs_telemetry_group_commit_ns.count"]), "ms")

	// go: the whole measured region.
	var all phaseStats
	ops := 0
	for act, ph := range b.phases {
		all.allocBytes += ph.allocBytes
		all.gcCycles += ph.gcCycles
		all.gcPauseNS += ph.gcPauseNS
		ops += b.actOps[act]
	}
	put("go.alloc_bytes_per_op", div(float64(all.allocBytes), float64(ops)), "B/op")
	put("go.gc_cycles", float64(all.gcCycles), "count")
	put("go.gc_pause_ms", float64(all.gcPauseNS)/1e6, "ms")

	late, _ := tail(b.samples["generator_late_ms"], tailBeyond)
	if math.IsNaN(late) {
		late = 0
	}
	put("bench.generator_late_ms", late, "ms")
	traced := 0
	for _, c := range b.opCount {
		traced += c
	}
	put("bench.traced_ops", float64(traced), "count")
	put("bench.trace_overhead_pct", b.traceOverheadPct(), "%")
	put("bench.steal_pct", 100*(1-receivedShare(cpuClocks{}, b.cpu)), "%")
	return out
}

// spansOffered counts the spans handed to the telemetry sink: the
// registry's offered counter holds only those the governor admitted into
// the buffer.
func spansOffered(c counters) float64 {
	return c["obs_telemetry_offered_total"] + c["obs_telemetry_sampled_out_total"] + c["obs_telemetry_dropped_total"]
}

// traceOverheadPct compares median service times, traced against
// untraced, summed over every operation kind.
func (b *bench) traceOverheadPct() float64 {
	var on, off float64
	for _, key := range sortedKeys(b.samples) {
		if strings.HasPrefix(key, "op_ms ") && len(b.traced[key]) > 0 {
			on += median(b.traced[key])
			off += median(b.samples[key])
		}
	}
	return 100 * (div(on, off) - 1)
}

// writeTrace writes the traced run's spans, its per-layer self times and
// the same breakdown as a PerfDMF trial in core.ExportArchive's format:
// each (operation kind, layer call) is an interval event whose TIME
// (microseconds) and ALLOC_BYTES are per traced operation of that kind, so
// `perfdmf restore` plus `perfdmf regress` compare two runs of any length.
func (b *bench) writeTrace(dir string, layers map[string]metric) error {
	spans := b.tr.snapshotSpans()
	type spanOut struct {
		span
		Kind string
	}
	so := make([]spanOut, len(spans))
	for i, s := range spans {
		so[i] = spanOut{s, b.opKind[s.Op]}
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), so); err != nil {
		return err
	}
	idx := b.spanIndex()
	var kinds []string
	for k := range idx {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	p := model.New(fmt.Sprintf("perfbench-%s-seed%d", b.cfg.workload, b.cfg.seed))
	p.Meta["workload"] = b.cfg.workload
	p.Meta["seed"] = fmt.Sprint(b.cfg.seed)
	p.Meta["seconds"] = fmt.Sprint(b.cfg.seconds)
	for _, name := range sortedKeys(layers) {
		p.Meta["metric."+name] = fmt.Sprintf("%g %s", layers[name].Value, layers[name].Unit)
	}
	timeM, allocM := p.AddMetric("TIME"), p.AddMetric("ALLOC_BYTES")
	th := p.Thread(0, 0, 0)
	type row struct {
		Kind string
		layerTime
	}
	var table []row
	for _, k := range kinds {
		n := b.tracedOps(k)
		if n == 0 {
			continue
		}
		for _, lt := range selfTimes(idx[k]) {
			ev := p.AddIntervalEvent(fmt.Sprintf("%s: %s.%s", k, lt.Layer, lt.Name), lt.Layer)
			d := th.IntervalData(ev.ID, 2)
			d.NumCalls = float64(lt.Count) / n
			d.PerMetric[timeM] = model.MetricData{
				Inclusive: float64(lt.Total) / float64(time.Microsecond) / n,
				Exclusive: float64(lt.Self) / float64(time.Microsecond) / n,
			}
			d.PerMetric[allocM] = model.MetricData{Inclusive: float64(lt.Alloc) / n, Exclusive: float64(lt.SelfAlloc) / n}
			table = append(table, row{k, lt})
		}
	}
	if err := writeJSON(filepath.Join(dir, "layers.json"), map[string]any{"self_times": table, "metrics": layers}); err != nil {
		return err
	}
	return exportTrial(p, filepath.Join(dir, "trial"))
}

// exportTrial stores p in a throwaway in-memory archive and exports it to
// dir with core.ExportArchive.
func exportTrial(p *model.Profile, dir string) (err error) {
	name := fmt.Sprintf("perfbench-export-%d", os.Getpid())
	s, err := core.Open("mem:" + name)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		godbc.DropMemory(name)
	}()
	if err := selectExperiment(s, "perfbench", p.Meta["workload"]); err != nil {
		return err
	}
	if _, err := s.UploadTrial(p, core.UploadOptions{}); err != nil {
		return err
	}
	s.SetApplication(nil)
	s.SetExperiment(nil)
	_, err = core.ExportArchive(s, dir)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
