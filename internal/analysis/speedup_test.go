package analysis

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"perfdmf/internal/core"
	"perfdmf/internal/obs"
	"perfdmf/internal/synth"
)

// twoQuerySpeedup computes the study the way it was computed before the
// wall time joined the grouped query: TrialRoutineStats, then a separate
// MAX(p.inclusive) statement per trial.
func twoQuerySpeedup(t *testing.T, s *core.DataSession, trials []*core.Trial, metric string) *SpeedupStudy {
	t.Helper()
	ordered := append([]*core.Trial(nil), trials...)
	sort.Slice(ordered, func(i, j int) bool { return trialProcs(ordered[i]) < trialProcs(ordered[j]) })
	perTrial := make([]map[string]RoutineStats, len(ordered))
	appTime := make([]float64, len(ordered))
	for i, tr := range ordered {
		stats, err := TrialRoutineStats(s, tr.ID, metric)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := s.Conn().Query(`
			SELECT MAX(p.inclusive)
			FROM interval_event e
			JOIN interval_location_profile p ON p.interval_event = e.id
			JOIN metric m ON p.metric = m.id
			WHERE e.trial = ? AND m.name = ?`, tr.ID, metric)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("trial %d: no wall time row", tr.ID)
		}
		if err := rows.Scan(&appTime[i]); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		perTrial[i] = stats
	}
	return buildStudy(metric, ordered, perTrial, appTime)
}

func TestSpeedupMatchesTwoQueryPath(t *testing.T) {
	s, trials := scalingArchive(t, []int{1, 2, 4, 8, 16, 32})
	study, err := Speedup(s, trials, "TIME")
	if err != nil {
		t.Fatal(err)
	}
	if want := twoQuerySpeedup(t, s, trials, "TIME"); !reflect.DeepEqual(study, want) {
		t.Fatalf("one-query study differs from the two-query one:\n got %+v\nwant %+v", study, want)
	}
}

// TestSpeedupOneStatementPerTrial: the study issues one statement per
// trial, 7 on the 7-trial EVH1 series.
func TestSpeedupOneStatementPerTrial(t *testing.T) {
	s, trials := scalingArchive(t, []int{1, 2, 4, 8, 16, 32, 64})
	queries := obs.Default.Counter("godbc_query_total")
	before := queries.Value()
	if _, err := Speedup(s, trials, "TIME"); err != nil {
		t.Fatal(err)
	}
	if got := queries.Value() - before; got != 7 {
		t.Fatalf("speedup study issued %d queries, want 7", got)
	}
}

// TestTrialRoutineStatsArchiveIndependent: the per-trial statistics query
// reads the same rows whether or not a large bystander trial shares the
// archive. The count is deterministic; a join that scans the whole
// profile table reads every bystander row.
func TestTrialRoutineStatsArchiveIndependent(t *testing.T) {
	s, trials := scalingArchive(t, []int{16})
	alone := statsRowsScanned(t, s, trials[0].ID)
	if _, err := s.UploadTrial(synth.LargeTrial(synth.LargeTrialConfig{Threads: 1024, Events: 12, Seed: 3}), core.UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if beside := statsRowsScanned(t, s, trials[0].ID); beside != alone {
		t.Fatalf("rows scanned: %d alone, %d beside a 1024-thread trial", alone, beside)
	}
}

// statsRowsScanned runs the per-trial statistics query under EXPLAIN
// ANALYZE and returns the rows it scanned.
func statsRowsScanned(t *testing.T, s *core.DataSession, trialID int64) int64 {
	t.Helper()
	rows, err := s.Conn().Query("EXPLAIN ANALYZE "+trialStatsSQL, trialID, "TIME")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	const prefix = "actual: rows scanned="
	var plan []string
	for rows.Next() {
		var line string
		if err := rows.Scan(&line); err != nil {
			t.Fatal(err)
		}
		plan = append(plan, line)
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.ParseInt(rest[:strings.IndexByte(rest, ',')], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no %q line in plan: %v", prefix, plan)
	return 0
}
