package sqlexec

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// The join algorithm must never change results: every query answered with
// an index join must return exactly the rows the hash join returns. This
// differential corpus runs each query against the same data twice — with
// the right-side indexes, then after DROP INDEX forces the hash path — and
// requires identical results, row order included.

// joinEquivDB builds a small PerfDMF-shaped schema: events (ev), a profile
// table (prof) keyed by event and metric, and a metric table (met) with a
// droppable index on its id. Keys carry NULLs, dangling references and
// duplicates on both sides, and a few deleted rows leave unsorted slot
// lists in the hash indexes.
func joinEquivDB(t *testing.T) *reldb.DB {
	t.Helper()
	db := reldb.NewMemory()
	for _, src := range []string{
		`CREATE TABLE ev (id BIGINT PRIMARY KEY AUTO_INCREMENT, trial BIGINT, name VARCHAR, fid DOUBLE)`,
		`CREATE TABLE prof (ev BIGINT, metric BIGINT, thread BIGINT, excl DOUBLE, dev DOUBLE)`,
		`CREATE TABLE met (id BIGINT, trial BIGINT, name VARCHAR)`,
		`CREATE INDEX ix_prof_ev ON prof (ev)`,
		`CREATE INDEX ix_prof_dev ON prof (dev) USING btree`,
		`CREATE INDEX ix_met_id ON met (id) USING btree`,
		`CREATE INDEX ix_met_name ON met (name)`,
	} {
		run(t, db, src)
	}
	rng := rand.New(rand.NewSource(12))
	orNull := func(v reldb.Value) reldb.Value {
		if rng.Intn(8) == 0 {
			return reldb.Null
		}
		return v
	}
	if err := db.Write(func(tx *reldb.Tx) error {
		for i := 0; i < 24; i++ {
			row := reldb.Row{reldb.Null, orNull(reldb.Int(int64(1 + i%3))), reldb.Str(fmt.Sprintf("r%d", i%7)), reldb.Float(float64(i + 1))}
			if _, err := tx.Insert("ev", row); err != nil {
				return err
			}
		}
		for i := 0; i < 8; i++ {
			// Duplicate ids (two metrics share id 2) and one NULL id.
			id := reldb.Int(int64(1 + i%5))
			if i == 7 {
				id = reldb.Null
			}
			row := reldb.Row{id, reldb.Int(int64(1 + i%3)), reldb.Str([]string{"TIME", "PAPI_FP_INS", "TIME"}[i%3])}
			if _, err := tx.Insert("met", row); err != nil {
				return err
			}
		}
		for i := 0; i < 600; i++ {
			ev := int64(1 + rng.Intn(28)) // some events do not exist
			row := reldb.Row{
				orNull(reldb.Int(ev)),
				orNull(reldb.Int(int64(1 + rng.Intn(6)))),
				reldb.Int(int64(rng.Intn(4))),
				reldb.Float(float64(rng.Intn(100)) / 4),
				orNull(reldb.Float(float64(ev))),
			}
			if _, err := tx.Insert("prof", row); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	run(t, db, `DELETE FROM prof WHERE thread = 3 AND excl < 5`)
	run(t, db, `DELETE FROM met WHERE name = 'PAPI_FP_INS' AND trial = 2`)
	run(t, db, `ANALYZE`)
	return db
}

// joinCase is one corpus query with the join plan it must get while the
// indexes exist (a substring of its EXPLAIN output).
type joinCase struct {
	src     string
	indexed string
}

var joinCorpus = []joinCase{
	// Inner and left joins, the equality either way round.
	{`SELECT e.id, p.thread, p.excl FROM ev e JOIN prof p ON p.ev = e.id`,
		"inner index join prof AS p (probe ix_prof_ev"},
	{`SELECT e.id, p.thread FROM ev e JOIN prof p ON e.id = p.ev`,
		"inner index join prof AS p"},
	{`SELECT e.id, p.excl FROM ev e LEFT JOIN prof p ON p.ev = e.id`,
		"left index join prof AS p"},
	// NULL keys on the left, duplicate keys on both sides, B-tree probe.
	{`SELECT p.ev, p.metric, m.name FROM prof p JOIN met m ON m.id = p.metric`,
		"inner index join met AS m (probe ix_met_id"},
	{`SELECT p.ev, p.metric, m.name FROM prof p LEFT JOIN met m ON m.id = p.metric`,
		"left index join met AS m"},
	// The speedup query's shape: a 3-table chain, grouped.
	{`SELECT e.name, MIN(p.excl), AVG(p.excl), MAX(p.excl), STDDEV(p.excl), COUNT(*)
		FROM ev e JOIN prof p ON p.ev = e.id JOIN met m ON p.metric = m.id
		WHERE e.trial = 1 AND m.name = 'TIME' GROUP BY e.name`,
		"inner index join met AS m"},
	{`SELECT e.id, p.thread, m.name FROM ev e
		LEFT JOIN prof p ON p.ev = e.id LEFT JOIN met m ON m.id = p.metric`,
		"left index join met AS m"},
	// Extra non-equality conjuncts in ON.
	{`SELECT e.id, p.excl FROM ev e JOIN prof p ON p.ev = e.id AND p.excl > 12.5`,
		"inner index join prof AS p"},
	{`SELECT e.id, p.thread FROM ev e LEFT JOIN prof p ON p.ev = e.id AND (p.thread <> e.trial OR p.excl IS NULL)`,
		"left index join prof AS p"},
	// The first equality has no index; the second one does.
	{`SELECT e.id, p.excl FROM ev e JOIN prof p ON p.thread = e.trial AND p.ev = e.id`,
		"inner index join prof AS p (probe ix_prof_ev"},
	// A string key.
	{`SELECT e.id, m.id FROM ev e JOIN met m ON m.name = e.name`,
		"inner index join met AS m (probe ix_met_name"},
	// Same-typed DOUBLE keys probe the B-tree.
	{`SELECT e.id, p.thread FROM ev e JOIN prof p ON p.dev = e.fid`,
		"inner index join prof AS p (probe ix_prof_dev"},
	// INT against DOUBLE: the index exists but the types differ.
	{`SELECT e.id, p.thread FROM ev e JOIN prof p ON p.dev = e.id`,
		"inner hash join prof AS p"},
	{`SELECT e.id, p.thread FROM ev e LEFT JOIN prof p ON p.dev = e.id`,
		"left hash join prof AS p"},
	// Derived-table and catalog right sides, and a derived left side.
	{`SELECT e.id, d.excl FROM ev e JOIN (SELECT ev, excl FROM prof) d ON d.ev = e.id`,
		"inner hash join d (build d"},
	{`SELECT m.id, s.column_name FROM met m JOIN OBS_TABLE_STATS s ON s.ndv = m.id`,
		"inner hash join OBS_TABLE_STATS AS s"},
	{`SELECT d.id, p.excl FROM (SELECT id FROM ev WHERE trial = 2) d JOIN prof p ON p.ev = d.id`,
		"inner hash join prof AS p"},
	// No equality at all.
	{`SELECT e.id, m.id FROM ev e JOIN met m ON m.id < e.trial`,
		"inner nested-loop join met AS m"},
}

func joinRows(t *testing.T, db *reldb.DB, src string) [][]reldb.Value {
	t.Helper()
	rs := run(t, db, src)
	return rs.Rows
}

func TestJoinIndexHashEquivalence(t *testing.T) {
	db := joinEquivDB(t)
	want := make([][][]reldb.Value, len(joinCorpus))
	for i, c := range joinCorpus {
		if plan := explainPlan(t, db, c.src); !hasLine(plan, c.indexed) {
			t.Errorf("%s: plan %v, want %q", c.src, plan, c.indexed)
		}
		want[i] = joinRows(t, db, c.src)
	}
	for _, ix := range []string{"ix_prof_ev ON prof", "ix_prof_dev ON prof", "ix_met_id ON met", "ix_met_name ON met"} {
		run(t, db, "DROP INDEX "+ix)
	}
	nonEmpty := 0
	for i, c := range joinCorpus {
		if plan := explainPlan(t, db, c.src); hasLine(plan, "index join") {
			t.Errorf("%s: index join without an index: %v", c.src, plan)
		}
		got := joinRows(t, db, c.src)
		if !slices.EqualFunc(got, want[i], func(a, b []reldb.Value) bool { return keyOf(a) == keyOf(b) }) {
			t.Errorf("%s:\nindex join %d rows %v\nhash join  %d rows %v", c.src, len(want[i]), want[i], len(got), got)
		}
		if len(got) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(joinCorpus)-2 {
		t.Fatalf("only %d of %d corpus queries return rows; the corpus no longer exercises the joins", nonEmpty, len(joinCorpus))
	}
}

// TestIndexJoinAnalyze: EXPLAIN ANALYZE reports each index join's probes
// and fetched rows, and only fetched rows count as scanned.
func TestIndexJoinAnalyze(t *testing.T) {
	db := fixture(t)
	run(t, db, "CREATE INDEX ix_trial_app ON trial (application)")
	st, err := sqlparse.Parse(`EXPLAIN ANALYZE SELECT a.name, t.name FROM application a
		JOIN trial t ON t.application = a.id WHERE a.id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	if err := db.Read(func(tx *reldb.Tx) error {
		rs, err := ExplainAnalyze(tx, st.(*sqlparse.Explain).Select, nil)
		if err != nil {
			return err
		}
		for _, row := range rs.Rows {
			lines = append(lines, row[0].S)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"inner index join trial AS t (probe ix_trial_app, key cols 0=1)",
		"actual: rows scanned=3, rows returned=2 (index access)",
		"actual: index join trial AS t: probes=1, rows fetched=2",
	} {
		if !hasLine(lines, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, strings.Join(lines, "\n"))
		}
	}
}

// TestKillDuringIndexProbe: a statement killed while an index join probes
// unwinds within cancelCheckRows row iterations, even when one probe
// fetches far more rows than that.
func TestKillDuringIndexProbe(t *testing.T) {
	db := reldb.NewMemory()
	run(t, db, "CREATE TABLE one (k VARCHAR)")
	run(t, db, "INSERT INTO one (k) VALUES ('g'), ('g')")
	run(t, db, "CREATE TABLE fan (k VARCHAR, n BIGINT)")
	run(t, db, "CREATE INDEX ix_fan_k ON fan (k)")
	if err := db.Write(func(tx *reldb.Tx) error {
		for i := 0; i < 4*cancelCheckRows; i++ {
			if _, err := tx.Insert("fan", reldb.Row{reldb.Str("g"), reldb.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	src := `SELECT o.k, f.n FROM one o JOIN fan f ON f.k = o.k AND f.n >= 0`
	sel, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	st := sel.(*sqlparse.Select)
	entry := Statements.Begin(src, "query")
	defer entry.Finish()
	err = db.Read(func(tx *reldb.Tx) error {
		q := &query{tx: tx, st: st, cols: newColmap(), opts: Options{Stmt: entry}}
		if _, err := q.bind(st.From); err != nil {
			return err
		}
		var left []reldb.Row
		tx.Scan("one", func(_ int, r reldb.Row) bool { //nolint:errcheck // created above
			left = append(left, r)
			return true
		})
		if !Statements.Kill(entry.ID()) {
			t.Fatal("Kill did not find the registered statement")
		}
		_, err := q.execJoin(left, st.Joins[0])
		if len(q.indexJoins) != 1 {
			t.Errorf("join ran without an index probe: %+v", q.indexJoins)
		}
		if q.polled > cancelCheckRows {
			t.Errorf("killed join polled %d times before unwinding, want at most %d", q.polled, cancelCheckRows)
		}
		return err
	})
	if !errors.Is(err, ErrStatementKilled) {
		t.Fatalf("killed index join returned %v, want ErrStatementKilled", err)
	}
}
