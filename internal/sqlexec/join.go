package sqlexec

import (
	"fmt"
	"slices"

	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// joinAlgo is the algorithm planJoin picked for one join step.
type joinAlgo uint8

const (
	joinNestedLoop joinAlgo = iota // no usable equality: every pair is tested
	joinHash                       // scan and hash the right side, probe per left row
	joinIndex                      // probe the right table's index per left row
)

// joinPlan is planJoin's decision for one join step. leftPos indexes the
// accumulated row, rightPos the new table's row; table and index are the
// right table and the index probed on it (index joins only).
type joinPlan struct {
	algo              joinAlgo
	leftPos, rightPos int
	table             *reldb.Table
	index             *reldb.Index
}

// planJoin chooses the algorithm for joining the already-bound columns
// (positions below leftWidth) with the table just bound after them. It is
// shared by the executor and EXPLAIN, so the plan EXPLAIN prints is the
// one that runs.
//
// An equality between a left column and a right column is the join key.
// The index join is chosen whenever the right side is a base table with a
// single-column index on its key column and both key columns share a
// declared type; otherwise any key gives a hash join and no key a nested
// loop. There is no row-count threshold: per left row an index probe costs
// the same map lookup as a hash probe, and the index join skips scanning
// and hashing the right table. Requiring one declared type keeps the
// probe's candidates exactly the hash table's: index keys and hash keys
// are both the stored values, which differ across types (INT 1 is not
// DOUBLE 1.0), so a mixed-type key takes the hash path as before.
func planJoin(tx *reldb.Tx, cols *colmap, leftWidth int, join sqlparse.Join) joinPlan {
	keys := joinKeys(cols, leftWidth, join.On)
	if len(keys) == 0 {
		return joinPlan{algo: joinNestedLoop}
	}
	if join.Sub == nil && !virtualRef(join.TableRef) {
		if tbl, err := tx.Table(join.Table); err == nil {
			schema := tbl.Schema()
			for _, k := range keys {
				if cols.types[k[0]] != schema.Columns[k[1]].Type {
					continue
				}
				if ix := tx.EqIndex(join.Table, schema.Columns[k[1]].Name); ix != nil {
					return joinPlan{algo: joinIndex, leftPos: k[0], rightPos: k[1], table: tbl, index: ix}
				}
			}
		}
	}
	return joinPlan{algo: joinHash, leftPos: keys[0][0], rightPos: keys[0][1]}
}

// joinKeys returns the ON clause's top-level equalities between a left
// column and a right column, in clause order, as (leftPos, rightPos)
// pairs: leftPos resolves inside the already-bound prefix, rightPos inside
// the newly-bound table.
func joinKeys(cols *colmap, leftWidth int, on sqlparse.Expr) [][2]int {
	var keys [][2]int
	for _, c := range splitAnd(on) {
		b, isBin := c.(*sqlparse.Binary)
		if !isBin || b.Op != sqlparse.OpEq {
			continue
		}
		lc, lok := b.L.(*sqlparse.ColRef)
		rc, rok := b.R.(*sqlparse.ColRef)
		if !lok || !rok {
			continue
		}
		lp, lerr := cols.resolve(lc)
		rp, rerr := cols.resolve(rc)
		if lerr != nil || rerr != nil {
			continue
		}
		switch {
		case lp < leftWidth && rp >= leftWidth:
			keys = append(keys, [2]int{lp, rp - leftWidth})
		case rp < leftWidth && lp >= leftWidth:
			keys = append(keys, [2]int{rp, lp - leftWidth})
		}
	}
	return keys
}

// describe renders the plan as EXPLAIN's join line.
func (jp joinPlan) describe(join sqlparse.Join) string {
	kind := "inner"
	if join.Kind == sqlparse.LeftJoin {
		kind = "left"
	}
	switch jp.algo {
	case joinIndex:
		return fmt.Sprintf("%s index join %s (probe %s, key cols %d=%d)",
			kind, describeRef(join.TableRef), jp.index.Name, jp.leftPos, jp.rightPos)
	case joinHash:
		return fmt.Sprintf("%s hash join %s (build %s, key cols %d=%d)",
			kind, describeRef(join.TableRef), join.Table, jp.leftPos, jp.rightPos)
	}
	return fmt.Sprintf("%s nested-loop join %s", kind, describeRef(join.TableRef))
}

// indexJoinStat is one executed index join's work, reported by EXPLAIN
// ANALYZE: probes made and right-side rows fetched.
type indexJoinStat struct {
	ref             string
	probes, fetched int64
}

// execJoin joins the accumulated rows with one more table using the
// algorithm planJoin picks. Every path evaluates the complete ON expression
// on each candidate pair, skips NULL keys, pads unmatched left rows with
// NULLs for LEFT JOIN, and polls for cancellation per left row and per
// candidate. A base table's rows are visited in slot order by both the
// index and the hash join, so the two return the same rows in the same
// order.
func (q *query) execJoin(rows []reldb.Row, join sqlparse.Join) ([]reldb.Row, error) {
	leftWidth := q.cols.width
	derived, err := q.bind(join.TableRef)
	if err != nil {
		return nil, err
	}
	width := q.cols.width
	jp := planJoin(q.tx, q.cols, leftWidth, join)

	// candidates calls fn with every right row that may match left row l.
	var candidates func(l reldb.Row, fn func(r reldb.Row) error) error
	switch jp.algo {
	case joinIndex:
		mIndexJoins.Inc()
		st := &indexJoinStat{ref: describeRef(join.TableRef)}
		candidates = func(l reldb.Row, fn func(r reldb.Row) error) error {
			key := keyAt(l, jp.leftPos)
			if key.IsNull() {
				return nil
			}
			slots := jp.index.Lookup(key)
			st.probes++
			if !slices.IsSorted(slots) {
				slots = slices.Clone(slots)
				slices.Sort(slots)
			}
			for _, slot := range slots {
				r := jp.table.RowAt(slot)
				if r == nil {
					continue
				}
				st.fetched++
				// A B-tree matches by Compare; keep only the rows a hash
				// table keyed on the stored value would hold.
				if r[jp.rightPos] != key {
					continue
				}
				if err := fn(r); err != nil {
					return err
				}
			}
			return nil
		}
		defer func() {
			q.scanned += st.fetched
			q.indexJoins = append(q.indexJoins, *st)
		}()
	default:
		rightRows := derived
		if join.Sub == nil && !virtualRef(join.TableRef) {
			var scanErr error
			q.tx.Scan(join.Table, func(_ int, row reldb.Row) bool { //nolint:errcheck // table verified by bind
				if scanErr = q.pollEvery(); scanErr != nil {
					return false
				}
				rightRows = append(rightRows, row)
				return true
			})
			if scanErr != nil {
				return nil, scanErr
			}
		}
		q.scanned += int64(len(rightRows))
		if jp.algo == joinNestedLoop {
			candidates = func(_ reldb.Row, fn func(r reldb.Row) error) error {
				for _, r := range rightRows {
					if err := fn(r); err != nil {
						return err
					}
				}
				return nil
			}
		} else {
			mHashJoins.Inc()
			ht := make(map[reldb.Value][]reldb.Row, len(rightRows))
			for _, r := range rightRows {
				if err := q.pollEvery(); err != nil {
					return nil, err
				}
				if k := r[jp.rightPos]; !k.IsNull() {
					ht[k] = append(ht[k], r)
				}
			}
			candidates = func(l reldb.Row, fn func(r reldb.Row) error) error {
				key := keyAt(l, jp.leftPos)
				if key.IsNull() {
					return nil
				}
				for _, r := range ht[key] {
					if err := fn(r); err != nil {
						return err
					}
				}
				return nil
			}
		}
	}

	// ON is evaluated against one scratch row reused for every candidate;
	// only emitted rows are allocated.
	scratch := make(reldb.Row, width)
	ev := &env{cols: q.cols, params: q.params, tx: q.tx, row: scratch}
	var result []reldb.Row
	matched := false
	visit := func(r reldb.Row) error {
		if err := q.pollEvery(); err != nil {
			return err
		}
		clear(scratch[leftWidth+copy(scratch[leftWidth:], r):])
		if join.On != nil {
			v, err := eval(join.On, ev)
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
		}
		matched = true
		result = append(result, slices.Clone(scratch))
		return nil
	}
	for _, l := range rows {
		if err := q.pollEvery(); err != nil {
			return nil, err
		}
		clear(scratch[copy(scratch[:leftWidth], l):leftWidth])
		matched = false
		if err := candidates(l, visit); err != nil {
			return nil, err
		}
		if !matched && join.Kind == sqlparse.LeftJoin {
			padded := make(reldb.Row, width)
			copy(padded, l)
			result = append(result, padded)
		}
	}
	return result, nil
}

// keyAt returns l's join key, NULL when l is too short to hold it.
func keyAt(l reldb.Row, pos int) reldb.Value {
	if pos < len(l) {
		return l[pos]
	}
	return reldb.Null
}
