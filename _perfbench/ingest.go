package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"perfdmf/internal/core"
	"perfdmf/internal/formats"
	"perfdmf/internal/godbc"
	"perfdmf/internal/model"
)

// runIngest runs archive cycles for about d, at least one. A cycle
// parses the TAU fixture and uploads it into a fresh file: archive, copies
// the archive directory recoverCopies times while it is still open and
// reopens each copy (WAL replay, as after a kill) and closes it (a
// checkpoint), then closes the original (a checkpoint), reopens it from
// its snapshot and closes it again (one more). Every reopened archive must
// hold exactly the acknowledged trial.
func (b *bench) runIngest(d time.Duration) error {
	l := b.newLane()
	end := time.Now().Add(d)
	for {
		t0 := time.Now()
		b.ingestCycles++
		if err := b.ingestCycle(l, b.ingestCycles); err != nil {
			return err
		}
		if stopAfterRound(t0, end) {
			return nil
		}
	}
}

// recoverCopies is how many copies of the live archive a cycle recovers:
// one recovery sample each, so recover_s has as many samples as the
// upload-bound cycles allow.
const recoverCopies = 3

// ackedTrial is an upload the archive acknowledged.
type ackedTrial struct {
	name string
	rows int
}

func (b *bench) ingestCycle(l *lane, cycle int) error {
	dir := filepath.Join(b.fx.dir, fmt.Sprintf("ingest-%d", cycle))
	defer os.RemoveAll(dir)

	conn, err := godbc.Open("file:" + dir)
	if err != nil {
		return err
	}
	s, err := b.session(l, conn)
	if err == nil {
		err = selectExperiment(s, "Miranda", "ingest")
	}
	if err != nil {
		conn.Close()
		return err
	}
	var acked []ackedTrial
	name := fmt.Sprintf("cycle-%d", cycle)
	dur, traced, err := b.op(l, "upload", 1, true, func() error {
		var p *model.Profile
		err := l.call("formats", "Load", func() (err error) {
			p, err = formats.Load("tau", b.fx.ingestDir)
			return err
		})
		if err != nil {
			return err
		}
		if p.DataPoints() != b.fx.ingestPoints {
			return fmt.Errorf("parsed %d points, want %d", p.DataPoints(), b.fx.ingestPoints)
		}
		return l.call("core", "UploadTrial", func() error {
			_, err := s.UploadTrial(p, core.UploadOptions{TrialName: name})
			return err
		})
	})
	b.check(err)
	if err == nil {
		if traced {
			b.meter("upload").points += b.fx.ingestPoints
		}
		acked = append(acked, ackedTrial{name, b.fx.ingestPoints})
		b.record("ingest_points_per_s", float64(b.fx.ingestPoints)/dur.Seconds(), traced)
	}

	// Copy the open archive and recover each copy from its WAL.
	copies := make([]string, recoverCopies)
	for i := range copies {
		copies[i] = fmt.Sprintf("%s-copy%d", dir, i)
		defer os.RemoveAll(copies[i])
		if err := copyFiles(dir, copies[i]); err != nil {
			s.Close()
			return err
		}
	}
	for _, copyDir := range copies {
		var cs *core.DataSession
		dur, traced, err = b.op(l, "recover", 1, true, func() (err error) {
			cs, err = b.verifyArchive(l, copyDir, acked)
			return err
		})
		b.check(err)
		b.record("recover_s", dur.Seconds(), traced)
		if cs != nil {
			// Closing a recovered copy checkpoints the same state the
			// original holds: one more checkpoint sample.
			b.checkpoint(l, cs)
		}
	}
	if !b.checkpoint(l, s) {
		return nil
	}
	if len(acked) > 0 {
		bytes, err := dirBytes(dir)
		if err != nil {
			return err
		}
		b.record("disk_bytes_per_point", float64(bytes)/float64(b.fx.ingestPoints), false)
	}

	var rs *core.DataSession
	_, _, err = b.op(l, "reopen", 1, true, func() (err error) {
		rs, err = b.verifyArchive(l, dir, acked)
		return err
	})
	b.check(err)
	if rs != nil {
		// Closing the reopened original checkpoints the same state once
		// more.
		b.checkpoint(l, rs)
	}
	return nil
}

// checkpoint closes s, which checkpoints its archive, as one timed
// operation, and reports whether the close succeeded.
func (b *bench) checkpoint(l *lane, s *core.DataSession) bool {
	dur, traced, err := b.op(l, "checkpoint", 1, true, func() error {
		return l.call("core", "Close", s.Close)
	})
	b.check(err)
	if err == nil {
		b.record("checkpoint_s", dur.Seconds(), traced)
	}
	return err == nil
}

// verifyArchive opens the archive in dir and checks that it holds
// exactly the acked trials with their row counts. The caller closes the
// returned session, outside the timed operation: closing checkpoints.
func (b *bench) verifyArchive(l *lane, dir string, acked []ackedTrial) (*core.DataSession, error) {
	var conn godbc.Conn
	err := l.call("godbc", "Open", func() (err error) {
		conn, err = godbc.Open("file:" + dir)
		return err
	})
	if err != nil {
		return nil, err
	}
	s, err := b.session(l, conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	err = l.call("bench", "Verify", func() error {
		counts, err := trialRowCounts(s.Conn())
		if err != nil {
			return err
		}
		if len(counts) != len(acked) {
			return fmt.Errorf("%s holds %d trials, want the %d acknowledged", filepath.Base(dir), len(counts), len(acked))
		}
		for _, a := range acked {
			if counts[a.name] != a.rows {
				return fmt.Errorf("%s: trial %s has %d rows, want %d", filepath.Base(dir), a.name, counts[a.name], a.rows)
			}
		}
		return nil
	})
	return s, err
}

// trialRowCounts returns the INTERVAL_LOCATION_PROFILE row count of every
// trial by name, from three single-table queries.
func trialRowCounts(c godbc.Conn) (map[string]int, error) {
	names := make(map[int64]string)
	eventTrial := make(map[int64]int64)
	counts := make(map[string]int)
	steps := []struct {
		sql  string
		scan func(a, b int64, s string)
	}{
		{"SELECT id, 0, name FROM trial", func(id, _ int64, name string) { names[id], counts[name] = name, 0 }},
		{"SELECT id, trial, '' FROM interval_event", func(ev, trial int64, _ string) { eventTrial[ev] = trial }},
		{"SELECT interval_event, COUNT(*), '' FROM interval_location_profile GROUP BY interval_event",
			func(ev, n int64, _ string) { counts[names[eventTrial[ev]]] += int(n) }},
	}
	for _, st := range steps {
		rows, err := c.Query(st.sql)
		if err != nil {
			return nil, err
		}
		for rows.Next() {
			var a, b int64
			var s string
			if err := rows.Scan(&a, &b, &s); err != nil {
				rows.Close()
				return nil, err
			}
			st.scan(a, b, s)
		}
		err = rows.Err()
		rows.Close()
		if err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// copyFiles copies the regular files of src into a new directory dst.
func copyFiles(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
