package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"perfdmf/internal/analysis"
	"perfdmf/internal/core"
	"perfdmf/internal/godbc"
	"perfdmf/internal/obs"
)

// browseKinds is the fixed request mix of the shared browser, in order.
var browseKinds = []string{"MeanSummary", "EventProfile", "TopEvents", "TrialList"}

// topN is how many events a TopEvents request asks for.
const topN = 10

// selectResident points a browse or upload session at the resident
// trial's experiment (uploads land beside it).
func selectResident(s *core.DataSession, fx *fixtures) error {
	if err := selectExperiment(s, "Miranda", "resident"); err != nil {
		return err
	}
	s.SetTrial(&core.Trial{ID: fx.residentID})
	return nil
}

// browseOnce issues browse request k of the mix and checks its result.
// acked is the number of uploads acknowledged before the request was sent;
// one more may commit while it runs.
func browseOnce(l *lane, s *core.DataSession, fx *fixtures, k int, seed int64, acked int) error {
	kind := browseKinds[k%len(browseKinds)]
	var n int
	var want int
	err := l.call(layerOf(kind), kind, func() error {
		switch kind {
		case "MeanSummary":
			rows, err := s.MeanSummary("TIME")
			n, want = len(rows), len(fx.residentEvents)
			return err
		case "EventProfile":
			ev := fx.residentEvents[uint64(seed+int64(k/len(browseKinds)))%uint64(len(fx.residentEvents))]
			rows, err := s.EventProfile(ev, "TIME")
			n, want = len(rows), fx.residentThreads
			return err
		case "TopEvents":
			rows, err := analysis.TopEvents(s, &core.Trial{ID: fx.residentID}, "TIME", topN)
			n, want = len(rows), min(topN, len(fx.residentEvents))
			return err
		default:
			trials, err := s.TrialList()
			// The resident trial plus every acknowledged upload, and at
			// most the one upload in flight.
			n, want = len(trials), min(max(len(trials), 1+acked), 2+acked)
			return err
		}
	})
	if err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	if n != want {
		return fmt.Errorf("%s returned %d rows, want %d", kind, n, want)
	}
	return nil
}

func layerOf(browseKind string) string {
	if browseKind == "TopEvents" {
		return "analysis"
	}
	return "core"
}

// startServeTelemetry starts the `perfdmf serve` telemetry defaults on
// the shared archive: spans persisted under the sampling governor, a flush
// every second and a metric-history scrape every second.
func startServeTelemetry(dsn string) (stop func() error, err error) {
	return godbc.StartTelemetry(dsn, godbc.TelemetryOptions{
		Sink:         obs.SinkOptions{FlushEvery: time.Second},
		HistoryEvery: time.Second,
	})
}

// runShared serves the shared archive for d, with the serve telemetry
// running. One goroutine browses open-loop at BrowseRate; a second
// uploads a trial every UploadEvery, also open-loop. Latencies run from
// each request's due time, so a request queued behind a stall is charged
// for the wait.
func (b *bench) runShared(d time.Duration) error {
	bl, ul := b.newLane(), b.newLane()
	bs, err := b.session(bl, b.fx.browseConn)
	if err == nil {
		err = selectResident(bs, b.fx)
	}
	var us *core.DataSession
	if err == nil {
		us, err = b.session(ul, b.fx.uploadConn)
	}
	if err == nil {
		err = selectResident(us, b.fx)
	}
	if err != nil {
		return err
	}

	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		period := time.Duration(float64(time.Second) / b.cfg.sz.BrowseRate)
		n := int(d / period)
		free := start // when the previous request finished
		for k := 0; k < n; k++ {
			due := start.Add(time.Duration(k) * period)
			time.Sleep(time.Until(due))
			sent := time.Now()
			// Lateness counts only the generator's own slip, not waiting
			// for the previous request, which the latency already charges.
			b.record("generator_late_ms", ms(sent.Sub(maxTime(due, free))), false)
			b.mu.Lock()
			acked := len(b.sharedTrials)
			b.mu.Unlock()
			_, traced, err := b.op(bl, "browse "+browseKinds[k%len(browseKinds)], 1, false, func() error {
				return browseOnce(bl, bs, b.fx, k, b.cfg.seed, acked)
			})
			free = time.Now()
			b.check(err)
			lat := ms(free.Sub(due))
			if err != nil {
				lat = math.Inf(1)
			}
			b.record("browse_ms", lat, traced)
		}
	}()
	go func() {
		defer wg.Done()
		n := int(math.Ceil(float64(d) / float64(b.cfg.sz.UploadEvery)))
		for j := 0; j < n; j++ {
			due := start.Add(time.Duration(j) * b.cfg.sz.UploadEvery)
			time.Sleep(time.Until(due))
			p := b.fx.uploads[j%len(b.fx.uploads)]
			var t *core.Trial
			_, traced, err := b.op(ul, "shared_upload", 1, false, func() error {
				return ul.call("core", "UploadTrial", func() (err error) {
					t, err = us.UploadTrial(p, core.UploadOptions{TrialName: fmt.Sprintf("u%d", j)})
					return err
				})
			})
			b.check(err)
			if err != nil {
				continue
			}
			b.mu.Lock()
			b.sharedTrials = append(b.sharedTrials, t.ID)
			b.mu.Unlock()
			b.record("shared_upload_ms", ms(time.Since(due)), traced)
		}
	}()
	wg.Wait()

	trials, err := bs.TrialList()
	if err == nil && len(trials) != 1+len(b.sharedTrials) {
		err = fmt.Errorf("archive lists %d trials, want the resident one plus %d acknowledged uploads", len(trials), len(b.sharedTrials))
	}
	b.check(err)
	return nil
}

// dropSharedUploads deletes the trials the last shared slice uploaded, so
// every shared slice starts from the same archive: the resident trial
// alone. Were they kept, the archive would grow by one trial a second, and
// the later slices' uploads, and the browse requests waiting behind them,
// would be slower than the earlier ones; a run that completed fewer passes
// on a slow machine would then report faster uploads. It runs between
// slices, untimed and untraced.
func (b *bench) dropSharedUploads() error {
	s, err := core.NewSession(b.fx.uploadConn)
	if err != nil {
		return err
	}
	for _, id := range b.sharedTrials {
		if err := s.DeleteTrial(id); err != nil {
			return fmt.Errorf("delete shared upload %d: %w", id, err)
		}
	}
	b.sharedTrials = nil
	return nil
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
