package main

import (
	"fmt"
	"reflect"
	"time"

	"perfdmf/internal/analysis"
	"perfdmf/internal/core"
	"perfdmf/internal/mining"
)

// runAnalyze cycles one client through the three read-only analyses for
// about d, completing at least one round: the EVH1 speedup study, sPPM
// feature extraction plus k-means, and a full reload of the sPPM trial.
func (b *bench) runAnalyze(d time.Duration) error {
	l := b.newLane()
	s, err := b.session(l, b.fx.analyzeConn)
	if err != nil {
		return err
	}
	end := time.Now().Add(d)
	for {
		t0 := time.Now()
		var study *analysis.SpeedupStudy
		dur, traced, err := b.op(l, "speedup", 1, true, func() error {
			return l.call("analysis", "Speedup", func() (err error) {
				study, err = analysis.Speedup(s, b.fx.evh1, "TIME")
				return err
			})
		})
		if err == nil {
			if b.firstStudy == nil {
				b.firstStudy = study
			} else if !reflect.DeepEqual(study, b.firstStudy) {
				err = fmt.Errorf("speedup study differs from the first one")
			}
		}
		b.check(err)
		b.record("speedup_study_ms", ms(dur), traced)

		// The two short operations are timed in batches: one sample is
		// the mean over a batch of back-to-back runs, so a sample spans a
		// whole GC cycle rather than falling inside or outside one.
		errs := make([]error, 0, extractBatch)
		dur, traced, _ = b.op(l, "extract", extractBatch, true, func() error {
			for i := 0; i < extractBatch; i++ {
				cr, err := extractCluster(l, s, b.fx.sppmID)
				if err == nil {
					if a := cr.agreement(b.fx.sppmTruth); a != 1 {
						err = fmt.Errorf("k-means agrees with the planted classes on %.1f%% of ranks, want 100%%", 100*a)
					}
				}
				errs = append(errs, err)
			}
			return nil
		})
		b.checkAll(errs)
		b.record("extract_cluster_ms", ms(dur)/extractBatch, traced)

		errs = errs[:0]
		dur, traced, _ = b.op(l, "reload", reloadBatch, true, func() error {
			for i := 0; i < reloadBatch; i++ {
				err := l.call("core", "LoadTrial", func() error {
					p, err := s.LoadTrial(b.fx.sppmID)
					if err == nil && p.DataPoints() != b.fx.sppmPoints {
						err = fmt.Errorf("reload returned %d points, want %d", p.DataPoints(), b.fx.sppmPoints)
					}
					return err
				})
				errs = append(errs, err)
			}
			return nil
		})
		b.checkAll(errs)
		if traced {
			b.meter("reload").points += reloadBatch * b.fx.sppmPoints
		}
		b.record("reload_points_per_s", reloadBatch*float64(b.fx.sppmPoints)/dur.Seconds(), traced)

		if stopAfterRound(t0, end) {
			return nil
		}
	}
}

// extractCluster is the PerfExplorer step the analyze activity times:
// feature extraction over every metric, z-score normalisation and k-means
// with the planted class count.
func extractCluster(l *lane, s *core.DataSession, trialID int64) (*clusterResult, error) {
	var fm *mining.FeatureMatrix
	err := l.call("mining", "ExtractFeatures", func() (err error) {
		fm, err = mining.ExtractFeatures(s, trialID, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	l.call("mining", "Normalize", func() error {
		fm.Normalize(mining.NormZScore)
		return nil
	})
	var cl *mining.Clustering
	err = l.call("mining", "KMeans", func() (err error) {
		cl, err = mining.KMeans(fm.Rows, mining.KMeansConfig{K: 3, Seed: 17})
		return err
	})
	if err != nil {
		return nil, err
	}
	return &clusterResult{fm: fm, cl: cl}, nil
}

// How many extract or reload operations one sample times: batches of
// about 300 and 500 ms, several GC cycles each.
const (
	extractBatch = 10
	reloadBatch  = 15
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
