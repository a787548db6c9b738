package main

import (
	"fmt"
	"path/filepath"

	"perfdmf/internal/core"
	"perfdmf/internal/formats/tau"
	"perfdmf/internal/godbc"
	"perfdmf/internal/mining"
	"perfdmf/internal/model"
	"perfdmf/internal/synth"
)

// fixtures are the inputs and archives one run measures, all generated
// from the seed during set-up.
type fixtures struct {
	dir string

	// ingest: the TAU profile directory of a Miranda-like trial.
	ingestDir    string
	ingestPoints int

	// analyze: a file: archive holding the EVH1 scaling series, one sPPM
	// counter trial and a Miranda-like bystander.
	analyzeConn godbc.Conn
	evh1        []*core.Trial
	sppmID      int64
	sppmPoints  int
	sppmTruth   []int // planted class per rank (node)

	// shared: a file: archive with one resident trial that the browser
	// reads, two connections, and the trials the uploader sends.
	sharedDSN       string
	browseConn      godbc.Conn
	uploadConn      godbc.Conn
	residentID      int64
	residentThreads int
	residentEvents  []int64
	uploads         []*model.Profile
}

func (fx *fixtures) close() {
	for _, c := range []godbc.Conn{fx.analyzeConn, fx.browseConn, fx.uploadConn} {
		if c != nil {
			c.Close()
		}
	}
	fx.analyzeConn, fx.browseConn, fx.uploadConn = nil, nil, nil
}

// setup writes every fixture under dir and builds the analyze and shared
// archives, leaving their connections open for the measured region.
func setup(dir string, seed int64, sz sizes) (fx *fixtures, err error) {
	fx = &fixtures{dir: dir}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()

	p := synth.LargeTrial(synth.LargeTrialConfig{
		Threads: sz.IngestThreads, Events: sz.Events, Metrics: 1, Seed: seed})
	fx.ingestDir, fx.ingestPoints = filepath.Join(dir, "tau"), p.DataPoints()
	if err := tau.Write(fx.ingestDir, p); err != nil {
		return nil, err
	}

	if err := fx.buildAnalyze(filepath.Join(dir, "analyze"), seed, sz); err != nil {
		return nil, fmt.Errorf("analyze archive: %w", err)
	}
	if err := fx.buildShared(filepath.Join(dir, "shared"), seed, sz); err != nil {
		return nil, fmt.Errorf("shared archive: %w", err)
	}
	return fx, nil
}

// selectExperiment creates (or finds) app/exp and selects them.
func selectExperiment(s *core.DataSession, app, exp string) error {
	a, err := s.FindApplication(app)
	if err != nil {
		return err
	}
	if a == nil {
		a = &core.Application{Name: app}
		if err := s.SaveApplication(a); err != nil {
			return err
		}
	}
	s.SetApplication(a)
	exps, err := s.ExperimentList()
	if err != nil {
		return err
	}
	for _, e := range exps {
		if e.Name == exp {
			s.SetExperiment(e)
			return nil
		}
	}
	e := &core.Experiment{Name: exp}
	if err := s.SaveExperiment(e); err != nil {
		return err
	}
	s.SetExperiment(e)
	return nil
}

// buildAnalyze fills the analyze archive and leaves its connection open
// for the measured region.
func (fx *fixtures) buildAnalyze(dir string, seed int64, sz sizes) error {
	s, err := core.Open("file:" + dir)
	if err != nil {
		return err
	}
	build := func() error {
		if err := selectExperiment(s, "EVH1", "scaling"); err != nil {
			return err
		}
		for _, p := range synth.ScalingSeries(synth.ScalingConfig{Procs: sz.EVH1Procs, Seed: seed}) {
			if _, err := s.UploadTrial(p, core.UploadOptions{}); err != nil {
				return err
			}
		}
		if fx.evh1, err = s.TrialList(); err != nil {
			return err
		}
		if err := selectExperiment(s, "sPPM", "counters"); err != nil {
			return err
		}
		p, truth := synth.CounterTrial(synth.CounterConfig{Threads: sz.SPPMThreads, Seed: seed})
		t, err := s.UploadTrial(p, core.UploadOptions{})
		if err != nil {
			return err
		}
		fx.sppmID, fx.sppmPoints, fx.sppmTruth = t.ID, p.DataPoints(), truth
		if err := selectExperiment(s, "Miranda", "bystander"); err != nil {
			return err
		}
		by := synth.LargeTrial(synth.LargeTrialConfig{
			Threads: sz.BystanderThreads, Events: sz.Events, Metrics: 1, Seed: seed + 7})
		_, err = s.UploadTrial(by, core.UploadOptions{})
		return err
	}
	if err := build(); err != nil {
		s.Close()
		return err
	}
	fx.analyzeConn = s.Conn()
	return nil
}

// buildShared stores the resident trial, opens the browse and upload
// connections, and sends one request of each browse kind.
func (fx *fixtures) buildShared(dir string, seed int64, sz sizes) error {
	fx.sharedDSN = "file:" + dir
	s, err := core.Open(fx.sharedDSN)
	if err != nil {
		return err
	}
	fx.browseConn = s.Conn()
	if err := selectExperiment(s, "Miranda", "resident"); err != nil {
		return err
	}
	p := synth.LargeTrial(synth.LargeTrialConfig{
		Threads: sz.ResidentThreads, Events: sz.Events, Metrics: 1, Seed: seed + 11})
	t, err := s.UploadTrial(p, core.UploadOptions{})
	if err != nil {
		return err
	}
	fx.residentID, fx.residentThreads = t.ID, sz.ResidentThreads
	s.SetTrial(t)
	evs, err := s.IntervalEventList()
	if err != nil {
		return err
	}
	for _, e := range evs {
		fx.residentEvents = append(fx.residentEvents, e.ID)
	}
	for i := 0; i < 2; i++ {
		fx.uploads = append(fx.uploads, synth.LargeTrial(synth.LargeTrialConfig{
			Threads: sz.UploadThreads, Events: sz.Events, Metrics: 1, Seed: seed + 20 + int64(i)}))
	}
	if fx.uploadConn, err = godbc.Open(fx.sharedDSN); err != nil {
		return err
	}
	for k := range browseKinds {
		if err := browseOnce(nil, s, fx, k, seed, 0); err != nil {
			return err
		}
	}
	return nil
}

// clusterResult is one extract + cluster outcome.
type clusterResult struct {
	fm *mining.FeatureMatrix
	cl *mining.Clustering
}

// agreement is the share of ranks whose cluster's majority class is their
// planted class.
func (r *clusterResult) agreement(truth []int) float64 {
	match := 0
	for c := 0; c < r.cl.K; c++ {
		counts := make(map[int]int)
		for i, a := range r.cl.Assignments {
			if a == c {
				counts[truth[r.fm.Threads[i].Node]]++
			}
		}
		best := 0
		for _, n := range counts {
			best = max(best, n)
		}
		match += best
	}
	return float64(match) / float64(len(r.cl.Assignments))
}
