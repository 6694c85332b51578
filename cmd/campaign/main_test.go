package main

import (
	"strings"
	"testing"

	"repro/internal/pfft"
)

func TestValidateRejectsUnknownNames(t *testing.T) {
	stages := []Stage{{N: 16, Steps: 1, Dt: 0.01}}
	for _, tc := range []struct {
		name    string
		cfg     Config
		wantErr string // substring; empty = valid
		engine  string
		gran    pfft.Granularity
	}{
		{"defaults", Config{Ranks: 2, Stages: stages}, "", "sync", pfft.PerSlab},
		{"async pencil", Config{Ranks: 2, Stages: stages, Engine: "async", Gran: "pencil"}, "", "async", pfft.PerPencil},
		{"threaded", Config{Ranks: 2, Stages: stages, Engine: "threaded"}, "", "threaded", pfft.PerSlab},
		{"engine typo", Config{Ranks: 2, Stages: stages, Engine: "asynch"}, "sync, async or threaded", "", 0},
		{"gran typo", Config{Ranks: 2, Stages: stages, Gran: "pencils"}, "pencil or slab", "", 0},
		{"no stages", Config{Ranks: 2}, "at least one stage", "", 0},
	} {
		err := tc.cfg.validate()
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one listing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || tc.cfg.Engine != tc.engine || tc.cfg.gran != tc.gran {
			t.Errorf("%s: err %v, engine %q, gran %v", tc.name, err, tc.cfg.Engine, tc.cfg.gran)
		}
	}

	// The config file's keys are names too: a misspelt one is an
	// error naming it, not a silent default.
	for _, tc := range []struct{ raw, wantErr string }{
		{`{"ranks": 2, "forcingShells": 2, "threads": 4, "stages": [{"n": 16, "steps": 1, "dt": 0.01}]}`, ""},
		{`{"ranks": 2, "forcing_shells": 2, "stages": [{"n": 16, "steps": 1, "dt": 0.01}]}`, `unknown field "forcing_shells"`},
		{`{"ranks": 2, "thread": 4, "stages": [{"n": 16, "steps": 1, "dt": 0.01}]}`, `unknown field "thread"`},
		{`{"ranks": 2, "stages": [{"n": 16, "steps": 1, "dt": 0.01, "cfl_target": 0.4}]}`, `unknown field "cfl_target"`},
		{`{"ranks": 2, "stages": [{"n": 16, "steps": 1, "dt": 0.01}]} {}`, "trailing data"},
	} {
		cfg, err := parseConfig([]byte(tc.raw))
		switch {
		case tc.wantErr == "" && (err != nil || cfg.ForcingShells != 2 || cfg.Threads != 4):
			t.Errorf("parseConfig(%s) = %+v, %v; want forcingShells 2, threads 4", tc.raw, cfg, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("parseConfig(%s) error %v, want one containing %q", tc.raw, err, tc.wantErr)
		}
	}
}
