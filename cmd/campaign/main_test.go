package main

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestValidateRejectsUnknownNames(t *testing.T) {
	stages := []Stage{{N: 16, Steps: 1, Dt: 0.01}}
	for _, tc := range []struct {
		name    string
		cfg     Config
		wantErr string // substring; empty = valid
		engine  string
		gran    core.Granularity
	}{
		{"defaults", Config{Ranks: 2, Stages: stages}, "", "sync", core.PerSlab},
		{"async pencil", Config{Ranks: 2, Stages: stages, Engine: "async", Gran: "pencil"}, "", "async", core.PerPencil},
		{"threaded", Config{Ranks: 2, Stages: stages, Engine: "threaded"}, "", "threaded", core.PerSlab},
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
}
