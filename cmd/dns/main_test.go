package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/exchange"
	"repro/internal/metrics"
	"repro/internal/tuning"
)

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in    string
		async bool
		ok    bool
	}{
		{"sync", false, true},
		{"async", true, true},
		{"asynch", false, false},
		{"", false, false},
	} {
		async, err := parseEngine(tc.in)
		if (err == nil) != tc.ok || async != tc.async {
			t.Errorf("parseEngine(%q) = %v, %v", tc.in, async, err)
		}
	}
}

// A rank count no decomposition fits must be rejected up front for
// every -decomp form, -decomp auto included (it used to reach the ranks
// and die as a pfft panic).
// -op-deadline and -deadlock-after with the watchdog off would be
// dropped silently; the combination is fatal instead.
func TestCheckWatchdog(t *testing.T) {
	for _, tc := range []struct {
		on                 bool
		deadline, deadlock time.Duration
		want               string // substring of the error; "" = accepted
	}{
		{true, 0, 0, ""},
		{true, time.Second, 3 * time.Second, ""},
		{false, 0, 0, ""},
		{false, time.Second, 0, "-op-deadline 1s needs the watchdog"},
		{false, 0, 3 * time.Second, "-deadlock-after 3s needs the watchdog"},
		{false, time.Second, 3 * time.Second, "-op-deadline 1s needs the watchdog"},
	} {
		err := checkWatchdog(tc.on, tc.deadline, tc.deadlock)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("checkWatchdog(%v, %v, %v) = %v, want accepted", tc.on, tc.deadline, tc.deadlock, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("checkWatchdog(%v, %v, %v) = %v, want error containing %q", tc.on, tc.deadline, tc.deadlock, err, tc.want)
		}
	}
}

// Engine flags the run would ignore are rejected: the AT deadline
// without the asynchrony-tolerant exchange, the batched pipeline's
// knobs without -engine async.
func TestCheckEngineFlags(t *testing.T) {
	for _, tc := range []struct {
		set   []string
		async bool
		st    exchange.Strategy
		want  string // substring of the error; "" = accepted
	}{
		{nil, false, exchange.Auto, ""},
		{[]string{"at-stale", "at-deadline"}, false, exchange.AT, ""},
		{[]string{"exchange", "at-deadline"}, true, exchange.AT, ""},
		{[]string{"at-deadline"}, false, exchange.Auto, "-at-deadline needs the asynchrony-tolerant exchange"},
		{[]string{"engine", "np", "gran", "ngpu"}, true, exchange.Auto, ""},
		{[]string{"np"}, false, exchange.Auto, "-np configures the batched pipeline"},
		{[]string{"gran"}, false, exchange.AT, "-gran configures the batched pipeline"},
		{[]string{"ngpu"}, false, exchange.Auto, "-ngpu configures the batched pipeline"},
		{[]string{"at-deadline", "np"}, false, exchange.Auto, "-at-deadline needs"},
		{[]string{"tunecache"}, true, exchange.Auto, ""},
		{[]string{"tunecache", "exchange"}, false, exchange.Fused, "-tunecache persists the -exchange auto search"},
		{[]string{"tunecache", "at-stale"}, true, exchange.AT, "combines only with -exchange auto, not at"},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		err := checkEngineFlags(set, tc.async, tc.st)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("checkEngineFlags(%v, %v, %s) = %v, want accepted", tc.set, tc.async, tc.st, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("checkEngineFlags(%v, %v, %s) = %v, want error containing %q", tc.set, tc.async, tc.st, err, tc.want)
		}
	}
}

func TestCheckDecomp(t *testing.T) {
	for _, tc := range []struct {
		dec      tuning.Decomp
		n, ranks int
		want     string // substring of the error; "" = accepted
	}{
		{tuning.DecompSlab, 16, 4, ""},
		{tuning.DecompSlab, 16, 5, "ranks must divide N"},
		{tuning.Pencil(2, 4), 16, 8, ""},
		{tuning.Pencil(3, 2), 16, 6, "invalid for N=16 ranks=6"},
		{tuning.DecompAuto, 16, 32, ""},
		{tuning.DecompAuto, 16, 5, "no decomposition fits N=16 ranks=5"},
	} {
		err := checkDecomp(tc.dec, tc.n, tc.ranks)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("checkDecomp(%s, %d, %d) = %v, want accepted", tc.dec, tc.n, tc.ranks, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("checkDecomp(%s, %d, %d) = %v, want error containing %q", tc.dec, tc.n, tc.ranks, err, tc.want)
		}
	}
}

// The drive enables the registry after its engine has set the strategy
// and band gauges; every rank must still report the pinned strategies
// and the full band, not the 0 the gauges held while recording was off.
func TestTransformDriveRestatesGauges(t *testing.T) {
	const n, ranks = 16, 4
	defer metrics.Disable()
	if err := runTransformDrive(tuning.Pencil(2, 2), exchange.ChunkedFused, n, ranks, 1, 1, "", true, nil); err != nil {
		t.Fatal(err)
	}
	snap := metrics.Default().Snapshot()
	for r := range ranks {
		for _, g := range []struct {
			name string
			want float64
		}{
			{"exchange.strategy", exchange.ChunkedFused.Code()},
			{"exchange.strategy.zy", exchange.ChunkedFused.Code()},
			{"transform.kmax", n / 2},
		} {
			if e, ok := snap.Get(g.name, r); !ok || e.Value != g.want {
				t.Errorf("rank %d: %s = %v (present %v), want %v", r, g.name, e.Value, ok, g.want)
			}
		}
	}
}
