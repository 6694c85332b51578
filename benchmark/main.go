// Command benchmark is the repository's benchmark: four pinned
// workloads, round-interleaved blocks in fresh child processes,
// barrier-fenced step samples pooled into a low-decile statistic, and a
// per-layer table measured from outside the program. README.md in this
// directory has the design and the reasons.
//
//	bash benchmark/run.sh                       # all four workloads
//	bash benchmark/run.sh -trace 1              # plus the per-layer table and Chrome traces
//	bash benchmark/run.sh -aa 2                 # run twice, compare against the bounds
//	bash benchmark/run.sh -workload ns_slab_n64 -seed 7 -seconds 12 -trace 0
//
// The last form is what BENCHMARK.json's driver runs. The last line of
// standard output is always one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
)

func main() {
	var (
		only    = flag.String("workload", "", "run one workload (default: all four, round-interleaved)")
		seed    = flag.Int64("seed", 1, "initial-condition seed; seed 1 is also checked against pinned answers")
		seconds = flag.Int("seconds", defaultSeconds, "nominal timed seconds per workload; converted to a fixed step count, never measured")
		trace   = flag.Int("trace", 0, "1 adds the traced rounds and reports the per-layer metrics")
		aa      = flag.Int("aa", 0, "run the untraced suite this many times and compare the results against the bounds")
		smoke   = flag.Bool("smoke", false, "tiny grids, 2 rounds of 3 steps, blocks in-process (what the test runs)")
		workDir = flag.String("workdir", ".bench_build/work", "scratch directory for traces, checkpoints and tuning caches")
		child   = flag.String("child", "", "internal: run one block described by this JSON and print its report")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}

	if *child != "" {
		var spec blockSpec
		if err := json.Unmarshal([]byte(*child), &spec); err != nil {
			fatalf("bad -child spec: %v", err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(runBlock(spec)); err != nil {
			fatalf("write block report: %v", err)
		}
		return
	}

	selected := workloads
	if *only != "" {
		w := findWorkload(*only)
		if w == nil {
			fatalf("unknown workload %q", *only)
		}
		selected = []*workload{w}
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := suiteConfig{
		workloads: selected, seed: *seed, seconds: *seconds, trace: *trace != 0,
		smoke: *smoke, workDir: *workDir, rounds: rounds,
	}
	run := execBlocks(ctx)
	if *smoke {
		cfg.rounds = smokeRounds
		run = runBlock
	}

	ok := true
	var last []*workloadResult
	if *aa > 0 {
		cfg.trace = false
		var runs [][]*workloadResult
		for k := 0; k < *aa; k++ {
			fmt.Printf("== A-A run %d of %d\n", k+1, *aa)
			res := runSuite(cfg, run)
			printSuite(os.Stdout, res, cfg)
			runs = append(runs, res)
			ok = ok && suiteCorrect(res)
		}
		ok = printAA(os.Stdout, runs) && ok
		last = runs[len(runs)-1]
	} else {
		last = runSuite(cfg, run)
		printSuite(os.Stdout, last, cfg)
		ok = suiteCorrect(last)
	}
	if ctx.Err() != nil {
		fatalf("interrupted")
	}
	printContract(os.Stdout, last, cfg.trace, ok)
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// execBlocks runs each block in a fresh copy of this program, one at a
// time, with the parent idle meanwhile: a block never shares a heap,
// a plan cache or a warmed arena with the one before it.
func execBlocks(ctx context.Context) func(blockSpec) *blockReport {
	self, err := os.Executable()
	if err != nil {
		fatalf("cannot find own executable: %v", err)
	}
	return func(spec blockSpec) *blockReport {
		failed := func(format string, args ...any) *blockReport {
			rep := &blockReport{Workload: spec.Workload, Mode: spec.Mode, Attempted: spec.Steps}
			rep.fail(format, args...)
			return rep
		}
		arg, err := json.Marshal(spec)
		if err != nil {
			return failed("encode block spec: %v", err)
		}
		cmd := exec.CommandContext(ctx, self, "-child", string(arg))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return failed("block process: %v", err)
		}
		rep := new(blockReport)
		if err := json.Unmarshal(out, rep); err != nil {
			return failed("decode block report: %v", err)
		}
		return rep
	}
}
