// Command bench is the repository's one measurement harness: four
// fixed-mix workloads (solo-small, solo-deep, fleet-mixed, fleet-ingest)
// measured end to end, every campaign's report bytes verified, and a traced
// run that says where the time goes layer by layer. See README.md.
//
// One run of one workload (the form BENCHMARK.json's command takes):
//
//	bash bench/run.sh --workload fleet-mixed --seed 7 --seconds 20 --trace 0
//
// prints an account of the run and, as the last line of standard output,
// one JSON object {correct, attempted, failed, metrics}. Without
// --workload it runs every workload untraced and then traced; with
// -repeat K -check it runs every workload on K seeds and checks the spread
// of every end-to-end metric against its bound.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// envelope says what produced a set of numbers; it heads every output.
type envelope struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Traced     bool    `json:"traced"`
	Seconds    float64 `json:"seconds"`
}

func newEnvelope(cfg config) envelope {
	e := envelope{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", Dirty: true,
		Seed: cfg.Seed, Scale: cfg.Scale.Name, Traced: cfg.Trace, Seconds: cfg.Seconds,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// Outside a git checkout the commit stays unknown and the tree counts
	// as dirty, so such numbers are never recorded as a baseline.
	git := func(args ...string) (string, error) {
		out, err := exec.Command("git", append([]string{"-C", cfg.BenchDir}, args...)...).Output()
		return strings.TrimSpace(string(out)), err
	}
	if top, err := git("rev-parse", "--show-toplevel"); err == nil {
		abs, _ := filepath.Abs(filepath.Join(cfg.BenchDir, ".."))
		if top == abs {
			if c, err := git("rev-parse", "HEAD"); err == nil {
				e.Commit = c
				st, err := git("status", "--porcelain")
				e.Dirty = err != nil || st != ""
			}
		}
	}
	return e
}

func main() {
	var cfg config
	var trace int
	var quick, updateGolden, check bool
	var repeat int
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty: all of them, untraced then traced)")
	flag.Int64Var(&cfg.Seed, "seed", defaultSeed, "benchmark seed: derives every campaign seed")
	flag.Float64Var(&cfg.Seconds, "seconds", defaultSeconds, "length of the timed phase; whole rounds run until it has passed")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	flag.BoolVar(&quick, "quick", false, "run at about a twentieth of the size (bench_test.go's scale); never a baseline")
	flag.BoolVar(&updateGolden, "update-golden", false, "recompute bench/golden.json at the default seed and exit")
	flag.IntVar(&repeat, "repeat", 1, "with no -workload: run every workload on this many consecutive seeds, untraced")
	flag.BoolVar(&check, "check", false, "with -repeat: exit non-zero if an end-to-end metric spreads past its bound; record a clean full-scale result in bench/baseline.json")
	flag.StringVar(&cfg.BenchDir, "bench-dir", "bench", "the benchmark's own directory")
	flag.Parse()
	cfg.Trace = trace != 0
	cfg.Scale = fullScale
	if quick {
		cfg.Scale = quickScale
	}
	cfg.Log = os.Stdout
	cfg.OutDir = filepath.Join(cfg.BenchDir, "out")

	var err error
	switch {
	case updateGolden:
		err = updatePins(cfg.BenchDir)
	case cfg.Workload != "":
		err = single(cfg)
	default:
		err = all(cfg, repeat, check)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// single is one run of one workload. The result line is the last thing on
// standard output; a run that could not be made prints none. Either that
// or a failed campaign makes the exit status non-zero.
func single(cfg config) error {
	env, err := json.Marshal(newEnvelope(cfg))
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Log, "envelope %s\n", env)
	res, err := run(cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Log, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%d of %d campaigns failed", res.Failed, res.Attempted)
	}
	return nil
}

// child runs one workload in a fresh process, as the driver does, passes
// its account through and returns its result line.
func child(cfg config, workload string, seed int64, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	args := []string{
		"--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(cfg.Seconds), "--trace", traceArg,
		"--bench-dir", cfg.BenchDir,
	}
	if cfg.Scale.Name == quickScale.Name {
		args = append(args, "--quick")
	}
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(&out, cfg.Log)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result line (%v)", workload, seed, runErr)
	}
	if runErr != nil || !res.Correct {
		return &res, fmt.Errorf("%s seed %d: %d of %d campaigns failed (%v)", workload, seed, res.Failed, res.Attempted, runErr)
	}
	return &res, nil
}

// all runs every workload: untraced then traced, or with repeat > 1 the
// untraced run on consecutive seeds for the spread check.
func all(cfg config, repeat int, check bool) error {
	if repeat > 1 || check {
		return spreadCheck(cfg, max(repeat, 2), check)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			if _, err := child(cfg, w, cfg.Seed, trace); err != nil {
				return err
			}
		}
	}
	return nil
}
