// Command fleetbench is the PeriGuard fleet benchmark. It runs one
// workload through fleet.Run, in a fresh process per measurement so set-up
// is always cold and memory figures belong to one run, and prints the
// end-to-end metrics (--trace 0) or the per-layer breakdown of a traced
// run (--trace 1) as the last line of standard output:
//
//	bash fleetbench/run.sh --workload speech-fleet --seed 7 --seconds 40 --trace 0
//
// Each run first runs the recorded seed and checks its fingerprint, then
// measures seeds derived from --seed until --seconds have passed (trace 0)
// or drives one traced run (trace 1). Any failed output check sets
// "correct" to false and the exit code to 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

const (
	// minMeasured is the fewest measured child runs a result rests on.
	minMeasured = 3
	// childBudget bounds the whole command well inside the 180 s a run
	// may take, so a hung child is killed and reported, never waited on.
	childBudget = 160 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(parentMain(os.Args[1:]))
}

// childResult is what one child process reports to the parent.
type childResult struct {
	Seed       uint64             `json:"seed"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Warnings   []string           `json:"warnings,omitempty"`
	RunWallS   float64            `json:"run_wall_s"`
	BuildWallS float64            `json:"build_wall_s"`
	AllocBytes uint64             `json:"alloc_bytes"`
	PeakRSSKB  int64              `json:"peak_rss_kb"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

func childMain(args []string) int {
	fs := flag.NewFlagSet("fleetbench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", recordedSeed, "workload seed")
	traced := fs.Bool("trace", false, "drive a traced run instead of a measured one")
	spans := fs.String("spans", "", "with -trace, write the spans here as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		return 2
	}
	var out childResult
	if *traced {
		out, err = tracedChild(w, *seed, *spans)
	} else {
		out, err = measuredChild(w, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		return 1
	}
	return 0
}

// measuredChild runs the workload once, untraced and cold, and checks it.
func measuredChild(w workload, seed uint64) (childResult, error) {
	cfg := w.config(seed)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := fleet.Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		return failedRun(cfg, seed, err)
	}
	out := childResult{
		Seed:       seed,
		Attempted:  res.TotalItems,
		RunWallS:   res.RunWall.Seconds(),
		BuildWallS: res.BuildWall.Seconds(),
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		PeakRSSKB:  peakRSSKB(),
	}
	out.Failures, out.Warnings = check(w, seed, res)
	out.Failed = failedItems(res, out.Failures)
	return out, nil
}

// failedItems counts lost frames as failed items; a run that fails any
// output check fails every item it attempted.
func failedItems(res *fleet.Result, failures []string) int {
	if len(failures) > 0 {
		return res.TotalItems
	}
	return res.LostFrames()
}

// failedRun reports a run that errored: every planned item failed.
func failedRun(cfg fleet.Config, seed uint64, runErr error) (childResult, error) {
	specs, err := fleet.Plan(cfg)
	if err != nil {
		return childResult{}, err
	}
	items := 0
	for _, s := range specs {
		if s.Kind == core.DeviceSpeaker {
			items += cfg.Utterances
		} else {
			items += cfg.Frames
		}
	}
	return childResult{Seed: seed, Attempted: items, Failed: items, Failures: []string{"run: " + runErr.Error()}}, nil
}

// peakRSSKB is the process's resident high-water mark.
func peakRSSKB() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru.Maxrss                                // kilobytes on Linux
}

// deriveSeed spreads the run seed into the child seeds it measures;
// 0 is skipped because fleet treats it as "use the default seed".
func deriveSeed(seed uint64, k int) uint64 {
	s := core.DeriveSeed(seed, 0xbe7c4, k)
	if s == 0 {
		s = 1
	}
	return s
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: speech-fleet, camera-control or secure-batched")
	seed := fs.Uint64("seed", 1, "seed the measured inputs derive from")
	seconds := fs.Int("seconds", 40, "how long to measure")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), childBudget)
	defer cancel()
	spawn := func(childArgs ...string) (childResult, error) {
		return runChild(ctx, exe, append([]string{"child", "-workload", w.name}, childArgs...))
	}

	hostJSON, _ := json.Marshal(hostInfo()) // a struct of strings and ints always marshals
	fmt.Printf("host %s\n", hostJSON)

	start := time.Now()
	var runs []childResult
	fp, err := spawn("-seed", fmt.Sprint(recordedSeed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		return 1
	}
	runs = append(runs, fp)
	out := result{Metrics: map[string]metric{}}
	if *trace == 1 {
		spansPath := filepath.Join(filepath.Dir(exe), fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		tr, err := spawn("-trace", "-seed", fmt.Sprint(deriveSeed(*seed, 1)), "-spans", spansPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetbench:", err)
			return 1
		}
		runs = append(runs, tr)
		for _, m := range layerMetrics {
			out.Metrics[m.name] = metric{Value: tr.Layers[m.name], Unit: m.unit}
		}
	} else {
		// Stop when one more child, at the mean child's length so far,
		// would overrun the budget, so a run measures for --seconds.
		budget := time.Duration(*seconds) * time.Second
		for k := 1; ; k++ {
			n := time.Duration(len(runs))
			if len(runs) >= minMeasured && time.Since(start)*(n+1)/n > budget {
				break
			}
			r, err := spawn("-seed", fmt.Sprint(deriveSeed(*seed, k)))
			if err != nil {
				fmt.Fprintln(os.Stderr, "fleetbench:", err)
				return 1
			}
			runs = append(runs, r)
		}
		out.Metrics = endToEnd(runs)
	}

	for _, r := range runs {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		fmt.Printf("run seed=%d items=%d failed=%d run_wall_s=%.4f build_wall_s=%.4f\n",
			r.Seed, r.Attempted, r.Failed, r.RunWallS, r.BuildWallS)
		for _, f := range r.Failures {
			fmt.Printf("check failed (seed %d): %s\n", r.Seed, f)
		}
		for _, f := range r.Warnings {
			fmt.Printf("warning (seed %d): %s\n", r.Seed, f)
		}
	}
	out.Correct = out.Failed == 0
	fmt.Printf("failed_frac %g\n", float64(out.Failed)/float64(max(out.Attempted, 1)))
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// runChild runs one child process to completion and decodes its report.
func runChild(ctx context.Context, exe string, args []string) (childResult, error) {
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// A child must not outlive a parent that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return childResult{}, fmt.Errorf("child %s: killed after %v", strings.Join(args, " "), childBudget)
		}
		return childResult{}, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	var r childResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return childResult{}, fmt.Errorf("child %s: bad report: %w", strings.Join(args, " "), err)
	}
	return r, nil
}

// endToEnd reports the median of each end-to-end metric over the runs.
func endToEnd(runs []childResult) map[string]metric {
	col := func(f func(r childResult) float64) float64 {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = f(r)
		}
		return median(v)
	}
	perItem := func(r childResult) float64 { return float64(max(r.Attempted, 1)) }
	return map[string]metric{
		"items_per_s":       {col(func(r childResult) float64 { return perItem(r) / r.RunWallS }), "1/s"},
		"setup_s":           {col(func(r childResult) float64 { return r.BuildWallS }), "s"},
		"alloc_kb_per_item": {col(func(r childResult) float64 { return float64(r.AllocBytes) / 1024 / perItem(r) }), "KB"},
		"peak_rss_mb":       {col(func(r childResult) float64 { return float64(r.PeakRSSKB) / 1024 }), "MB"},
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// host fingerprints the machine a result came from: a figure taken on
// another host, or at another parallelism, is not a comparison.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Workers    int    `json:"workers"`
}

func hostInfo() host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Workers:    workers,
	}
}

// cpuModel reads the kernel's CPU description; "unknown" off Linux.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
