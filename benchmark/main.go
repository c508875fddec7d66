// Command benchmark is the repository's benchmark: seven workloads, each
// verified bit for bit against an oracle that is not the engine under test,
// reported as end-to-end metrics (timed pass, observers off) or per-layer
// metrics (traced pass plus standalone layer probes). BENCHMARK.json at the
// repository root names the command, the workloads and the metrics with
// their regression bounds; README.md in this directory explains them.
//
//	bash benchmark/run.sh --workload cold_oneshot --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --repeat 2        # both result sets + spread check
//
// One invocation runs one workload in its own process, so one workload's
// live heap cannot change another's GC pacing. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// segments is the number of fresh instances a timed run pools; setupFloor
// and maxSetups bound the extra set-ups of a workload whose set-up is cheap.
const (
	segments   = 5
	setupFloor = time.Second
	maxSetups  = 40
)

// warmupOps is the number of untimed, verified ops that end each set-up.
const warmupOps = 3

// tracedShare is the part of -seconds the traced pass (and the untraced
// pass it is compared with) runs for.
const tracedShare = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced pass and layer probes (per-layer metrics); 0 = timed pass (end-to-end metrics)")
	flag.IntVar(&o.repeat, "repeat", 0, "run every workload over ten seeds this many times back to back, compare the sets against the bounds in BENCHMARK.json and write them under benchmark/results")
	flag.Parse()

	if err := hostGuard(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	root, err := findRepoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if o.repeat > 0 {
		os.Exit(repeatSets(o, root))
	}
	if o.workload == "" {
		fmt.Fprintln(os.Stderr, "benchmark: -workload is required (or -repeat k); have", strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	workDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	e := env{sz: fullSizes, seed: o.seed, workDir: relTo(workDir), repoRoot: root}
	printHost()
	var res result
	if o.trace != 0 {
		res, err = runTraced(o.workload, e, limit{budget: time.Duration(o.seconds) * time.Second / tracedShare}, filepath.Join(root, "benchmark", "out"))
	} else {
		res, err = runTimed(o.workload, e, limit{budget: time.Duration(o.seconds) * time.Second})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printMetrics(o.workload, res.extra)
	printMetrics(o.workload, res.metrics)
	fmt.Println(res.json())
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d ops failed verification: %v\n", res.failed, res.attempted, res.firstErr)
		os.Exit(1)
	}
}

// result is one run's outcome: the metrics of the contract's final JSON
// line, and extra diagnostics that are printed but not part of it.
type result struct {
	attempted, failed int
	firstErr          error
	metrics           []metric
	extra             []metric
}

func (r result) json() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // a NaN or Inf metric is a bug in the benchmark
	}
	return string(b)
}

// setUp performs one set-up: build the workload and run the warm-up ops,
// each restored before and verified after.
func setUp(name string, e env) (*instance, error) {
	in, err := setupWorkload(name, e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	warm := runPass(in, nil, limit{maxOps: warmupOps}, passHooks{})
	if warm.failed > 0 {
		in.close()
		return nil, fmt.Errorf("%s: warm-up failed verification: %w", name, warm.firstErr)
	}
	return in, nil
}

// runTimed is the untraced run. It is cut into segments: each sets the
// workload up afresh (setup_s is the median set-up) and times an equal share
// of the budget, and the samples are pooled. Identical runs differ mostly in
// where an instance's arrays and goroutines happened to land, so pooling
// several instances steadies the median more than one long pass would.
// Cheap set-ups are repeated beyond the segments until setupFloor of set-up
// time has been seen, so that a 15 ms set-up is not judged on five samples.
func runTimed(name string, e env, lim limit) (result, error) {
	var setupS, heaps, idle []float64
	var all pass
	var points float64
	seg := limit{budget: lim.budget / segments, maxOps: lim.maxOps}
	ref, err := newHostRef()
	if err != nil {
		return result{}, err
	}
	defer ref.stop()
	// timedSetUp is one set-up in reference seconds: the host-speed reference
	// is read before and after it.
	timedSetUp := func() (*instance, error) {
		f0 := ref.settled()
		t0 := time.Now()
		in, err := setUp(name, e)
		dt := time.Since(t0).Seconds()
		f1 := ref.settled()
		setupS = append(setupS, dt*(f0+f1)/2)
		idle = append(idle, f0, f1)
		return in, err
	}
	for i := 0; i < segments; i++ {
		in, err := timedSetUp()
		if err != nil {
			return result{}, err
		}
		p := runPass(in, ref, seg, passHooks{})
		in.close()
		points = in.points
		all.samples = append(all.samples, p.samples...)
		all.raw = append(all.raw, p.raw...)
		all.attempted += p.attempted
		all.failed += p.failed
		if all.firstErr == nil {
			all.firstErr = p.firstErr
		}
		all.cpu += p.cpu
		all.mallocs += p.mallocs
		all.bytes += p.bytes
		heaps = append(heaps, float64(p.liveHeap))
	}
	if len(all.samples) == 0 {
		return result{}, fmt.Errorf("%s: no op succeeded: %w", name, all.firstErr)
	}
	all.liveHeap = uint64(medianFloat(heaps))
	for sum(setupS) < setupFloor.Seconds() && len(setupS) < maxSetups {
		in, err := timedSetUp()
		if err != nil {
			return result{}, err
		}
		in.close()
	}
	return result{attempted: all.attempted, failed: all.failed, firstErr: all.firstErr,
		metrics: endToEnd(all, points, setupS), extra: diagnostics(all, idle)}, nil
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// hostGuard refuses hosts the sizing does not fit and pins GOMAXPROCS.
func hostGuard() error {
	if n := runtime.NumCPU(); n < procs {
		return fmt.Errorf("need at least %d CPUs, this host has %d", procs, n)
	}
	runtime.GOMAXPROCS(procs)
	return nil
}

// printHost records the host facts beside the numbers.
func printHost() {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	fmt.Printf("# host nproc=%d GOMAXPROCS=%d go=%s GOGC=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gogc, cpuModel())
	if load, ok := loadAverage(); ok {
		fmt.Printf("# host loadavg1=%.2f\n", load)
		if load > 0.5 {
			fmt.Fprintf(os.Stderr, "benchmark: warning: 1-minute load average is %.2f (> 0.5); timings will be noisy\n", load)
		}
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func loadAverage() (float64, bool) {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, false
	}
	var l float64
	if _, err := fmt.Sscan(string(b), &l); err != nil {
		return 0, false
	}
	return l, true
}

// findRepoRoot walks up from the working directory to the directory that
// holds BENCHMARK.json and the program's testdata.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "testdata", "golden")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no directory above %s holds BENCHMARK.json and testdata/golden", dir)
		}
		dir = parent
	}
}

// relTo shortens path relative to the working directory when it can: a
// unix socket path is limited to about a hundred bytes.
func relTo(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	if rel, err := filepath.Rel(wd, path); err == nil && len(rel) < len(path) {
		return rel
	}
	return path
}
