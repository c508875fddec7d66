package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// The repeatability check (-repeat k): the whole benchmark run k times back
// to back, each set being setSeeds seeds of every workload with the launches
// interleaved across workloads (A B C … A B C …) so that no workload owns
// one stretch of the host's mood. It applies one rule to every workload ×
// end-to-end metric — the spread between the quartiles of a set as a share
// of its median must stay within the metric's bound, and a later set's
// median may not be worse than the first's by more than the bound — and
// writes each set under benchmark/results.

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(root string) (spec, error) {
	var s spec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(values []float64) (q1, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// series is one workload × metric over a set's seeds.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3 − Q1) ÷ Median.
	Spread float64 `json:"spread"`
}

// resultSet is one file under benchmark/results.
type resultSet struct {
	Host       map[string]string             `json:"host"`
	RunSeconds int                           `json:"run_seconds"`
	Seeds      []int64                       `json:"seeds"`
	Attempted  map[string]int                `json:"attempted"`
	Failed     map[string]int                `json:"failed"`
	Workloads  map[string]map[string]*series `json:"workloads"`
}

func hostFacts() map[string]string {
	h := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"GOMAXPROCS": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"GOGC":       os.Getenv("GOGC"),
	}
	if l, ok := loadAverage(); ok {
		h["loadavg1_at_start"] = strconv.FormatFloat(l, 'f', 2, 64)
	}
	return h
}

// launched is the result object a run prints as its last line.
type launched struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// launch runs one workload in its own process and parses the final line of
// its output.
func launch(self string, workload string, seed int64, seconds int) (launched, error) {
	var res launched
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	// A child's load-average warning is about its own siblings; its stderr
	// is shown only when it fails.
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s seed %d: last output line is not the result object: %w", workload, seed, err)
	}
	return res, nil
}

// setSeeds is the number of seeds per workload in one result set: the number
// of runs the acceptance rule takes its quartiles over.
const setSeeds = 10

func runSet(self string, sp spec) (*resultSet, error) {
	set := &resultSet{Host: hostFacts(), RunSeconds: sp.RunSeconds, Attempted: map[string]int{},
		Failed: map[string]int{}, Workloads: map[string]map[string]*series{}}
	for seed := int64(1); seed <= setSeeds; seed++ {
		set.Seeds = append(set.Seeds, seed)
		for _, w := range sp.Workloads {
			res, err := launch(self, w.Name, seed, sp.RunSeconds)
			if err != nil {
				return nil, err
			}
			set.Attempted[w.Name] += res.Attempted
			set.Failed[w.Name] += res.Failed
			if set.Workloads[w.Name] == nil {
				set.Workloads[w.Name] = map[string]*series{}
			}
			for name, m := range res.Metrics {
				s := set.Workloads[w.Name][name]
				if s == nil {
					s = &series{Unit: m.Unit}
					set.Workloads[w.Name][name] = s
				}
				s.Values = append(s.Values, m.Value)
			}
			fmt.Printf("# seed %d %s run_p50_us=%.1f\n", seed, w.Name, res.Metrics["run_p50_us"].Value)
		}
	}
	for _, ms := range set.Workloads {
		for _, s := range ms {
			s.Median = medianFloat(s.Values)
			s.Q1, s.Q3 = quartiles(s.Values)
			s.Spread = (s.Q3 - s.Q1) / s.Median
		}
	}
	return set, nil
}

func writeSet(root string, index int, set *resultSet) error {
	dir := filepath.Join(root, "benchmark", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%c.json", 'a'+index)), append(b, '\n'), 0o644)
}

// repeatSets runs the sets, prints the comparison and returns the exit code.
func repeatSets(o options, root string) int {
	sp, err := readSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var sets []*resultSet
	for k := 0; k < o.repeat; k++ {
		set, err := runSet(self, sp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if err := writeSet(root, k, set); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		sets = append(sets, set)
	}
	breaches := 0
	fmt.Println("workload metric median_a spread_a [median_k spread_k drift_k ...] bound verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			first := sets[0].Workloads[w.Name][m.Name]
			if first == nil {
				fmt.Printf("%s %s missing\n", w.Name, m.Name)
				breaches++
				continue
			}
			line := fmt.Sprintf("%s %s %.6g %.4f", w.Name, m.Name, first.Median, first.Spread)
			ok := first.Spread <= m.Bound
			for _, set := range sets[1:] {
				s := set.Workloads[w.Name][m.Name]
				drift := (s.Median - first.Median) / first.Median
				if m.Better == "higher" {
					drift = -drift
				}
				line += fmt.Sprintf(" %.6g %.4f %+.4f", s.Median, s.Spread, drift)
				if s.Spread > m.Bound || drift > m.Bound {
					ok = false
				}
			}
			verdict := "ok"
			if !ok {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("%s %.4f %s\n", line, m.Bound, verdict)
		}
		for _, set := range sets {
			if set.Failed[w.Name] > 0 {
				fmt.Printf("%s failed_ops %d of %d BREACH\n", w.Name, set.Failed[w.Name], set.Attempted[w.Name])
				breaches++
			}
		}
	}
	if breaches > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d workload × metric pairs outside their bounds\n", breaches)
		return 1
	}
	return 0
}
