package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Machine records where a results file was measured.
type Machine struct {
	Host      string `json:"host"`
	NumCPU    int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
}

// File is what -json writes and -compare reads: every run of one
// invocation, with enough about the machine to tell two files apart.
type File struct {
	Machine   Machine  `json:"machine"`
	Commit    string   `json:"commit"`
	Seed      int64    `json:"seed"`
	DurationS float64  `json:"duration_s"`
	Runs      []Result `json:"runs"`
}

// Write stores f at path as indented JSON.
func (f *File) Write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Print lists every metric of the run by name, with unit and sample count.
func (r *Result) Print(w io.Writer) {
	kind := "end-to-end (tracing off)"
	if r.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s seed %d: %s; attempted %d, failed %d, mismatched %d\n",
		r.Workload, r.Seed, kind, r.Attempted, r.Failed, r.Mismatched)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-42s %16.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "!! %s\n", n)
	}
}

// DriverMetric is one metric in the driver's result line.
type DriverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// DriverResult is the one-line JSON object BENCHMARK.json's driver reads.
type DriverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]DriverMetric `json:"metrics"`
}

// DriverResult renders the run the way the driver expects it: exactly the
// end-to-end metrics for an untraced run, the per-layer ones for a traced.
func (r *Result) DriverResult() DriverResult {
	specs := EndToEnd
	if r.Trace {
		specs = PerLayer
	}
	out := DriverResult{Correct: r.Correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]DriverMetric, len(specs))}
	for _, s := range specs {
		v, ok := r.Metric(s.Name)
		if !ok {
			out.Correct = false // a test holds that every declared metric is reported
		}
		out.Metrics[s.Name] = DriverMetric{Value: v, Unit: s.Unit}
	}
	return out
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []Spec         `json:"end_to_end"`
	PerLayer   []Spec         `json:"per_layer"`
}

// runSeconds is the run length BENCHMARK.json asks the driver for: long
// enough that a disturbance of a few seconds spoils a minority of the five
// windows, short enough that the driver's 114 runs of about 24 s each fit
// its 3420 s limit with a fifth to spare.
const runSeconds = 20

// WriteManifest prints BENCHMARK.json from the tables in this package, so
// the file cannot drift from what the benchmark reports.
func WriteManifest(w io.Writer) error {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  Workloads,
		EndToEnd:   EndToEnd,
		PerLayer:   PerLayer,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// quartiles returns the first and third quartile of vals the way Python's
// statistics.quantiles(vals, n=4) does (the driver's spread uses it).
// vals is sorted in place and needs at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	sort.Float64s(vals)
	at := func(k float64) float64 {
		pos := k * float64(len(vals)+1) / 4 // 1-based, exclusive method
		j := int(math.Floor(pos))
		j = max(1, min(j, len(vals)-1))
		return vals[j-1] + (vals[j]-vals[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median,
// 0 when fewer than two values make it unknowable.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return ratio(q3-q1, math.Abs(median(vals)))
}

// endToEndValues collects, per workload, each end-to-end metric's values
// over the file's untraced runs.
func (f *File) endToEndValues() map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for i := range f.Runs {
		r := &f.Runs[i]
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for _, s := range EndToEnd {
			if v, ok := r.Metric(s.Name); ok {
				out[r.Workload][s.Name] = append(out[r.Workload][s.Name], v)
			}
		}
	}
	return out
}

// Compare prints, per workload and end-to-end metric, the median of each
// file, how much worse the second is, the bound, and a verdict: regressed
// when worse by more than the bound, unresolved when either file's own
// spread exceeds the bound (the difference cannot be told from noise), ok
// otherwise. It reports whether every row is ok.
func Compare(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readFile(pathB)
	if err != nil {
		return false, err
	}
	va, vb := a.endToEndValues(), b.endToEndValues()
	allOK := true
	fmt.Fprintf(w, "%-17s %-19s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	for _, l := range Workloads {
		for _, s := range EndToEnd {
			xa, xb := va[l.Name][s.Name], vb[l.Name][s.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := ratio(mb-ma, math.Abs(ma))
			if s.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(spread(xa), spread(xb))
			verdict := "ok"
			switch {
			case sp > s.Bound:
				verdict = "unresolved"
			case worse > s.Bound:
				verdict = "regressed"
			}
			allOK = allOK && verdict == "ok"
			fmt.Fprintf(w, "%-17s %-19s %14.4f %14.4f %+7.1f%% %6.1f%% %6.0f%%  %s\n",
				l.Name, s.Name, ma, mb, 100*worse, 100*sp, 100*s.Bound, verdict)
		}
	}
	return allOK, nil
}
