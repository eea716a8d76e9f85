// Command khazbench runs the repository's benchmark.
//
//	khazbench -workload all -seed 1 -duration 20s -json out.json
//	khazbench -workload remote_scan -trace-out traces/
//	khazbench -compare a.json b.json
//
// Without -trace every selected workload gets an end-to-end run (tracing
// off) and then a per-layer run (traced); every metric is printed by name
// with its unit and sample count. With -trace 0 or -trace 1 it performs the
// single run BENCHMARK.json's driver asks for and ends its output with that
// run's one-line JSON result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"khazana/bench"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "workload seed; the program under test sees only the generated inputs")
		duration = flag.Duration("duration", 20*time.Second, "measured time of the end-to-end run (the per-layer run gets half)")
		seconds  = flag.Int("seconds", 0, "measured time in whole seconds (overrides -duration)")
		trace    = flag.Int("trace", -1, "single run: 0 = end-to-end metrics, 1 = per-layer metrics; its JSON result is the last line printed")
		repeat   = flag.Int("repeat", 1, "end-to-end runs per workload, so that -compare can see the spread")
		jsonOut  = flag.String("json", "", "write every run's result to this file")
		traceOut = flag.String("trace-out", "", "directory for the traced runs' spans, as JSON lines")
		commit   = flag.String("commit", "", "commit recorded in the -json file")
		compare  = flag.Bool("compare", false, "compare two -json files given as arguments instead of running")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json instead of running")
	)
	flag.Parse()
	if *seconds > 0 {
		*duration = time.Duration(*seconds) * time.Second
	}

	switch {
	case *manifest:
		exitOn(bench.WriteManifest(os.Stdout))
	case *compare:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("-compare needs two files"))
		}
		ok, err := bench.Compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		exitOn(err)
		if !ok {
			os.Exit(1)
		}
	default:
		names := []string{*workload}
		if *workload == "all" {
			if *trace >= 0 {
				exitOn(fmt.Errorf("-trace takes one -workload"))
			}
			names = names[:0]
			for _, w := range bench.Workloads {
				names = append(names, w.Name)
			}
		}
		file := bench.File{
			Machine: bench.Machine{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), OS: runtime.GOOS, Arch: runtime.GOARCH},
			Commit:  *commit, Seed: *seed, DurationS: duration.Seconds(),
		}
		file.Machine.Host, _ = os.Hostname()
		correct := true
		for _, name := range names {
			o := bench.Options{Workload: name, Seed: *seed, Duration: *duration, Warmup: bench.Warmup, SetupRounds: bench.SetupRounds, TraceOut: *traceOut}
			for _, o := range runsFor(o, *trace, *repeat) {
				r, err := bench.Run(context.Background(), o)
				exitOn(err)
				r.Print(os.Stdout)
				if !r.Correct() {
					// Say why on stderr too: it is what a driver keeps of a failed run.
					for _, note := range r.Notes {
						fmt.Fprintf(os.Stderr, "khazbench: %s seed %d: %s\n", r.Workload, r.Seed, note)
					}
				}
				correct = correct && r.Correct()
				file.Runs = append(file.Runs, *r)
			}
		}
		if *jsonOut != "" {
			exitOn(file.Write(*jsonOut))
		}
		if *trace >= 0 {
			// The driver's contract: one JSON object, last on stdout.
			line, err := json.Marshal(file.Runs[0].DriverResult())
			exitOn(err)
			fmt.Println(string(line))
		}
		if !correct {
			fmt.Fprintln(os.Stderr, "khazbench: operations failed or read corrupted pages")
			os.Exit(1)
		}
	}
}

// runsFor lists one workload's runs: the single run -trace asks for, or
// repeat end-to-end runs followed by one per-layer run of half the length.
func runsFor(o bench.Options, trace, repeat int) []bench.Options {
	if trace >= 0 {
		o.Trace = trace == 1
		return []bench.Options{o}
	}
	var runs []bench.Options
	for i := 0; i < repeat; i++ {
		runs = append(runs, o)
	}
	o.Trace, o.Duration = true, o.Duration/2
	return append(runs, o)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "khazbench:", err)
		os.Exit(2)
	}
}
