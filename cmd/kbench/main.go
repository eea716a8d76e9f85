// kbench runs the Khazana reproduction experiments (E1–E12, see DESIGN.md
// §4) and prints one table per experiment: the paper-derived prediction,
// the measured rows, and whether the predicted shape held.
//
//	go run ./cmd/kbench                  # all experiments
//	go run ./cmd/kbench -run E3,E5       # a subset
//	go run ./cmd/kbench -latency 2ms     # WAN-ish links
//	go run ./cmd/kbench -markdown        # EXPERIMENTS.md-ready output
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"khazana/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kbench", flag.ContinueOnError)
	latency := fs.Duration("latency", 200*time.Microsecond, "simulated one-way link latency")
	duration := fs.Duration("duration", 150*time.Millisecond, "throughput measurement window")
	runList := fs.String("run", "", "comma-separated experiment IDs (e.g. E1,E5); empty = all")
	markdown := fs.Bool("markdown", false, "emit Markdown tables (for EXPERIMENTS.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Latency: *latency, Duration: *duration}

	all := map[string]func(experiments.Config) (experiments.Result, error){
		"E1": experiments.E1Figure1, "E2": experiments.E2Figure2,
		"E3": experiments.E3LookupPath, "E4": experiments.E4Scalability,
		"E5": experiments.E5Consistency, "E6": experiments.E6Replication,
		"E7": experiments.E7Filesystem, "E8": experiments.E8Objects,
		"E9": experiments.E9Failure, "E10": experiments.E10PageSize,
		"E11": experiments.E11StaleMap, "E12": experiments.E12Migration,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}
	selected := order
	if *runList != "" {
		selected = nil
		for _, id := range strings.Split(*runList, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if _, ok := all[id]; !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			selected = append(selected, id)
		}
	}

	fmt.Printf("khazana experiment harness — latency=%v window=%v\n\n", *latency, *duration)
	failures := 0
	for _, id := range selected {
		res, err := all[id](cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *markdown {
			printMarkdown(res)
		} else {
			printTable(res)
		}
		if !res.Pass {
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) did not match the predicted shape", failures)
	}
	fmt.Println("all predicted shapes held")
	return nil
}

func printTable(r experiments.Result) {
	status := "PASS"
	if !r.Pass {
		status = "SHAPE MISMATCH"
	}
	fmt.Printf("%s — %s [%s]\n", r.ID, r.Title, status)
	fmt.Printf("  predicted: %s\n", r.Predicted)
	for _, row := range r.Rows {
		fmt.Printf("  %-34s %-28s %s\n", row.Name, row.Value, row.Detail)
	}
	fmt.Println()
}

func printMarkdown(r experiments.Result) {
	status := "✓ shape held"
	if !r.Pass {
		status = "✗ shape mismatch"
	}
	fmt.Printf("### %s — %s\n\n", r.ID, r.Title)
	fmt.Printf("*Predicted:* %s\n\n", r.Predicted)
	fmt.Println("| measurement | value | detail |")
	fmt.Println("|---|---|---|")
	for _, row := range r.Rows {
		fmt.Printf("| %s | %s | %s |\n", row.Name, row.Value, row.Detail)
	}
	fmt.Printf("\n**Result:** %s\n\n", status)
}
