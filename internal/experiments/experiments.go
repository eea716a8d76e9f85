// Package experiments implements the reproduction harness for every
// figure and qualitative claim in the paper's evaluation (see DESIGN.md §4
// for the experiment index). Each experiment builds its own
// in-process cluster, runs the workload, and returns structured rows that
// cmd/kbench renders as tables and EXPERIMENTS.md records.
//
// The paper contains no quantitative tables — its two figures are
// architectural — so E1 and E2 reproduce the figures operationally and
// E3–E11 characterize each claimed property with a paper-derived predicted
// shape.
package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"khazana"
)

// Row is one line of an experiment's output table.
type Row struct {
	Name   string
	Value  string
	Detail string
}

// Result is a completed experiment.
type Result struct {
	ID        string
	Title     string
	Predicted string
	Rows      []Row
	// Pass reports whether the paper-predicted shape held.
	Pass bool
}

// Config tunes the harness.
type Config struct {
	// Latency is the simulated one-way network latency (default 200µs).
	Latency time.Duration
	// Duration bounds each throughput measurement window (default
	// 150ms).
	Duration time.Duration
	// Dir roots cluster state (default: temp dirs).
	Dir string
}

func (c Config) withDefaults() Config {
	if c.Latency == 0 {
		c.Latency = 200 * time.Microsecond
	}
	if c.Duration == 0 {
		c.Duration = 150 * time.Millisecond
	}
	return c
}

// newCluster builds an experiment cluster.
func newCluster(cfg Config, n int, opts ...khazana.ClusterOption) (*khazana.Cluster, error) {
	base := []khazana.ClusterOption{khazana.WithLatency(cfg.Latency)}
	if cfg.Dir != "" {
		base = append(base, khazana.WithStoreDir(cfg.Dir))
	}
	return khazana.NewCluster(n, append(base, opts...)...)
}

// mkRegion reserves+allocates a region on a node.
func mkRegion(ctx context.Context, n *khazana.Node, size uint64, attrs khazana.Attrs) (khazana.Addr, error) {
	start, err := n.Reserve(ctx, size, attrs, "bench")
	if err != nil {
		return khazana.Addr{}, err
	}
	if err := n.Allocate(ctx, start, "bench"); err != nil {
		return khazana.Addr{}, err
	}
	return start, nil
}

// timeOp measures one operation.
func timeOp(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// readOnce lock-reads n bytes at start on node.
func readOnce(ctx context.Context, n *khazana.Node, start khazana.Addr, size uint64) ([]byte, error) {
	lk, err := n.Lock(ctx, khazana.Range{Start: start, Size: size}, khazana.LockRead, "bench")
	if err != nil {
		return nil, err
	}
	defer lk.Unlock(ctx)
	return lk.Read(start, size)
}

// writeOnce lock-writes data at start on node.
func writeOnce(ctx context.Context, n *khazana.Node, start khazana.Addr, data []byte) error {
	lk, err := n.Lock(ctx, khazana.Range{Start: start, Size: uint64(len(data))}, khazana.LockWrite, "bench")
	if err != nil {
		return err
	}
	defer lk.Unlock(ctx)
	return lk.Write(start, data)
}

// eachPage runs fn under its own lock on every page of [start,
// start+size): the per-page baseline leg (E10's scan) is this loop —
// a batch of one, two RPCs, per remote page — not a mode inside the daemon.
func eachPage(ctx context.Context, n *khazana.Node, start khazana.Addr, size, pageSize uint64, mode khazana.LockMode, fn func(lk *khazana.Lock, page khazana.Addr) error) error {
	for off := uint64(0); off < size; off += pageSize {
		page := start.MustAdd(off)
		lk, err := n.Lock(ctx, khazana.Range{Start: page, Size: pageSize}, mode, "bench")
		if err != nil {
			return err
		}
		err = fn(lk, page)
		if uerr := lk.Unlock(ctx); err == nil {
			err = uerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// opsPerSecond runs fn in workers goroutines for the configured window and
// returns the aggregate rate.
func opsPerSecond(cfg Config, workers int, fn func(worker int) error) (float64, error) {
	var ops atomic.Int64
	var firstErr atomic.Value
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := fn(w); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				ops.Add(1)
			}
		}(w)
	}
	t0 := time.Now()
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return 0, err
	}
	return float64(ops.Load()) / elapsed, nil
}

// countRPCs returns the median of five counts of the RPCs op makes, each
// between two quiet points of the network (so the ring announces op casts
// are its own), which one run's background traffic cannot move.
func countRPCs(c *khazana.Cluster, op func() error) (uint64, error) {
	quiet := func() uint64 {
		for {
			r1, _ := c.Network.Stats()
			time.Sleep(20 * time.Millisecond)
			if r2, _ := c.Network.Stats(); r1 == r2 {
				return r2
			}
		}
	}
	var counts [5]uint64
	for i := range counts {
		before := quiet()
		if err := op(); err != nil {
			return 0, err
		}
		counts[i] = quiet() - before
	}
	slices.Sort(counts[:])
	return counts[len(counts)/2], nil
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func fmtRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.2fM ops/s", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk ops/s", r/1e3)
	default:
		return fmt.Sprintf("%.0f ops/s", r)
	}
}
