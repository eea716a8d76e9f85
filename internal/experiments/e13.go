package experiments

import (
	"context"
	"fmt"
	"time"

	"khazana"
)

// E13BatchedTransfers measures one multi-page lock against the same pages
// locked one at a time. The paper pays one home round trip per page fault
// (Figure 2); a multi-page lock collapses a remote region acquisition into
// one PageReqBatch/PageGrantBatch exchange per home and its release into
// one ReleaseBatch, so the wire cost stops scaling with the page count.
// The per-page leg is a loop of single-page locks in this harness (a batch
// of one is two RPCs, the paper's shape).
func E13BatchedTransfers(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:        "E13",
		Title:     "batched multi-page transfers — remote lock/unlock cycle, batched vs per-page",
		Predicted: "the batched path holds RPCs per cycle constant (one acquire + one release to the single home) while the per-page path pays two per page, so it wins by a growing margin as the page count and link latency rise",
	}
	ctx := context.Background()
	type leg struct {
		rpcs uint64
		dur  time.Duration
	}
	measure := func(pages int, perPage bool) (leg, error) {
		c, err := newCluster(cfg, 2)
		if err != nil {
			return leg{}, err
		}
		defer c.Close()
		size := uint64(pages) * 4096
		start, err := mkRegion(ctx, c.Node(1), size, khazana.Attrs{})
		if err != nil {
			return leg{}, err
		}
		if err := writeOnce(ctx, c.Node(1), start, make([]byte, size)); err != nil {
			return leg{}, err
		}
		// Warm the remote node's descriptor cache so the measured cycle
		// is pure lock/fetch/release traffic, no region lookup.
		if err := writeOnce(ctx, c.Node(2), start, []byte("warm")); err != nil {
			return leg{}, err
		}
		reqs0, _ := c.Network.Stats()
		var out leg
		out.dur, err = timeOp(func() error {
			if perPage {
				return eachPage(ctx, c.Node(2), start, size, 4096, khazana.LockWrite, func(lk *khazana.Lock, page khazana.Addr) error {
					if page != start {
						return nil
					}
					return lk.Write(start, []byte("batched?"))
				})
			}
			lk, err := c.Node(2).Lock(ctx, khazana.Range{Start: start, Size: size}, khazana.LockWrite, "bench")
			if err != nil {
				return err
			}
			if err := lk.Write(start, []byte("batched?")); err != nil {
				return err
			}
			return lk.Unlock(ctx)
		})
		if err != nil {
			return leg{}, err
		}
		reqs1, _ := c.Network.Stats()
		out.rpcs = reqs1 - reqs0
		return out, nil
	}
	pass := true
	for _, pages := range []int{16, 64, 256} {
		batched, err := measure(pages, false)
		if err != nil {
			return res, fmt.Errorf("batched %d pages: %w", pages, err)
		}
		perPage, err := measure(pages, true)
		if err != nil {
			return res, fmt.Errorf("per-page %d pages: %w", pages, err)
		}
		res.Rows = append(res.Rows, Row{
			Name:  fmt.Sprintf("%d pages", pages),
			Value: fmt.Sprintf("batched %d RPCs / %s", batched.rpcs, fmtDur(batched.dur)),
			Detail: fmt.Sprintf("per-page %d RPCs / %s (%.1fx)",
				perPage.rpcs, fmtDur(perPage.dur), float64(perPage.dur)/float64(batched.dur)),
		})
		// One home, no third-party sharers to invalidate: the batched
		// cycle is one acquire plus one release RPC; the per-page cycle
		// pays at least two RPCs per page. The duration margin is only
		// asserted at 64+ pages, where it clears measurement noise.
		if batched.rpcs > 4 || perPage.rpcs < 2*uint64(pages) {
			pass = false
		}
		if pages >= 64 && batched.dur >= perPage.dur {
			pass = false
		}
	}
	res.Pass = pass
	return res, nil
}
