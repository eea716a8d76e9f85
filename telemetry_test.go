package khazana

import (
	"context"
	"path/filepath"
	"testing"

	"khazana/internal/telemetry"
	"khazana/internal/transport"
)

// TestTCPTracePropagation proves the tentpole's causal-tracing claim over
// the real wire: a lock acquired on node 2 against a region homed on node
// 1 yields ONE trace whose spans land in both nodes' recorders, with the
// remote handler span parented under the originating op span.
func TestTCPTracePropagation(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	n1, err := StartNode(ctx, NodeConfig{
		ID:         1,
		ListenAddr: "127.0.0.1:0",
		StoreDir:   filepath.Join(dir, "n1"),
		Genesis:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()

	tr2, err := transport.NewTCP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr2.AddPeer(1, n1.Addr())
	n2, err := StartNode(ctx, NodeConfig{
		ID:             2,
		Transport:      tr2,
		StoreDir:       filepath.Join(dir, "n2"),
		ClusterManager: 1,
		MapHome:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	n1.AddPeer(2, tr2.Addr())

	// The region homes on node 1; node 2's lock must cross the wire.
	start, err := n1.Reserve(ctx, 4096, Attrs{}, "trace")
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Allocate(ctx, start, "trace"); err != nil {
		t.Fatal(err)
	}
	lk, err := n2.Lock(ctx, Range{Start: start, Size: 4096}, LockWrite, "trace")
	if err != nil {
		t.Fatal(err)
	}
	if err := lk.Write(start, []byte("traced")); err != nil {
		t.Fatal(err)
	}
	if err := lk.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	// Node 2 recorded the op spans; find the lock op's trace.
	var opSpan telemetry.SpanRecord
	for _, s := range n2.Core().TraceSpans() {
		if s.Name == "op.lock" {
			opSpan = s
		}
	}
	if opSpan.Trace == 0 {
		t.Fatalf("node 2 recorded no op.lock span: %+v", n2.Core().TraceSpans())
	}
	if opSpan.Node != 2 {
		t.Fatalf("op.lock span attributed to node %d, want 2", opSpan.Node)
	}

	// Node 1 must hold handler spans of the SAME trace, attributed to
	// node 1, parented (directly or transitively) under node 2's spans.
	var remote []telemetry.SpanRecord
	for _, s := range n1.Core().TraceSpans() {
		if s.Trace == opSpan.Trace {
			remote = append(remote, s)
		}
	}
	if len(remote) == 0 {
		t.Fatalf("node 1 recorded no spans for trace %v: %+v", opSpan.Trace, n1.Core().TraceSpans())
	}
	for _, s := range remote {
		if s.Node != 1 {
			t.Errorf("remote span %q attributed to node %d, want 1", s.Name, s.Node)
		}
		if s.Parent == 0 {
			t.Errorf("remote span %q has no parent; handler spans must be children", s.Name)
		}
	}

	// Unlock crossed the wire under its own op span of a different trace.
	var unlockTrace telemetry.TraceID
	for _, s := range n2.Core().TraceSpans() {
		if s.Name == "op.unlock" {
			unlockTrace = s.Trace
		}
	}
	if unlockTrace == 0 {
		t.Fatal("node 2 recorded no op.unlock span")
	}
	if unlockTrace == opSpan.Trace {
		t.Fatal("lock and unlock ops should root distinct traces")
	}
}

// TestClientMetricsTracesPing exercises the khazctl-facing surface: the
// StatsQuery/StatsReply wire kinds behind Client.Metrics and
// Client.Traces, and the timestamped ping RTT measurement.
func TestClientMetricsTracesPing(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := context.Background()
	n1 := c.Node(1)

	start, err := n1.Reserve(ctx, 8192, Attrs{}, "obs")
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Allocate(ctx, start, "obs"); err != nil {
		t.Fatal(err)
	}
	lk, err := c.Node(2).Lock(ctx, Range{Start: start, Size: 8192}, LockWrite, "obs")
	if err != nil {
		t.Fatal(err)
	}
	if err := lk.Write(start, []byte("observed")); err != nil {
		t.Fatal(err)
	}
	if err := lk.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	tr, err := c.Network.Attach(ClientID(1))
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(tr, 2, "obs")

	m, err := cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Node != 2 {
		t.Fatalf("metrics from node %v, want 2", m.Node)
	}
	counters := make(map[string]int64)
	for _, cv := range m.Counters {
		counters[cv.Name] = cv.Value
	}
	if counters[telemetry.MetricLocksGranted] < 1 {
		t.Fatalf("locks_granted = %d, want >= 1 (counters %v)", counters[telemetry.MetricLocksGranted], counters)
	}
	if counters[telemetry.MetricLookups] < 1 {
		t.Fatalf("lookups = %d, want >= 1", counters[telemetry.MetricLookups])
	}
	hists := make(map[string]HistogramValue)
	for _, h := range m.Histograms {
		hists[h.Name] = h
	}
	if h := hists[telemetry.MetricLockLatency]; h.Count < 1 {
		t.Fatalf("lock latency histogram empty: %+v", m.Histograms)
	}
	if h := hists[telemetry.MetricLockBatchPages]; h.Count < 1 || h.Sum < 2 {
		t.Fatalf("batch pages histogram count=%d sum=%d, want a 2-page batch", h.Count, h.Sum)
	}

	spans, err := cli.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range spans {
		if s.Name == "op.lock" && s.Node == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("daemon traces missing op.lock span: %+v", spans)
	}

	rtt, err := cli.Ping(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Fatalf("ping RTT = %v, want > 0", rtt)
	}
}
