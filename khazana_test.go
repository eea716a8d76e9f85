package khazana

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"khazana/internal/telemetry"
	"khazana/internal/transport"
)

func newTestCluster(t *testing.T, n int, opts ...ClusterOption) *Cluster {
	t.Helper()
	opts = append([]ClusterOption{WithStoreDir(t.TempDir())}, opts...)
	c, err := NewCluster(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestQuickstartFlow(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := context.Background()
	n1 := c.Node(1)

	start, err := n1.Reserve(ctx, 8192, Attrs{}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Allocate(ctx, start, "alice"); err != nil {
		t.Fatal(err)
	}
	lk, err := n1.Lock(ctx, Range{Start: start, Size: 8192}, LockWrite, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := lk.Write(start, []byte("global memory")); err != nil {
		t.Fatal(err)
	}
	if err := lk.Unlock(ctx); err != nil {
		t.Fatal(err)
	}

	// Any node can read it (location transparency).
	for i := 2; i <= 3; i++ {
		rl, err := c.Node(i).Lock(ctx, Range{Start: start, Size: 8192}, LockRead, "bob")
		if err != nil {
			t.Fatalf("node %d lock: %v", i, err)
		}
		got, err := rl.Read(start, 13)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "global memory" {
			t.Fatalf("node %d read %q", i, got)
		}
		_ = rl.Unlock(ctx)
	}
}

func TestLockAccessors(t *testing.T) {
	c := newTestCluster(t, 1)
	ctx := context.Background()
	n := c.Node(1)
	start, _ := n.Reserve(ctx, 4096, Attrs{}, "")
	_ = n.Allocate(ctx, start, "")
	lk, err := n.Lock(ctx, Range{Start: start, Size: 4096}, LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Unlock(ctx)
	if lk.ID() == 0 {
		t.Error("lock ID should be nonzero")
	}
	if lk.Mode() != LockWrite {
		t.Errorf("mode = %v", lk.Mode())
	}
	if lk.Range().Start != start {
		t.Errorf("range = %v", lk.Range())
	}
}

func TestAddNodeDynamically(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := context.Background()
	start, _ := c.Node(1).Reserve(ctx, 4096, Attrs{}, "")
	_ = c.Node(1).Allocate(ctx, start, "")
	lk, _ := c.Node(1).Lock(ctx, Range{Start: start, Size: 4096}, LockWrite, "")
	_ = lk.Write(start, []byte("pre-join"))
	_ = lk.Unlock(ctx)

	// A node that joins later can read existing state.
	n3, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	rl, err := n3.Lock(ctx, Range{Start: start, Size: 4096}, LockRead, "")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := rl.Read(start, 8)
	_ = rl.Unlock(ctx)
	if string(got) != "pre-join" {
		t.Fatalf("late joiner read %q", got)
	}
}

func TestClusterCrashRestartHelpers(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := context.Background()
	start, _ := c.Node(2).Reserve(ctx, 4096, Attrs{}, "")
	_ = c.Node(2).Allocate(ctx, start, "")

	c.Crash(2)
	_, err := c.Node(3).Lock(ctx, Range{Start: start, Size: 4096}, LockRead, "")
	if err == nil {
		t.Fatal("lock against crashed single home should fail")
	}
	c.Restart(2)
	lk, err := c.Node(3).Lock(ctx, Range{Start: start, Size: 4096}, LockRead, "")
	if err != nil {
		t.Fatalf("after restart: %v", err)
	}
	_ = lk.Unlock(ctx)
}

func TestInprocClientSessions(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := context.Background()
	tr, err := c.Network.Attach(ClientID(1))
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(tr, 2, "carol")
	start, err := cli.Reserve(ctx, 4096, Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Allocate(ctx, start); err != nil {
		t.Fatal(err)
	}
	lk, err := cli.Lock(ctx, Range{Start: start, Size: 4096}, LockWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := lk.Write(ctx, start, []byte("client data")); err != nil {
		t.Fatal(err)
	}
	got, err := lk.Read(ctx, start, 11)
	if err != nil || string(got) != "client data" {
		t.Fatalf("read %q, %v", got, err)
	}
	if err := lk.Unlock(ctx); err != nil {
		t.Fatal(err)
	}
	d, err := cli.GetAttr(ctx, start)
	if err != nil || d.Attrs.ACL.Owner != "carol" {
		t.Fatalf("attr = %+v, %v", d, err)
	}
	attrs := d.Attrs
	attrs.MinReplicas = 2
	if err := cli.SetAttr(ctx, start, attrs); err != nil {
		t.Fatal(err)
	}
	if err := cli.Free(ctx, start); err != nil {
		t.Fatal(err)
	}
	if err := cli.Unreserve(ctx, start); err != nil {
		t.Fatal(err)
	}
}

func TestTCPDeploymentEndToEnd(t *testing.T) {
	// A real two-daemon TCP deployment plus a TCP client, proving the
	// full wire path. This is the standalone khazanad configuration.
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

	// Transport first so node 1's address can be registered before the
	// daemon joins the cluster.
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

	start, err := n2.Reserve(ctx, 4096, Attrs{}, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.Allocate(ctx, start, "tcp"); err != nil {
		t.Fatal(err)
	}
	lk, err := n2.Lock(ctx, Range{Start: start, Size: 4096}, LockWrite, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	_ = lk.Write(start, []byte("over tcp"))
	_ = lk.Unlock(ctx)

	// Remote TCP client reads via node 1.
	cli, err := Dial(ClientID(7), 1, n1.Addr(), "tcp")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	rl, err := cli.Lock(ctx, Range{Start: start, Size: 4096}, LockRead)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rl.Read(ctx, start, 8)
	if err != nil || string(got) != "over tcp" {
		t.Fatalf("tcp client read %q, %v", got, err)
	}
	_ = rl.Unlock(ctx)
}

func TestParseAddrRoundTrip(t *testing.T) {
	c := newTestCluster(t, 1)
	ctx := context.Background()
	start, _ := c.Node(1).Reserve(ctx, 4096, Attrs{}, "")
	parsed, err := ParseAddr(start.String())
	if err != nil || parsed != start {
		t.Fatalf("ParseAddr(%q) = %v, %v", start.String(), parsed, err)
	}
}

func TestBackgroundLoopsRun(t *testing.T) {
	c := newTestCluster(t, 3, WithBackground(20*time.Millisecond, 20*time.Millisecond, 20*time.Millisecond))
	ctx := context.Background()
	start, err := c.Node(2).Reserve(ctx, 4096, Attrs{MinReplicas: 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Node(2).Allocate(ctx, start, ""); err != nil {
		t.Fatal(err)
	}
	lk, err := c.Node(2).Lock(ctx, Range{Start: start, Size: 4096}, LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	_ = lk.Write(start, []byte("bg"))
	_ = lk.Unlock(ctx)

	// Replica maintenance should recruit a second home automatically.
	deadline := time.Now().Add(3 * time.Second)
	for {
		d, err := c.Node(2).GetAttr(ctx, start)
		if err == nil && len(d.Home) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica maintenance never recruited a second home: %+v", d)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestManyRegionsManyNodes(t *testing.T) {
	c := newTestCluster(t, 4)
	ctx := context.Background()
	type reg struct {
		start Addr
		owner int
	}
	var regs []reg
	for i := 0; i < 40; i++ {
		owner := i%c.Len() + 1
		start, err := c.Node(owner).Reserve(ctx, 4096, Attrs{}, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Node(owner).Allocate(ctx, start, ""); err != nil {
			t.Fatal(err)
		}
		lk, err := c.Node(owner).Lock(ctx, Range{Start: start, Size: 4096}, LockWrite, "")
		if err != nil {
			t.Fatal(err)
		}
		_ = lk.Write(start, []byte(fmt.Sprintf("region-%03d", i)))
		_ = lk.Unlock(ctx)
		regs = append(regs, reg{start, owner})
	}
	// Every region is readable from every node.
	for i, r := range regs {
		reader := (r.owner % c.Len()) + 1 // a different node
		lk, err := c.Node(reader).Lock(ctx, Range{Start: r.start, Size: 4096}, LockRead, "")
		if err != nil {
			t.Fatalf("region %d from node %d: %v", i, reader, err)
		}
		got, _ := lk.Read(r.start, 10)
		_ = lk.Unlock(ctx)
		want := fmt.Sprintf("region-%03d", i)
		if !bytes.Equal(got, []byte(want)) {
			t.Fatalf("region %d = %q, want %q", i, got, want)
		}
	}
}

func TestConcurrentClientsTCPEndToEnd(t *testing.T) {
	// One daemon serving concurrent TCP clients, each on its own
	// transport: contended write locks on one shared page and per-client
	// private regions all resolve correctly over real sockets (run under
	// -race in CI).
	ctx := context.Background()
	n1, err := StartNode(ctx, NodeConfig{
		ID:         1,
		ListenAddr: "127.0.0.1:0",
		StoreDir:   filepath.Join(t.TempDir(), "n1"),
		Genesis:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()

	const clients = 4
	const cycles = 8
	clis := make([]*Client, clients)
	for i := 0; i < clients; i++ {
		tr, err := transport.NewTCP(ClientID(10+i), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		tr.AddPeer(1, n1.Addr())
		clis[i] = NewClient(tr, 1, "bench")
	}

	shared, err := clis[0].Reserve(ctx, 4096, Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	if err := clis[0].Allocate(ctx, shared); err != nil {
		t.Fatal(err)
	}
	private := make([]Addr, clients)
	for i := range private {
		start, err := clis[i].Reserve(ctx, 4096, Attrs{})
		if err != nil {
			t.Fatal(err)
		}
		if err := clis[i].Allocate(ctx, start); err != nil {
			t.Fatal(err)
		}
		private[i] = start
	}

	// Each client hammers its private region and a distinct 64-byte slot
	// of the shared page, whose write locks contend.
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli := clis[i]
			for j := 0; j < cycles; j++ {
				payload := []byte(fmt.Sprintf("c%02d-%04d", i, j))
				lk, err := cli.Lock(ctx, Range{Start: private[i], Size: 4096}, LockWrite)
				if err == nil {
					if werr := lk.Write(ctx, private[i], payload); werr != nil {
						err = werr
					}
					if uerr := lk.Unlock(ctx); err == nil {
						err = uerr
					}
				}
				if err != nil {
					errs[i] = fmt.Errorf("cycle %d private: %w", j, err)
					return
				}
				slot := shared.MustAdd(uint64(64 * i))
				lk, err = cli.Lock(ctx, Range{Start: shared, Size: 4096}, LockWrite)
				if err == nil {
					if werr := lk.Write(ctx, slot, payload); werr != nil {
						err = werr
					}
					if uerr := lk.Unlock(ctx); err == nil {
						err = uerr
					}
				}
				if err != nil {
					errs[i] = fmt.Errorf("cycle %d shared: %w", j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	// Every private region and every shared slot holds its writer's
	// final cycle; a cross client (not the writer) reads each back.
	for i := 0; i < clients; i++ {
		want := fmt.Sprintf("c%02d-%04d", i, cycles-1)
		reader := clis[(i+1)%clients]
		lk, err := reader.Lock(ctx, Range{Start: private[i], Size: 4096}, LockRead)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lk.Read(ctx, private[i], uint64(len(want)))
		_ = lk.Unlock(ctx)
		if err != nil || string(got) != want {
			t.Fatalf("private region %d = %q (%v), want %q", i, got, err, want)
		}
		lk, err = reader.Lock(ctx, Range{Start: shared, Size: 4096}, LockRead)
		if err != nil {
			t.Fatal(err)
		}
		got, err = lk.Read(ctx, shared.MustAdd(uint64(64*i)), uint64(len(want)))
		_ = lk.Unlock(ctx)
		if err != nil || string(got) != want {
			t.Fatalf("shared slot %d = %q (%v), want %q", i, got, err, want)
		}
	}

	st, err := clis[0].Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(2 * clients * cycles); st.LocksGranted < want {
		t.Fatalf("daemon granted %d locks, want >= %d", st.LocksGranted, want)
	}
}

// TestTCPFanInSharesConnections: 256 clients run lock/write/unlock cycles
// on private regions through one TCP client transport against one daemon.
// Every client sees no error, and the daemon's open-connection gauge never
// exceeds 4: the multiplexed transport carries every in-flight request
// over a few shared sockets, so connections do not grow with clients.
func TestTCPFanInSharesConnections(t *testing.T) {
	const (
		clients = 256
		cycles  = 10
		connCap = 4
	)
	ctx := context.Background()
	daemon, err := StartNode(ctx, NodeConfig{
		ID:         1,
		ListenAddr: "127.0.0.1:0",
		StoreDir:   filepath.Join(t.TempDir(), "n1"),
		Genesis:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()
	tr, err := transport.NewTCP(ClientID(1), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.AddPeer(1, daemon.Addr())

	setup := NewClient(tr, 1, "bench")
	starts := make([]Addr, clients)
	for i := range starts {
		if starts[i], err = setup.Reserve(ctx, 4096, Attrs{}); err != nil {
			t.Fatal(err)
		}
		if err := setup.Allocate(ctx, starts[i]); err != nil {
			t.Fatal(err)
		}
	}

	var peak int64
	sample := func() {
		for _, g := range daemon.Core().MetricsSnapshot().Gauges {
			if g.Name == telemetry.MetricTransportConnsOpen {
				peak = max(peak, g.Value)
			}
		}
	}
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-done:
				sample()
				return
			}
		}
	}()

	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := range starts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli := NewClient(tr, 1, "bench")
			data := make([]byte, 64)
			for j := 0; j < cycles && errs[i] == nil; j++ {
				lk, err := cli.Lock(ctx, Range{Start: starts[i], Size: uint64(len(data))}, LockWrite)
				if err != nil {
					errs[i] = err
					break
				}
				errs[i] = lk.Write(ctx, starts[i], data)
				if err := lk.Unlock(ctx); errs[i] == nil {
					errs[i] = err
				}
			}
		}(i)
	}
	wg.Wait()
	close(done)
	<-sampled
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if peak == 0 || peak > connCap {
		t.Fatalf("daemon held a peak of %d connections for %d clients, want 1..%d", peak, clients, connCap)
	}
}

// TestFailoverUnderLiveWorkload kills a MinReplicas-3 region's home in the
// middle of a client's lock/write/unlock cycle (§3.5). The release that
// straddles the crash is queued and acked; the client's next lock elects
// a log standby, which resumes from the replicated log. The client sees
// no error, the queued release drains after RunRetries, exactly one node
// other than the old home wins the election, and a fresh reader reads back
// the last acked sequence. The context is only a hang guard: failover
// time depends on host load, so it is not bounded here.
func TestFailoverUnderLiveWorkload(t *testing.T) {
	c := newTestCluster(t, 5, WithLatency(100*time.Microsecond))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	home, client := c.Node(2), c.Node(5)
	start, err := home.Reserve(ctx, 4096, Attrs{MinReplicas: 3}, "bench")
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Allocate(ctx, start, "bench"); err != nil {
		t.Fatal(err)
	}
	// Background loops are off: refresh the home's membership view, then
	// grow the home list so the standbys exist and follow the region's log.
	home.Core().SendHeartbeat()
	home.Core().MaintainReplicas()
	d, err := home.GetAttr(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Home) < 3 || d.Home[0] != 2 {
		t.Fatalf("home list %v, want node 2 first and 3 homes", d.Home)
	}

	seq, lastAck := 0, 0
	cycle := func() {
		seq++
		lk, err := client.Lock(ctx, Range{Start: start, Size: 4096}, LockWrite, "bench")
		if err != nil {
			t.Fatalf("seq %d: lock: %v", seq, err)
		}
		if err := lk.Write(start, []byte(fmt.Sprintf("seq=%08d", seq))); err != nil {
			t.Fatalf("seq %d: write: %v", seq, err)
		}
		if seq == 16 { // the home dies after the grant, before the release
			c.Crash(2)
		}
		if err := lk.Unlock(ctx); err != nil {
			t.Fatalf("seq %d: unlock: %v", seq, err)
		}
		lastAck = seq
	}
	for seq < 16 {
		cycle()
	}
	if client.Core().PendingRetries() == 0 {
		t.Fatal("the release straddling the crash was not queued for retry")
	}
	for seq < 31 {
		cycle()
	}
	client.Core().RunRetries()
	if n := client.Core().PendingRetries(); n != 0 {
		t.Fatalf("%d releases still queued after RunRetries", n)
	}

	// A node that never touched the region reads through the new home.
	lk, err := c.Node(4).Lock(ctx, Range{Start: start, Size: 12}, LockRead, "bench")
	if err != nil {
		t.Fatal(err)
	}
	got, err := lk.Read(start, 12)
	if uerr := lk.Unlock(ctx); err == nil {
		err = uerr
	}
	if want := fmt.Sprintf("seq=%08d", lastAck); err != nil || string(got) != want {
		t.Fatalf("read back %q (%v), want the last acked %q", got, err, want)
	}

	var leader NodeID
	for _, h := range d.Home[1:] {
		l, _ := c.Node(int(h)).Core().Repl().Leader(start)
		if leader == 0 {
			leader = l
		}
		if l != leader {
			t.Fatalf("standbys disagree on the leader: %d and %d", leader, l)
		}
	}
	if leader == 0 || leader == 2 {
		t.Fatalf("elected successor %d, want a standby other than the old home 2", leader)
	}
	var wins uint64
	for _, n := range c.Nodes() {
		wins += counterValue(n, telemetry.MetricReplFailovers)
	}
	if wins != 1 {
		t.Fatalf("%d elections won, want exactly one", wins)
	}
}
