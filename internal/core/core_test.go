package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"khazana/internal/addrmap"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/pagedir"
	"khazana/internal/region"
	"khazana/internal/security"
	"khazana/internal/transport"
	"khazana/internal/wire"
)

// testCluster spins up n daemons on a fresh simulated network. Node 1 is
// the cluster manager, map home, and genesis node.
func testCluster(t *testing.T, count int, mutate ...func(i int, cfg *Config)) (*transport.Network, []*Node) {
	t.Helper()
	net := transport.NewNetwork()
	nodes := make([]*Node, count)
	for i := 0; i < count; i++ {
		id := ktypes.NodeID(i + 1)
		tr, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			ID:             id,
			Transport:      tr,
			StoreDir:       filepath.Join(t.TempDir(), fmt.Sprintf("n%d", id)),
			ClusterManager: 1,
			MapHome:        1,
			Genesis:        id == 1,
		}
		for _, fn := range mutate {
			fn(i, &cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		nodes[i] = node
	}
	return net, nodes
}

// mkRegion reserves and allocates a region on node, returning its start.
func mkRegion(t *testing.T, n *Node, size uint64, attrs region.Attrs, principal ktypes.Principal) gaddr.Addr {
	t.Helper()
	ctx := context.Background()
	start, err := n.Reserve(ctx, size, attrs, principal)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Allocate(ctx, start, principal); err != nil {
		t.Fatal(err)
	}
	return start
}

// storedCopy returns a private copy of the page's contents in n's store.
func storedCopy(n *Node, page gaddr.Addr) ([]byte, bool) {
	f, ok := n.Store().Get(page)
	if !ok {
		return nil, false
	}
	defer f.Release()
	return append([]byte(nil), f.Bytes()...), true
}

// entryOf returns the page's directory entry on n, if n lists one.
func entryOf(n *Node, page gaddr.Addr) (pagedir.Entry, bool) {
	if tab := n.dir.Find(page); tab != nil {
		return tab.Lookup(page)
	}
	return pagedir.Entry{}, false
}

func TestSingleNodeLifecycle(t *testing.T) {
	_, nodes := testCluster(t, 1)
	n := nodes[0]
	ctx := context.Background()

	start := mkRegion(t, n, 8192, region.Attrs{}, "alice")
	lc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 8192}, ktypes.LockWrite, "alice")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello khazana")
	if err := n.Write(lc, start.MustAdd(100), msg); err != nil {
		t.Fatal(err)
	}
	got, err := n.Read(lc, start.MustAdd(100), uint64(len(msg)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q", got)
	}
	if err := n.Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}
	// Reads after unlock fail.
	if _, err := n.Read(lc, start, 1); !errors.Is(err, ErrBadLock) {
		t.Fatalf("read after unlock: %v", err)
	}
}

func TestCrossNodeSharing(t *testing.T) {
	_, nodes := testCluster(t, 3)
	ctx := context.Background()
	start := mkRegion(t, nodes[1], 4096, region.Attrs{}, "alice")

	// Write on node 2 (the home), read on node 3.
	lc, err := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Write(lc, start, []byte("shared state")); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}

	rlc, err := nodes[2].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "bob")
	if err != nil {
		t.Fatal(err)
	}
	got, err := nodes[2].Read(rlc, start, 12)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared state" {
		t.Fatalf("node 3 read %q", got)
	}
	if err := nodes[2].Unlock(ctx, rlc); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSpanningPages(t *testing.T) {
	_, nodes := testCluster(t, 2)
	ctx := context.Background()
	start := mkRegion(t, nodes[1], 3*4096, region.Attrs{}, "alice")

	lc, err := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 3 * 4096}, ktypes.LockWrite, "alice")
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB across 3 pages
	off := start.MustAdd(2048)
	if err := nodes[1].Write(lc, off, big); err != nil {
		t.Fatal(err)
	}
	got, err := nodes[1].Read(lc, off, uint64(len(big)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("page-spanning write corrupted")
	}
	_ = nodes[1].Unlock(ctx, lc)

	// And the data survives a remote fetch.
	rlc, err := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 3 * 4096}, ktypes.LockRead, "x")
	if err != nil {
		t.Fatal(err)
	}
	got, _ = nodes[0].Read(rlc, off, uint64(len(big)))
	if !bytes.Equal(got, big) {
		t.Fatal("remote read of spanning write corrupted")
	}
	_ = nodes[0].Unlock(ctx, rlc)
}

func TestLookupPathStages(t *testing.T) {
	_, nodes := testCluster(t, 3)
	ctx := context.Background()
	// Region homed on node 1 (manager).
	start := mkRegion(t, nodes[0], 4096, region.Attrs{}, "alice")
	// Announces are asynchronous; wait for the partition to converge so
	// the cold lookup below deterministically one-hops.
	nodes[0].RingSettle()

	// Node 3 has never seen the region: full lookup.
	n3 := nodes[2]
	if _, err := n3.GetAttr(ctx, start); err != nil {
		t.Fatal(err)
	}
	ringHits := n3.Statistics().RingHits.Load()
	walks := n3.Statistics().TreeWalks.Load()
	clusterHits := n3.Statistics().ClusterHits.Load()
	if ringHits+walks+clusterHits == 0 {
		t.Fatal("first lookup should have gone past the region directory")
	}
	// The ring partition resolves the cold miss before the legacy stages
	// get a chance: no tree walk, no cluster hint.
	if ringHits == 0 {
		t.Fatalf("cold lookup should resolve through the ring (walks=%d clusterHits=%d)", walks, clusterHits)
	}
	if walks+clusterHits != 0 {
		t.Fatalf("ring hit should preempt the legacy stages (walks=%d clusterHits=%d)", walks, clusterHits)
	}
	// Second lookup: region directory hit.
	if _, err := n3.GetAttr(ctx, start); err != nil {
		t.Fatal(err)
	}
	if n3.Statistics().DirHits.Load() == 0 {
		t.Fatal("second lookup should hit the region directory")
	}
}

func TestNotAllocatedGate(t *testing.T) {
	_, nodes := testCluster(t, 1)
	ctx := context.Background()
	start, err := nodes[0].Reserve(ctx, 4096, region.Attrs{}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	_, err = nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "alice")
	if !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("lock before allocate: %v", err)
	}
	if err := nodes[0].Allocate(ctx, start, "alice"); err != nil {
		t.Fatal(err)
	}
	lc, err := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "alice")
	if err != nil {
		t.Fatal(err)
	}
	_ = nodes[0].Unlock(ctx, lc)
	// Free drops storage and gates again.
	if err := nodes[0].Free(ctx, start, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "alice"); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("lock after free: %v", err)
	}
}

func TestAccessControl(t *testing.T) {
	_, nodes := testCluster(t, 2)
	ctx := context.Background()
	attrs := region.Attrs{ACL: security.Private("alice").Grant("bob", security.PermRead)}
	start := mkRegion(t, nodes[0], 4096, attrs, "alice")

	// bob can read but not write.
	if _, err := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "bob"); err != nil {
		t.Fatalf("bob read: %v", err)
	}
	if _, err := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "bob"); err == nil {
		t.Fatal("bob write should be denied")
	}
	// mallory can do nothing.
	if _, err := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "mallory"); err == nil {
		t.Fatal("mallory read should be denied")
	}
	// Unreserve needs admin.
	if err := nodes[1].Unreserve(ctx, start, "bob"); err == nil {
		t.Fatal("bob unreserve should be denied")
	}
}

// TestUnreserve checks Unreserve's invariant from the forwarding side:
// once it returns, the caller — here also a bucket owner of the region —
// never resolves the region again. 200 rounds on one cluster: the ring
// announces racing the destroy are asynchronous, so a single round passed
// most of the time even when the invariant did not hold.
func TestUnreserve(t *testing.T) {
	_, nodes := testCluster(t, 2)
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		start := mkRegion(t, nodes[1], 4096, region.Attrs{}, "alice")
		// Unreserve from the other node (forwarded to home).
		if err := nodes[0].Unreserve(ctx, start, "alice"); err != nil {
			t.Fatal(err)
		}
		if _, err := nodes[0].GetAttr(ctx, start); err == nil {
			t.Fatalf("round %d: region should be gone", i)
		}
	}
}

func TestSetGetAttr(t *testing.T) {
	_, nodes := testCluster(t, 2)
	ctx := context.Background()
	start := mkRegion(t, nodes[0], 4096, region.Attrs{}, "alice")

	d, err := nodes[1].GetAttr(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	attrs := d.Attrs
	attrs.MinReplicas = 3
	if err := nodes[1].SetAttr(ctx, start, attrs, "alice"); err != nil {
		t.Fatal(err)
	}
	d2, err := nodes[1].GetAttr(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Attrs.MinReplicas != 3 {
		t.Fatalf("MinReplicas = %d", d2.Attrs.MinReplicas)
	}
	if d2.Epoch <= d.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", d.Epoch, d2.Epoch)
	}
	// Page size cannot change after reservation.
	attrs.PageSize = 16384
	if err := nodes[1].SetAttr(ctx, start, attrs, "alice"); err == nil {
		t.Fatal("page size change should be rejected")
	}
}

func TestCustomPageSize(t *testing.T) {
	_, nodes := testCluster(t, 1)
	ctx := context.Background()
	start := mkRegion(t, nodes[0], 64*1024, region.Attrs{PageSize: 16384}, "alice")
	d, err := nodes[0].GetAttr(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	if d.Attrs.PageSize != 16384 {
		t.Fatalf("page size = %d", d.Attrs.PageSize)
	}
	pages := d.Pages(0, d.Range.Size)
	if len(pages) != 4 {
		t.Fatalf("64K region with 16K pages = %d pages", len(pages))
	}
}

func TestLockRangeValidation(t *testing.T) {
	_, nodes := testCluster(t, 1)
	ctx := context.Background()
	start := mkRegion(t, nodes[0], 8192, region.Attrs{}, "alice")

	// Lock escaping the region fails.
	if _, err := nodes[0].Lock(ctx, gaddr.Range{Start: start.MustAdd(4096), Size: 8192}, ktypes.LockRead, "alice"); err == nil {
		t.Fatal("escaping lock should fail")
	}
	// Read/write outside the locked subrange fails.
	lc, err := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer nodes[0].Unlock(ctx, lc)
	if _, err := nodes[0].Read(lc, start.MustAdd(4000), 200); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range read: %v", err)
	}
	if err := nodes[0].Write(lc, start.MustAdd(5000), []byte("x")); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range write: %v", err)
	}
	// Read-mode context cannot write.
	rlc, err := nodes[0].Lock(ctx, gaddr.Range{Start: start.MustAdd(4096), Size: 4096}, ktypes.LockRead, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer nodes[0].Unlock(ctx, rlc)
	if err := nodes[0].Write(rlc, start.MustAdd(4096), []byte("x")); err == nil {
		t.Fatal("write under read lock should fail")
	}
}

func TestConcurrentCountersAcrossNodes(t *testing.T) {
	_, nodes := testCluster(t, 4)
	ctx := context.Background()
	start := mkRegion(t, nodes[0], 4096, region.Attrs{}, "")

	const perNode = 10
	var wg sync.WaitGroup
	errs := make([]error, len(nodes))
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			for j := 0; j < perNode; j++ {
				lc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 8}, ktypes.LockWrite, "")
				if err != nil {
					errs[i] = err
					return
				}
				buf, err := n.Read(lc, start, 8)
				if err != nil {
					errs[i] = err
					return
				}
				v := uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24
				v++
				out := []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), 0, 0, 0, 0}
				if err := n.Write(lc, start, out); err != nil {
					errs[i] = err
					return
				}
				if err := n.Unlock(ctx, lc); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
	}
	lc, err := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 8}, ktypes.LockRead, "")
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := nodes[0].Read(lc, start, 8)
	_ = nodes[0].Unlock(ctx, lc)
	got := uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24
	if got != uint64(len(nodes)*perNode) {
		t.Fatalf("counter = %d, want %d", got, len(nodes)*perNode)
	}
}

func TestReleaseRetryAfterHomeOutage(t *testing.T) {
	net, nodes := testCluster(t, 2)
	ctx := context.Background()
	start := mkRegion(t, nodes[0], 4096, region.Attrs{}, "")

	lc, err := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Write(lc, start, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	// The home vanishes before the release.
	net.Crash(1)
	if err := nodes[1].Unlock(ctx, lc); err != nil {
		t.Fatalf("release errors must not surface (§3.5): %v", err)
	}
	if nodes[1].PendingRetries() == 0 {
		t.Fatal("failed release should be queued")
	}
	// Home returns; the background retry drains.
	net.Restart(1)
	nodes[1].RunRetries()
	if nodes[1].PendingRetries() != 0 {
		t.Fatal("retry queue should drain after home restart")
	}
	// The dirty data reached the home.
	hlc, err := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := nodes[0].Read(hlc, start, 5)
	_ = nodes[0].Unlock(ctx, hlc)
	if string(got) != "dirty" {
		t.Fatalf("home read %q after retry", got)
	}
}

func TestReplicaMaintenanceAndFailover(t *testing.T) {
	net, nodes := testCluster(t, 3)
	ctx := context.Background()
	attrs := region.Attrs{MinReplicas: 2}
	start := mkRegion(t, nodes[0], 4096, attrs, "")

	// Write some data at the home.
	lc, err := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	_ = nodes[0].Write(lc, start, []byte("replicated"))
	_ = nodes[0].Unlock(ctx, lc)

	// Maintain replicas: the home recruits a secondary and pushes pages.
	nodes[0].MaintainReplicas()
	d, err := nodes[0].GetAttr(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Home) < 2 {
		t.Fatalf("homes = %v, want 2 after maintenance", d.Home)
	}
	secondary := d.Home[1]
	secNode := nodes[secondary-1]
	if sd := secNode.authDescByStart(start); sd == nil {
		t.Fatal("secondary home lacks the descriptor")
	}

	// Kill the primary; a fresh client must fail over via promotion.
	net.Crash(1)
	third := nodes[2]
	if third.ID() == secondary {
		third = nodes[1]
	}
	// Ensure the client has a cached descriptor pointing at the dead
	// primary (realistic stale state).
	third.RegionDir().Insert(d)
	flc, err := third.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
	if err != nil {
		t.Fatalf("failover lock: %v", err)
	}
	got, _ := third.Read(flc, start, 10)
	_ = third.Unlock(ctx, flc)
	if string(got) != "replicated" {
		t.Fatalf("failover read %q", got)
	}
	if third.Statistics().Promotions.Load() == 0 && secNode.Statistics().Promotions.Load() == 0 {
		t.Fatal("no promotion recorded")
	}
}

// TestLateReplicaPutKeepsNewerBytes: a replica push older than the version
// a node holds — a late maintenance or migration push — is acknowledged
// but neither stores its bytes nor moves the page's label back.
func TestLateReplicaPutKeepsNewerBytes(t *testing.T) {
	_, nodes := testCluster(t, 2)
	ctx := context.Background()
	start := mkRegion(t, nodes[0], 4096, region.Attrs{}, "")
	push := func(version uint64, fill byte) {
		t.Helper()
		put := &wire.ReplicaPut{From: 1, Items: []wire.UpdateItem{{Page: start, Data: bytes.Repeat([]byte{fill}, 4096), Version: version}}}
		if resp, err := nodes[0].Request(ctx, 2, put); err != nil {
			t.Fatalf("push of v%d: %v", version, err)
		} else if ack, ok := resp.(*wire.Ack); !ok || ack.Err != "" {
			t.Fatalf("push of v%d answered %+v", version, resp)
		}
	}
	push(5, 0x55)
	push(4, 0x44) // late
	got, ok := storedCopy(nodes[1], start)
	if !ok {
		t.Fatal("replica holds no copy")
	}
	if e, _ := entryOf(nodes[1], start); got[0] != 0x55 || e.Version != 5 {
		t.Fatalf("replica holds %#x labeled v%d after a late push, want 0x55 labeled v5", got[0], e.Version)
	}
}

func TestEvictionToDiskAndBack(t *testing.T) {
	_, nodes := testCluster(t, 1, func(i int, cfg *Config) {
		cfg.MemPages = 4
	})
	ctx := context.Background()
	n := nodes[0]
	start := mkRegion(t, n, 32*4096, region.Attrs{}, "")

	lc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 32 * 4096}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := n.Write(lc, start.MustAdd(uint64(i)*4096), []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}
	if n.Store().Disk().Len() == 0 {
		t.Fatal("RAM pressure should have demoted pages to disk")
	}
	// Everything reads back.
	rlc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 32 * 4096}, ktypes.LockRead, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		got, err := n.Read(rlc, start.MustAdd(uint64(i)*4096), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+1) {
			t.Fatalf("page %d = %d", i, got[0])
		}
	}
	_ = n.Unlock(ctx, rlc)
}

func TestFigure2TraceSequence(t *testing.T) {
	var mu sync.Mutex
	var steps []string
	_, nodes := testCluster(t, 2, func(i int, cfg *Config) {
		if i == 1 {
			cfg.Tracer = func(step string) {
				mu.Lock()
				steps = append(steps, step)
				mu.Unlock()
			}
		}
	})
	ctx := context.Background()
	start := mkRegion(t, nodes[0], 4096, region.Attrs{}, "")

	// Remote <lock, fetch> from node 2 for a page owned by node 1.
	lc, err := nodes[1].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[1].Read(lc, start, 16); err != nil {
		t.Fatal(err)
	}
	_ = nodes[1].Unlock(ctx, lc)

	mu.Lock()
	defer mu.Unlock()
	joined := strings.Join(steps, " → ")
	for _, want := range []string{"1:obtain-region-descriptor", "6:request-credentials", "10:ownership-granted", "11:lock-granted", "12-13:data-supplied"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace missing %q: %s", want, joined)
		}
	}
}

func TestHeartbeatFeedsManagerHints(t *testing.T) {
	_, nodes := testCluster(t, 3)
	start := mkRegion(t, nodes[1], 4096, region.Attrs{}, "")
	nodes[1].SendHeartbeat()
	mgr := nodes[0].Manager()
	if mgr == nil {
		t.Fatal("node 1 should run the manager")
	}
	hints, found := mgr.Query(start)
	if !found || len(hints) == 0 || hints[0] != 2 {
		t.Fatalf("manager hints = %v, %v", hints, found)
	}
}

func TestWireClientOps(t *testing.T) {
	// Drive a daemon purely through the client message set, as a remote
	// (TCP) client would.
	net, nodes := testCluster(t, 1)
	_ = nodes
	client, err := net.Attach(99)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := func(m wire.Msg) wire.Msg {
		t.Helper()
		resp, err := client.Request(ctx, 1, m)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	res := req(&wire.CReserve{Size: 4096, Attrs: region.DefaultAttrs(), Principal: "cli"}).(*wire.CReserveResp)
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if ack := req(&wire.CAllocate{Start: res.Start, Principal: "cli"}).(*wire.Ack); ack.Err != "" {
		t.Fatal(ack.Err)
	}
	lockResp := req(&wire.CLock{Range: gaddr.Range{Start: res.Start, Size: 4096}, Mode: ktypes.LockWrite, Principal: "cli"}).(*wire.CLockResp)
	if lockResp.Err != "" {
		t.Fatal(lockResp.Err)
	}
	if ack := req(&wire.CWrite{LockID: lockResp.LockID, Addr: res.Start, Data: []byte("via wire")}).(*wire.Ack); ack.Err != "" {
		t.Fatal(ack.Err)
	}
	data := req(&wire.CRead{LockID: lockResp.LockID, Addr: res.Start, Len: 8}).(*wire.CData)
	if data.Err != "" || string(data.Data) != "via wire" {
		t.Fatalf("CRead = %q, %s", data.Data, data.Err)
	}
	if ack := req(&wire.CUnlock{LockID: lockResp.LockID}).(*wire.Ack); ack.Err != "" {
		t.Fatal(ack.Err)
	}
	info := req(&wire.CGetAttr{Addr: res.Start}).(*wire.RegionInfo)
	if !info.Found {
		t.Fatal("CGetAttr not found")
	}
	if ack := req(&wire.CUnreserve{Start: res.Start, Principal: "cli"}).(*wire.Ack); ack.Err != "" {
		t.Fatal(ack.Err)
	}
}

func TestManyRegionsForceTreeGrowth(t *testing.T) {
	_, nodes := testCluster(t, 2)
	ctx := context.Background()
	// Insert enough regions to split the address map root.
	for i := 0; i < 170; i++ {
		if _, err := nodes[0].Reserve(ctx, 4096, region.Attrs{}, ""); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
	}
	depth, err := nodes[0].AddressMap().Depth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if depth < 2 {
		t.Fatalf("map depth = %d, want >= 2", depth)
	}
}

func TestEventualRegionEndToEnd(t *testing.T) {
	_, nodes := testCluster(t, 3)
	ctx := context.Background()
	attrs := region.Attrs{Level: region.Weak}
	start := mkRegion(t, nodes[0], 4096, attrs, "")

	d, _ := nodes[0].GetAttr(ctx, start)
	if d.Attrs.Protocol != region.Eventual {
		t.Fatalf("protocol = %v", d.Attrs.Protocol)
	}
	// Seed replicas on all nodes, write on one, verify convergence.
	for _, n := range nodes {
		lc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
		if err != nil {
			t.Fatal(err)
		}
		_ = n.Unlock(ctx, lc)
	}
	lc, err := nodes[2].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	_ = nodes[2].Write(lc, start, []byte("eventually"))
	_ = nodes[2].Unlock(ctx, lc)

	deadline := time.Now().Add(2 * time.Second)
	for _, n := range nodes {
		for {
			rlc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
			if err != nil {
				t.Fatal(err)
			}
			got, _ := n.Read(rlc, start, 10)
			_ = n.Unlock(ctx, rlc)
			if string(got) == "eventually" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%v never converged: %q", n.ID(), got)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestReleaseProtocolRegion(t *testing.T) {
	_, nodes := testCluster(t, 3)
	ctx := context.Background()
	attrs := region.Attrs{Level: region.Relaxed}
	start := mkRegion(t, nodes[1], 4096, attrs, "")

	lc, err := nodes[2].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	_ = nodes[2].Write(lc, start, []byte("rc data"))
	_ = nodes[2].Unlock(ctx, lc)

	// RC: a subsequent acquire anywhere sees the released write.
	rlc, err := nodes[0].Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockRead, "")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := nodes[0].Read(rlc, start, 7)
	_ = nodes[0].Unlock(ctx, rlc)
	if string(got) != "rc data" {
		t.Fatalf("read %q", got)
	}
}

// A release-protocol copy at version 0 is still a copy: a non-home node
// whose push of a fresh page failed keeps its bytes when it locks the
// page again, and the queued retry then delivers those bytes home.
func TestReleaseRelockBeforeRetryKeepsDirtyCopy(t *testing.T) {
	net, nodes := testCluster(t, 3)
	ctx := context.Background()
	start := mkRegion(t, nodes[1], 4096, region.Attrs{Level: region.Relaxed}, "")
	rng := gaddr.Range{Start: start, Size: 4096}

	lc, err := nodes[2].Lock(ctx, rng, ktypes.LockWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].Write(lc, start, []byte("unpushed")); err != nil {
		t.Fatal(err)
	}
	net.Partition(3, 2)
	if err := nodes[2].Unlock(ctx, lc); err != nil {
		t.Fatalf("release errors must not surface (§3.5): %v", err)
	}
	if nodes[2].PendingRetries() == 0 {
		t.Fatal("failed release should be queued")
	}
	net.Heal(3, 2)

	read := func(n *Node) string {
		t.Helper()
		lc, err := n.Lock(ctx, rng, ktypes.LockRead, "")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = n.Unlock(ctx, lc) }()
		got, _ := n.Read(lc, start, 8)
		return string(got)
	}
	if got := read(nodes[2]); got != "unpushed" {
		t.Fatalf("writer reads %q before the retry, want its own bytes", got)
	}
	nodes[2].RunRetries()
	if n := nodes[2].PendingRetries(); n != 0 {
		t.Fatalf("%d releases still queued after RunRetries", n)
	}
	if got := read(nodes[0]); got != "unpushed" {
		t.Fatalf("third node reads %q after the retry", got)
	}
}

// The op spans' durations feed the latency histograms: exactly one
// lock-latency sample per granted lock and one release-latency sample per
// unlock, while a refused Lock records its span but no grant latency.
func TestLockLatencyObservedOncePerGrant(t *testing.T) {
	_, nodes := testCluster(t, 1)
	n := nodes[0]
	ctx := context.Background()
	start := mkRegion(t, n, 4096, region.Attrs{ACL: security.Private("alice")}, "alice")
	rng := gaddr.Range{Start: start, Size: 4096}

	spans := func(name string) (count int) {
		for _, s := range n.TraceSpans() {
			if s.Name == name {
				count++
			}
		}
		return count
	}
	locks, releases, lockSpans := n.mLockLatency.Count(), n.mReleaseLatency.Count(), spans("op.lock")
	for i := 0; i < 3; i++ {
		lc, err := n.Lock(ctx, rng, ktypes.LockRead, "alice")
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Unlock(ctx, lc); err != nil {
			t.Fatal(err)
		}
		if err := n.Unlock(ctx, lc); !errors.Is(err, ErrBadLock) {
			t.Fatalf("second Unlock = %v, want ErrBadLock", err)
		}
	}
	if _, err := n.Lock(ctx, rng, ktypes.LockRead, "mallory"); err == nil {
		t.Fatal("stranger's lock granted")
	}
	if got := n.mLockLatency.Count() - locks; got != 3 {
		t.Fatalf("%d lock-latency samples for 3 grants and 1 refusal", got)
	}
	if got := n.mReleaseLatency.Count() - releases; got != 3 {
		t.Fatalf("%d release-latency samples for 3 unlocks", got)
	}
	if got := spans("op.lock") - lockSpans; got != 4 {
		t.Fatalf("%d op.lock spans for 4 Lock calls", got)
	}
}

// TestMapDescentLeavesParentVersion: unreserving a region that lives in a
// child tree node rewrites that child only. Descending through the root
// must not write the root back, or every unreserve would bump the root
// page's version and invalidate each remote reader's cached root for
// nothing.
func TestMapDescentLeavesParentVersion(t *testing.T) {
	_, nodes := testCluster(t, 2)
	ctx := context.Background()
	// More regions than a tree node holds: the root splits, and its first
	// entries move to a child node on map page 1.
	var starts []gaddr.Addr
	for i := 0; i < 100; i++ {
		starts = append(starts, mkRegion(t, nodes[1], 4096, region.Attrs{}, "alice"))
	}
	if _, steps, err := nodes[0].AddressMap().Lookup(ctx, starts[0]); err != nil || steps != 2 {
		t.Fatalf("first region: %d lookup steps, %v; want it in the root's child", steps, err)
	}
	rootPage, childPage := gaddr.Zero, gaddr.FromUint64(addrmap.PageSize)
	home := nodes[0] // the map home
	root, _ := entryOf(home, rootPage)
	child, _ := entryOf(home, childPage)
	if err := nodes[1].Unreserve(ctx, starts[0], "alice"); err != nil {
		t.Fatal(err)
	}
	rootAfter, _ := entryOf(home, rootPage)
	childAfter, _ := entryOf(home, childPage)
	if rootAfter.Version != root.Version {
		t.Fatalf("root map page version %d → %d: the unreserve's descent wrote the root back", root.Version, rootAfter.Version)
	}
	if childAfter.Version <= child.Version {
		t.Fatalf("child map page version %d → %d: the unreserve did not write the child", child.Version, childAfter.Version)
	}
	if _, _, err := nodes[0].AddressMap().Lookup(ctx, starts[0]); !errors.Is(err, addrmap.ErrNotFound) {
		t.Fatalf("lookup of the unreserved region: %v", err)
	}
}
