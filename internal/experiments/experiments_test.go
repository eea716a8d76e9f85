package experiments

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"khazana"
	"khazana/internal/baseline"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/ring"
	"khazana/kfs"
	"khazana/kobj"
)

// TestE1Figure1 reproduces Figure 1: a five-node system with one piece of
// shared data physically replicated on nodes 3 and 5, accessed from node
// 1. Khazana locates a copy and provides it to the requester; a repeat
// access finds the descriptor cached and the copy current, so it skips the
// lookup and ships no bytes.
func TestE1Figure1(t *testing.T) {
	c := newCluster(t, 5)
	ctx := context.Background()
	start := mkRegion(t, c.Node(3), 4096, khazana.Attrs{})
	payload := []byte("the square object of figure 1")
	if err := writeOnce(ctx, c.Node(3), start, payload); err != nil {
		t.Fatal(err)
	}
	// Physically replicate on node 5: it reads and caches a copy.
	if _, err := readOnce(ctx, c.Node(5), start, 4096); err != nil {
		t.Fatal(err)
	}
	copies := 0
	for _, i := range []int{3, 5} {
		if c.Node(i).Core().Store().Contains(start) {
			copies++
		}
	}
	if copies != 2 {
		t.Errorf("physical copies on n3 and n5 = %d, want 2", copies)
	}

	read := func() error {
		data, err := readOnce(ctx, c.Node(1), start, 4096)
		if err == nil && !bytes.Equal(data[:len(payload)], payload) {
			err = fmt.Errorf("n1 read %q", data[:len(payload)])
		}
		return err
	}
	first := countRPCs(t, c, read)
	repeat := countRPCs(t, c, read)
	// First: the ring's one hop, the read grant that ships the page, its
	// release. Repeat: grant (current, no bytes) and release.
	if first != 3 || repeat != 2 {
		t.Errorf("n1 access RPCs: first %d, repeat %d; want 3 and 2", first, repeat)
	}

	for i := 1; i <= 5; i++ {
		data, err := readOnce(ctx, c.Node(i), start, uint64(len(payload)))
		if err != nil || !bytes.Equal(data, payload) {
			t.Errorf("n%d read %q, %v; want %q", i, data, err, payload)
		}
	}
}

// TestE2Figure2 reproduces Figure 2, the steps of a <lock, fetch> pair for
// a page at node A when node B owns it: node A traces them in the paper's
// order, a region-directory miss adds one lookup step, the ring's one hop
// (where the paper's optional steps 2–3 stand), and a warm lock adds none.
func TestE2Figure2(t *testing.T) {
	var mu sync.Mutex
	var trace []string
	tracer := func(node khazana.NodeID, step string) {
		if node == 2 {
			mu.Lock()
			trace = append(trace, step)
			mu.Unlock()
		}
	}
	c := newCluster(t, 2, khazana.WithTracer(tracer))
	ctx := context.Background()
	// Page p's region is homed on node B (n1) and has never been looked
	// up elsewhere, so node A's (n2's) first lock takes the cold lookup
	// path; once the region's announce has landed the ring answers it.
	start := mkRegion(t, c.Node(1), 4096, khazana.Attrs{})
	steps := func() []string {
		t.Helper()
		mu.Lock()
		trace = nil
		mu.Unlock()
		if _, err := readOnce(ctx, c.Node(2), start, 16); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return trace
	}
	want := []string{"1:obtain-region-descriptor", "2:ring-one-hop", "4:page-directory",
		"5:invoke-consistency-manager", "6:request-credentials", "10:ownership-granted",
		"11:lock-granted", "12-13:data-supplied"}
	if cold := steps(); !slices.Equal(cold, want) {
		t.Errorf("cold <lock, fetch> steps = %v, want %v", cold, want)
	}
	if warm := steps(); slices.ContainsFunc(warm, func(s string) bool { return strings.HasPrefix(s, "2") }) {
		t.Errorf("warm lock traced a lookup step: %v", warm)
	}
}

// TestE3LookupPath measures the region location path of §3.2 as this
// reproduction runs it: a region directory hit makes no RPC, a cold lookup
// from a node that does not own the region's ring bucket makes the ring's
// one hop, and the address-map tree walk that repairs a lookup the ring
// cannot answer fetches two or more tree nodes.
func TestE3LookupPath(t *testing.T) {
	c := newCluster(t, 6)
	ctx := context.Background()
	// With the heartbeat loop off a node's view is whatever its join
	// returned; one round gives every node the full view, and with it
	// the same ring.
	for _, n := range c.Nodes() {
		n.Core().SendHeartbeat()
	}
	// Enough regions to split the address-map root (depth 2+).
	var starts []khazana.Addr
	for i := 0; i < 170; i++ {
		starts = append(starts, mkRegion(t, c.Node(2), 4096, khazana.Attrs{}))
	}

	target := starts[10]
	if _, err := c.Node(3).GetAttr(ctx, target); err != nil {
		t.Fatal(err)
	}
	if hit := countRPCs(t, c, func() error {
		_, err := c.Node(3).GetAttr(ctx, target)
		return err
	}); hit != 0 {
		t.Errorf("region directory hit made %d RPCs, want 0", hit)
	}

	ringTarget := starts[11]
	var asker *khazana.Node
	for _, n := range c.Nodes()[2:] {
		if !slices.Contains(n.Core().Ring().Owners(ring.BucketOf(gaddr.Addr(ringTarget))), n.ID()) {
			asker = n
			break
		}
	}
	if asker == nil {
		t.Fatalf("every node owns the bucket of %v", ringTarget)
	}
	if hop := countRPCs(t, c, func() error {
		_, err := asker.GetAttr(ctx, ringTarget)
		return err
	}); hop != 1 {
		t.Errorf("cold ring lookup from n%d made %d RPCs, want 1", asker.ID(), hop)
	}

	_, steps, err := c.Node(6).Core().AddressMap().Lookup(ctx, gaddr.Addr(starts[12]))
	if err != nil {
		t.Fatal(err)
	}
	if steps < 2 {
		t.Errorf("cold address-map walk fetched %d tree nodes, want at least 2", steps)
	}
}

// TestE4Scalability checks §2's "performance should scale as nodes are
// added if the new nodes do not contend for access to the same regions"
// by its cost per operation: a write to a region homed on another node
// costs the same two RPCs (grant of a current copy, release) at every
// node count when each writer has its own region, so disjoint writers
// never wait on one another; writers that take turns on one region each
// pay a third, the invalidation of the previous writer's copy, and
// serialize on the region's CREW lock.
func TestE4Scalability(t *testing.T) {
	ctx := context.Background()
	payload := []byte("scalability payload")
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("nodes=%d", n), func(t *testing.T) {
			c := newCluster(t, n)
			// Writer w runs on node w+1 against a region homed on the
			// next node around the ring: always remote.
			regions := make([]khazana.Addr, n)
			for w := range regions {
				regions[w] = mkRegion(t, c.Node((w+1)%n+1), 4096, khazana.Attrs{})
			}
			disjoint := func() error {
				for w, r := range regions {
					if err := writeOnce(ctx, c.Node(w+1), r, payload); err != nil {
						return err
					}
				}
				return nil
			}
			if err := disjoint(); err != nil {
				t.Fatal(err)
			}
			if got := countRPCs(t, c, disjoint); got != 2*uint64(n) {
				t.Errorf("%d disjoint remote writes made %d RPCs, want %d (2 each)", n, got, 2*n)
			}
			if n < 3 {
				return // one non-home node: nobody to take turns with
			}
			// Every non-home node writes one region homed on node 1 in
			// turn.
			shared := mkRegion(t, c.Node(1), 4096, khazana.Attrs{})
			contended := func() error {
				for i := 2; i <= n; i++ {
					if err := writeOnce(ctx, c.Node(i), shared, payload); err != nil {
						return err
					}
				}
				return nil
			}
			if err := contended(); err != nil {
				t.Fatal(err)
			}
			if got := countRPCs(t, c, contended); got != 3*uint64(n-1) {
				t.Errorf("%d contended writes made %d RPCs, want %d (3 each)", n-1, got, 3*(n-1))
			}
		})
	}
}

// TestE5Consistency compares the three consistency protocols from a
// non-home node that already holds a copy (§3.3: protocol choice trades
// freshness for performance). A read costs eventual nothing, release one
// version check, CREW a grant and a release. A write costs CREW and
// release a grant and a release push; eventual's push needs no grant but
// the home gossips the winner to the other replicas. The first CREW write
// also invalidates the two other sharers' copies.
func TestE5Consistency(t *testing.T) {
	ctx := context.Background()
	for _, p := range []struct {
		name                      string
		protocol                  khazana.Protocol
		read, firstWrite, rewrite uint64
	}{
		{"crew", khazana.CREW, 2, 4, 2},
		{"release", khazana.Release, 1, 2, 2},
		{"eventual", khazana.Eventual, 0, 3, 3},
	} {
		t.Run(p.name, func(t *testing.T) {
			c := newCluster(t, 4)
			start := mkRegion(t, c.Node(1), 4096, khazana.Attrs{Protocol: p.protocol})
			for i := 1; i <= 4; i++ {
				if _, err := readOnce(ctx, c.Node(i), start, 64); err != nil {
					t.Fatal(err)
				}
			}
			read := func() error {
				_, err := readOnce(ctx, c.Node(2), start, 64)
				return err
			}
			write := func() error { return writeOnce(ctx, c.Node(2), start, []byte("protocol payload")) }
			if got := countRPCs(t, c, read); got != p.read {
				t.Errorf("read: %d RPCs, want %d", got, p.read)
			}
			// Only the first write finds sharers to invalidate.
			if got := countRPCs(t, c, write); got != p.firstWrite {
				t.Errorf("first write: %d RPCs, want %d", got, p.firstWrite)
			}
			if got := countRPCs(t, c, write); got != p.rewrite {
				t.Errorf("write: %d RPCs, want %d", got, p.rewrite)
			}
		})
	}
}

// TestE6Replication checks §3.5: minimum primary replicas enhance
// availability "at a cost of resource consumption". Replica maintenance
// grows the home list to MinReplicas and costs three RPCs more for every
// secondary home; each later write pays one log append per secondary; the
// data survives a crash of its home only when MinReplicas is at least 2.
func TestE6Replication(t *testing.T) {
	ctx := context.Background()
	payload := []byte("replicated payload")
	for _, r := range []struct {
		k               uint8
		maintain, write uint64
	}{
		{1, 0, 0},
		{2, 5, 1},
		{3, 8, 2},
		{4, 11, 3},
	} {
		t.Run(fmt.Sprintf("minreplicas=%d", r.k), func(t *testing.T) {
			c := newCluster(t, 5)
			// One heartbeat round gives every node the full membership,
			// from which maintenance recruits homes.
			for _, n := range c.Nodes() {
				n.Core().SendHeartbeat()
			}
			start := mkRegion(t, c.Node(2), 4096, khazana.Attrs{MinReplicas: r.k})
			write := func() error { return writeOnce(ctx, c.Node(2), start, payload) }
			if err := write(); err != nil {
				t.Fatal(err)
			}
			if got := countRPCs(t, c, func() error {
				c.Node(2).Core().MaintainReplicas()
				return nil
			}); got != r.maintain {
				t.Errorf("replica maintenance made %d RPCs, want %d", got, r.maintain)
			}
			// Another node caches the fresh descriptor.
			d, err := c.Node(4).GetAttr(ctx, start)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Home) != int(r.k) {
				t.Errorf("homes after maintenance = %v, want %d", d.Home, r.k)
			}
			if got := countRPCs(t, c, write); got != r.write {
				t.Errorf("home write made %d RPCs, want %d", got, r.write)
			}
			c.Crash(2)
			data, err := readOnce(ctx, c.Node(4), start, uint64(len(payload)))
			survived := err == nil && bytes.Equal(data, payload)
			if survived != (r.k >= 2) {
				t.Errorf("read after the home crash: %q, %v; want survival %v", data, err, r.k >= 2)
			}
		})
	}
}

// TestE7Filesystem compares the Khazana-based file system with the
// hand-coded central-server baseline (§6: services built on the
// infrastructure "may not perform as well as the hand-coded versions",
// traded for caching and location transparency). The baseline makes one
// RPC per operation and a remote kfs mount more; a mount co-located with
// the data reads with none and writes with fewer than a remote mount.
func TestE7Filesystem(t *testing.T) {
	ctx := context.Background()
	const fileSize = 4096
	payload := bytes.Repeat([]byte("k"), fileSize)

	// kfs on a 3-node cluster; one mount on the home node, one remote.
	c := newCluster(t, 3)
	super, err := kfs.Mkfs(ctx, c.Node(1), "bench", khazana.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	fsLocal, err := kfs.Mount(ctx, c.Node(1), super, "bench")
	if err != nil {
		t.Fatal(err)
	}
	fsRemote, err := kfs.Mount(ctx, c.Node(3), super, "bench")
	if err != nil {
		t.Fatal(err)
	}
	created := 0
	createWrite := func(fs *kfs.FS, prefix string) func() error {
		return func() error {
			created++
			f, err := fs.Create(ctx, fmt.Sprintf("/%s%04d", prefix, created))
			if err != nil {
				return err
			}
			_, err = f.WriteAt(ctx, payload, 0)
			return err
		}
	}
	buf := make([]byte, fileSize)
	read := func(fs *kfs.FS) func() error {
		var f *kfs.File
		return func() (err error) {
			if f == nil {
				if f, err = fs.Open(ctx, "/l0001"); err != nil {
					return err
				}
			}
			_, err = f.ReadAt(ctx, buf, 0)
			return err
		}
	}
	// The baseline central server on the same simulated network.
	srvTr, err := c.Network.Attach(ktypes.NodeID(900))
	if err != nil {
		t.Fatal(err)
	}
	baseline.NewServer(srvTr)
	cliTr, err := c.Network.Attach(ktypes.NodeID(901))
	if err != nil {
		t.Fatal(err)
	}
	bcli := baseline.NewClient(cliTr, 900)
	var bkey uint64
	// The reads open the first co-located file.
	for _, o := range []struct {
		name string
		rpcs uint64
		op   func() error
	}{
		// Create + write; the regions' home is local, the ring owners
		// are not.
		{"kfs write (co-located mount)", 8, createWrite(fsLocal, "l")},
		// Create + write; inode and block region traffic to the home.
		{"kfs write (remote mount)", 18, createWrite(fsRemote, "r")},
		// A read grant and a release at the home per lock.
		{"kfs read (remote mount)", 4, read(fsRemote)},
		{"kfs read (co-located mount)", 0, read(fsLocal)},
		{"baseline write (remote client)", 1, func() error {
			bkey++
			return bcli.Put(ctx, gaddr.FromUint64(bkey*0x10000), 0, payload)
		}},
		{"baseline read (remote client)", 1, func() error {
			_, err := bcli.Get(ctx, gaddr.FromUint64(0x10000), 0, fileSize)
			return err
		}},
	} {
		// The first run pays the op's cold lookups; count the second.
		if err := o.op(); err != nil {
			t.Fatal(err)
		}
		if got := countRPCs(t, c, o.op); got != o.rpcs {
			t.Errorf("%s: %d RPCs per op, want %d", o.name, got, o.rpcs)
		}
	}
}

// TestE8Objects checks the object runtime's local-replica versus
// remote-invocation choice (§4.2). A weakly consistent object's local
// replica serves repeated reads with no traffic, while a remote
// invocation pays one RPC per call; a strictly consistent (CREW) object's
// "local" access still pays consistency traffic, more than the RPC; the
// auto policy invokes remotely until the object proves hot (the first
// ReplicateAfter = 2 calls), then fetches a replica, as a local call does
// on its first get, and reads it with no traffic.
func TestE8Objects(t *testing.T) {
	counter := kobj.Type{
		Name: "counter",
		Methods: map[string]kobj.MethodSpec{
			"get": {ReadOnly: true, Fn: func(state, _ []byte) ([]byte, []byte, error) {
				return state, append([]byte(nil), state...), nil
			}},
		},
	}
	ctx := context.Background()
	weak, strict := khazana.Attrs{Level: khazana.Weak}, khazana.Attrs{}
	const calls = 50
	for _, cell := range []struct {
		name        string
		attrs       khazana.Attrs
		policy      kobj.Policy
		first, rest uint64
	}{
		{"weak-local", weak, kobj.PolicyLocal, 2, 0},
		{"weak-rpc", weak, kobj.PolicyRemote, 1, calls - 1},
		{"weak-auto", weak, kobj.PolicyAuto, 1, 1 + 2},
		{"strict-rpc", strict, kobj.PolicyRemote, 1, calls - 1},
		{"strict-local", strict, kobj.PolicyLocal, 4, 4 * (calls - 1)},
	} {
		t.Run(cell.name, func(t *testing.T) {
			c := newCluster(t, 2)
			r1 := kobj.NewRuntime(c.Node(1), "bench")
			r1.RegisterType(counter)
			r2 := kobj.NewRuntime(c.Node(2), "bench")
			r2.RegisterType(counter)
			r2.SetPolicy(cell.policy)
			ref, err := r1.New(ctx, "counter", make([]byte, 8), 0, cell.attrs)
			if err != nil {
				t.Fatal(err)
			}
			get := func() error {
				_, err := r2.Invoke(ctx, ref, "get", nil)
				return err
			}
			first := countRPCs(t, c, get)
			rest := countRPCs(t, c, func() error {
				for i := 1; i < calls; i++ {
					if err := get(); err != nil {
						return err
					}
				}
				return nil
			})
			if first != cell.first || rest != cell.rest {
				t.Errorf("%d gets: first %d RPCs, the other %d %d; want %d and %d",
					calls, first, calls-1, rest, cell.first, cell.rest)
			}
		})
	}
}

// TestE9Failure drives the failure handling of §3.5: reads fail over to
// the surviving replica when the home crashes, and a release with its home
// down never surfaces an error; it queues and drains once the home
// returns.
func TestE9Failure(t *testing.T) {
	c := newCluster(t, 4)
	ctx := context.Background()
	const payload = "survives crashes"
	start := mkRegion(t, c.Node(2), 4096, khazana.Attrs{MinReplicas: 2})
	if err := writeOnce(ctx, c.Node(2), start, []byte(payload)); err != nil {
		t.Fatal(err)
	}
	c.Node(2).Core().MaintainReplicas()

	reads := func() int {
		ok := 0
		for i := 0; i < 10; i++ {
			if data, err := readOnce(ctx, c.Node(4), start, uint64(len(payload))); err == nil && string(data) == payload {
				ok++
			}
		}
		return ok
	}
	if ok := reads(); ok != 10 {
		t.Errorf("reads before the home crash: %d/10 ok", ok)
	}
	c.Crash(2)
	if ok := reads(); ok != 10 {
		t.Errorf("reads after the home crash: %d/10 ok", ok)
	}

	// Release retry: node 4 writes a region homed on node 3, which
	// crashes before the unlock.
	const deferred = "deferred release"
	start2 := mkRegion(t, c.Node(3), 4096, khazana.Attrs{})
	lk, err := c.Node(4).Lock(ctx, khazana.Range{Start: start2, Size: 4096}, khazana.LockWrite, "bench")
	if err != nil {
		t.Fatal(err)
	}
	if err := lk.Write(start2, []byte(deferred)); err != nil {
		t.Fatal(err)
	}
	c.Crash(3)
	if err := lk.Unlock(ctx); err != nil {
		t.Errorf("unlock with the home down: %v, want nil", err)
	}
	if queued := c.Node(4).Core().PendingRetries(); queued == 0 {
		t.Error("unlock with the home down queued no release")
	}
	c.Restart(3)
	c.Node(4).Core().RunRetries()
	if left := c.Node(4).Core().PendingRetries(); left != 0 {
		t.Errorf("%d releases still queued after the home returned", left)
	}
	if data, err := readOnce(ctx, c.Node(3), start2, uint64(len(deferred))); err != nil || string(data) != deferred {
		t.Errorf("home reads %q, %v after the retry; want %q", data, err, deferred)
	}
}

// TestE10PageSize sweeps region page sizes (§2: clients can specify pages
// larger than 4 KB). A cold scan that locks one page at a time pays a
// grant and a release per page, so larger pages amortize it; two nodes
// writing 8 KB apart share a 16K or 64K page (false sharing) and pay the
// other writer's invalidation on every write, which 4K pages avoid.
func TestE10PageSize(t *testing.T) {
	ctx := context.Background()
	const regionSize = 256 * 1024
	for _, ps := range []struct {
		size           uint32
		scan, perWrite uint64
	}{
		{4096, 128, 2},
		{16384, 32, 3},
		{65536, 8, 3},
	} {
		t.Run(fmt.Sprintf("%dK", ps.size/1024), func(t *testing.T) {
			c := newCluster(t, 3)
			start := mkRegion(t, c.Node(1), regionSize, khazana.Attrs{PageSize: ps.size})
			if err := writeOnce(ctx, c.Node(1), start, bytes.Repeat([]byte("s"), regionSize)); err != nil {
				t.Fatal(err)
			}
			// Node 2 has the descriptor and no page.
			if _, err := c.Node(2).GetAttr(ctx, start); err != nil {
				t.Fatal(err)
			}
			if got := countRPCs(t, c, func() error {
				return eachPage(ctx, c.Node(2), start, regionSize, uint64(ps.size), khazana.LockRead, func(lk *khazana.Lock, page khazana.Addr) error {
					_, err := lk.Read(page, uint64(ps.size))
					return err
				})
			}); got != ps.scan {
				t.Errorf("cold per-page scan: %d RPCs, want %d", got, ps.scan)
			}

			// Node 2 writes offset 0, node 3 offset 8K, in turn.
			pair := func() error {
				if err := writeOnce(ctx, c.Node(2), start, []byte("fine-grain update")); err != nil {
					return err
				}
				return writeOnce(ctx, c.Node(3), start.MustAdd(8192), []byte("fine-grain update"))
			}
			if err := pair(); err != nil {
				t.Fatal(err)
			}
			if got := countRPCs(t, c, pair); got != 2*ps.perWrite {
				t.Errorf("two alternating writes: %d RPCs, want %d (%d each)", got, 2*ps.perWrite, ps.perWrite)
			}
		})
	}
}

// TestE11StaleMap checks the relaxed consistency of the region directory
// (§3.1/§3.2): a stale descriptor does not break an access. A read through
// a descriptor whose home has crashed refreshes it and succeeds; the
// repeat read, through the fresh descriptor, makes fewer RPCs.
func TestE11StaleMap(t *testing.T) {
	c := newCluster(t, 3)
	ctx := context.Background()
	const payload = "findable"
	start := mkRegion(t, c.Node(2), 4096, khazana.Attrs{MinReplicas: 2})
	if err := writeOnce(ctx, c.Node(2), start, []byte(payload)); err != nil {
		t.Fatal(err)
	}
	// Node 3 caches the descriptor (home n2); replica maintenance then
	// recruits a second home, and n2 crashes.
	if _, err := c.Node(3).GetAttr(ctx, start); err != nil {
		t.Fatal(err)
	}
	c.Node(2).Core().MaintainReplicas()
	fresh, err := c.Node(2).GetAttr(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Home) < 2 {
		t.Fatalf("maintenance did not add a home: %v", fresh.Home)
	}
	c.Crash(2)

	read := func() error {
		data, err := readOnce(ctx, c.Node(3), start, uint64(len(payload)))
		if err == nil && string(data) != payload {
			err = fmt.Errorf("read %q, want %q", data, payload)
		}
		return err
	}
	stale := countRPCs(t, c, read)
	repeat := countRPCs(t, c, read)
	if stale != 6 || repeat != 2 {
		t.Errorf("read through the stale descriptor: %d RPCs, repeat %d; want 6 and 2", stale, repeat)
	}
}

// TestE12Migration exercises region migration, the mechanism behind the
// "resource- and load-aware migration" the paper lists as future work
// (§7): a read from n3 of a region homed on n1 costs a grant and a
// release; once the region migrates to n3 it costs nothing, and a client
// holding a pre-migration descriptor still reads the data.
func TestE12Migration(t *testing.T) {
	c := newCluster(t, 3)
	ctx := context.Background()
	const payload = "follows the load"
	start := mkRegion(t, c.Node(1), 4096, khazana.Attrs{})
	if err := writeOnce(ctx, c.Node(3), start, []byte(payload)); err != nil {
		t.Fatal(err)
	}
	read := func() error {
		_, err := readOnce(ctx, c.Node(3), start, 64)
		return err
	}
	if got := countRPCs(t, c, read); got != 2 {
		t.Errorf("read from n3 before migration: %d RPCs, want 2", got)
	}
	if err := c.Node(3).MigrateRegion(ctx, start, 3, "bench"); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if got := countRPCs(t, c, read); got != 0 {
		t.Errorf("read from n3 after migration: %d RPCs, want 0", got)
	}

	// Node 2 holds a descriptor from before the move.
	d, err := c.Node(2).GetAttr(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	stale := d.Clone()
	stale.Home = []khazana.NodeID{1}
	stale.Epoch = 1
	c.Node(2).Core().RegionDir().Remove(start)
	c.Node(2).Core().RegionDir().Insert(stale)
	if data, err := readOnce(ctx, c.Node(2), start, uint64(len(payload))); err != nil || string(data) != payload {
		t.Errorf("read through the pre-migration descriptor: %q, %v; want %q", data, err, payload)
	}
}
