// Benchmarks, one group per experiment in DESIGN.md §4. These
// measure per-operation protocol cost on a zero-latency simulated network
// (pure software-path cost); the experiments' counted claims are the
// TestE tests in internal/experiments.
package khazana_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"testing"

	"khazana"
	"khazana/internal/baseline"
	"khazana/internal/ktypes"
	"khazana/kfs"
	"khazana/kobj"
)

// benchCluster builds a zero-latency cluster for benchmarks.
func benchCluster(b *testing.B, n int) *khazana.Cluster {
	b.Helper()
	c, err := khazana.NewCluster(n, khazana.WithStoreDir(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

func benchRegion(b *testing.B, n *khazana.Node, size uint64, attrs khazana.Attrs) khazana.Addr {
	b.Helper()
	ctx := context.Background()
	start, err := n.Reserve(ctx, size, attrs, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := n.Allocate(ctx, start, "bench"); err != nil {
		b.Fatal(err)
	}
	return start
}

func benchRead(b *testing.B, n *khazana.Node, start khazana.Addr, size uint64) {
	b.Helper()
	ctx := context.Background()
	lk, err := n.Lock(ctx, khazana.Range{Start: start, Size: size}, khazana.LockRead, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := lk.Read(start, size); err != nil {
		b.Fatal(err)
	}
	if err := lk.Unlock(ctx); err != nil {
		b.Fatal(err)
	}
}

func benchWrite(b *testing.B, n *khazana.Node, start khazana.Addr, data []byte) {
	b.Helper()
	ctx := context.Background()
	lk, err := n.Lock(ctx, khazana.Range{Start: start, Size: uint64(len(data))}, khazana.LockWrite, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := lk.Write(start, data); err != nil {
		b.Fatal(err)
	}
	if err := lk.Unlock(ctx); err != nil {
		b.Fatal(err)
	}
}

// --- E1: Figure 1 topology ---------------------------------------------------

// BenchmarkFig1Topology measures a read of replicated data from a node
// that holds no copy (the n1 access of Figure 1) against one that does.
func BenchmarkFig1Topology(b *testing.B) {
	c := benchCluster(b, 5)
	start := benchRegion(b, c.Node(3), 4096, khazana.Attrs{})
	benchWrite(b, c.Node(3), start, []byte("figure 1 square"))
	benchRead(b, c.Node(5), start, 4096) // replicate on n5

	b.Run("n1-remote", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchRead(b, c.Node(1), start, 4096)
		}
	})
	b.Run("n3-home", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchRead(b, c.Node(3), start, 4096)
		}
	})
}

// --- E2: Figure 2 lock+fetch -----------------------------------------------

// BenchmarkFig2LockFetch measures the full <lock, fetch, unlock> sequence
// for a page owned by a remote node.
func BenchmarkFig2LockFetch(b *testing.B) {
	c := benchCluster(b, 2)
	start := benchRegion(b, c.Node(1), 4096, khazana.Attrs{})
	benchWrite(b, c.Node(1), start, []byte("page p"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRead(b, c.Node(2), start, 4096)
	}
}

// --- E3: lookup path ------------------------------------------------------------

// BenchmarkE3LookupPath measures the region-location stages of §3.2.
func BenchmarkE3LookupPath(b *testing.B) {
	c := benchCluster(b, 3)
	ctx := context.Background()
	start := benchRegion(b, c.Node(2), 4096, khazana.Attrs{})
	if _, err := c.Node(3).GetAttr(ctx, start); err != nil {
		b.Fatal(err)
	}
	b.Run("directory-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Node(3).GetAttr(ctx, start); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold-full-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Node(3).Core().RegionDir().Remove(start)
			if _, err := c.Node(3).GetAttr(ctx, start); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("map-tree-walk", func(b *testing.B) {
		amap := c.Node(3).Core().AddressMap()
		for i := 0; i < b.N; i++ {
			if _, _, err := amap.Lookup(ctx, start); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E4: scalability ---------------------------------------------------------

// BenchmarkE4Scalability measures disjoint (home-local) vs contended
// (remote shared region) writes.
func BenchmarkE4Scalability(b *testing.B) {
	c := benchCluster(b, 4)
	own := benchRegion(b, c.Node(2), 4096, khazana.Attrs{})
	shared := benchRegion(b, c.Node(1), 4096, khazana.Attrs{})
	payload := []byte("payload")
	b.Run("disjoint-local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchWrite(b, c.Node(2), own, payload)
		}
	})
	b.Run("contended-remote", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchWrite(b, c.Node(i%3+2), shared, payload)
		}
	})
}

// --- E5: consistency protocols -----------------------------------------------

// BenchmarkE5Consistency measures remote reads and writes per protocol.
func BenchmarkE5Consistency(b *testing.B) {
	for _, proto := range []struct {
		name  string
		attrs khazana.Attrs
	}{
		{"crew", khazana.Attrs{Protocol: khazana.CREW}},
		{"release", khazana.Attrs{Protocol: khazana.Release}},
		{"eventual", khazana.Attrs{Protocol: khazana.Eventual}},
	} {
		c := benchCluster(b, 2)
		start := benchRegion(b, c.Node(1), 4096, proto.attrs)
		benchWrite(b, c.Node(1), start, []byte("seed"))
		benchRead(b, c.Node(2), start, 64)
		b.Run(proto.name+"/remote-read", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRead(b, c.Node(2), start, 64)
			}
		})
		b.Run(proto.name+"/remote-write", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchWrite(b, c.Node(2), start, []byte("update"))
			}
		})
	}
}

// --- E6: replication ------------------------------------------------------------

// BenchmarkE6Replication measures replica maintenance per MinReplicas.
func BenchmarkE6Replication(b *testing.B) {
	for _, k := range []uint8{1, 2, 4} {
		b.Run(fmt.Sprintf("minreplicas-%d", k), func(b *testing.B) {
			c := benchCluster(b, 5)
			start := benchRegion(b, c.Node(1), 4096, khazana.Attrs{MinReplicas: k})
			benchWrite(b, c.Node(1), start, []byte("replicated"))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Node(1).Core().MaintainReplicas()
			}
		})
	}
}

// --- E7: filesystem vs baseline -----------------------------------------------

// BenchmarkE7Filesystem compares kfs operations with the hand-coded
// central-server baseline.
func BenchmarkE7Filesystem(b *testing.B) {
	c := benchCluster(b, 3)
	ctx := context.Background()
	super, err := kfs.Mkfs(ctx, c.Node(1), "bench", khazana.Attrs{})
	if err != nil {
		b.Fatal(err)
	}
	fsRemote, err := kfs.Mount(ctx, c.Node(3), super, "bench")
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("k"), 4096)
	f, err := fsRemote.Create(ctx, "/bench.dat")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, payload, 0); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.Run("kfs-remote-write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.WriteAt(ctx, payload, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kfs-remote-read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.ReadAt(ctx, buf, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	srvTr, err := c.Network.Attach(ktypes.NodeID(900))
	if err != nil {
		b.Fatal(err)
	}
	baseline.NewServer(srvTr)
	cliTr, err := c.Network.Attach(ktypes.NodeID(901))
	if err != nil {
		b.Fatal(err)
	}
	bcli := baseline.NewClient(cliTr, 900)
	key := khazana.Addr{}
	key = key.MustAdd(1 << 40)
	b.Run("baseline-write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := bcli.Put(ctx, key, 0, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("baseline-read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bcli.Get(ctx, key, 0, 4096); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E8: object invocation ------------------------------------------------------

// BenchmarkE8Objects compares local-replica and remote-RPC invocation.
func BenchmarkE8Objects(b *testing.B) {
	counter := kobj.Type{
		Name: "counter",
		Methods: map[string]kobj.MethodSpec{
			"get": {ReadOnly: true, Fn: func(state, _ []byte) ([]byte, []byte, error) {
				return state, state, nil
			}},
			"add": {Fn: func(state, _ []byte) ([]byte, []byte, error) {
				v := binary.LittleEndian.Uint64(state) + 1
				out := make([]byte, 8)
				binary.LittleEndian.PutUint64(out, v)
				return out, out, nil
			}},
		},
	}
	ctx := context.Background()
	setup := func(b *testing.B, attrs khazana.Attrs, policy kobj.Policy) (*kobj.Runtime, kobj.Ref) {
		c := benchCluster(b, 2)
		r1 := kobj.NewRuntime(c.Node(1), "bench")
		r1.RegisterType(counter)
		r2 := kobj.NewRuntime(c.Node(2), "bench")
		r2.RegisterType(counter)
		ref, err := r1.New(ctx, "counter", make([]byte, 8), 0, attrs)
		if err != nil {
			b.Fatal(err)
		}
		r2.SetPolicy(policy)
		return r2, ref
	}
	b.Run("weak-local-read", func(b *testing.B) {
		r, ref := setup(b, khazana.Attrs{Level: khazana.Weak}, kobj.PolicyLocal)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Invoke(ctx, ref, "get", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remote-rpc-read", func(b *testing.B) {
		r, ref := setup(b, khazana.Attrs{Level: khazana.Weak}, kobj.PolicyRemote)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Invoke(ctx, ref, "get", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("strict-local-read", func(b *testing.B) {
		r, ref := setup(b, khazana.Attrs{}, kobj.PolicyLocal)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Invoke(ctx, ref, "get", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E9: failure handling -----------------------------------------------------

// BenchmarkE9Failure measures the background release-retry round trip.
func BenchmarkE9Failure(b *testing.B) {
	c := benchCluster(b, 2)
	start := benchRegion(b, c.Node(1), 4096, khazana.Attrs{})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Write under a crash window so the release queues, then let
		// the retry drain.
		lk, err := c.Node(2).Lock(ctx, khazana.Range{Start: start, Size: 4096}, khazana.LockWrite, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := lk.Write(start, []byte("deferred")); err != nil {
			b.Fatal(err)
		}
		c.Crash(1)
		if err := lk.Unlock(ctx); err != nil {
			b.Fatal(err)
		}
		c.Restart(1)
		c.Node(2).Core().RunRetries()
		if c.Node(2).Core().PendingRetries() != 0 {
			b.Fatal("retry did not drain")
		}
	}
}

// --- E10: page size ------------------------------------------------------------

// BenchmarkE10PageSize measures a 256 KiB cold remote scan per page size.
func BenchmarkE10PageSize(b *testing.B) {
	for _, ps := range []uint32{4096, 16384, 65536} {
		b.Run(fmt.Sprintf("scan-%dK-pages", ps/1024), func(b *testing.B) {
			c := benchCluster(b, 2)
			const regionSize = 256 * 1024
			start := benchRegion(b, c.Node(1), regionSize, khazana.Attrs{PageSize: ps})
			benchWrite(b, c.Node(1), start, bytes.Repeat([]byte("s"), regionSize))
			b.SetBytes(regionSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Cold cache each iteration: drop node 2's copies.
				core := c.Node(2).Core()
				for _, page := range pagesOf(start, regionSize, ps) {
					if tab := core.PageDir().Find(page); tab != nil {
						if rec := tab.Rec(page); rec != nil {
							core.Store().DeletePage(rec)
						}
						tab.Delete(page)
					}
				}
				b.StartTimer()
				benchRead(b, c.Node(2), start, regionSize)
			}
		})
	}
}

func pagesOf(start khazana.Addr, size uint64, ps uint32) []khazana.Addr {
	var out []khazana.Addr
	for off := uint64(0); off < size; off += uint64(ps) {
		out = append(out, start.MustAdd(off))
	}
	return out
}

// --- E11: stale hints ---------------------------------------------------------

// BenchmarkE11StaleMap measures a lookup that must refresh a stale
// descriptor versus a fresh one.
func BenchmarkE11StaleMap(b *testing.B) {
	c := benchCluster(b, 3)
	ctx := context.Background()
	start := benchRegion(b, c.Node(2), 4096, khazana.Attrs{})
	fresh, err := c.Node(3).GetAttr(ctx, start)
	if err != nil {
		b.Fatal(err)
	}
	stale := fresh.Clone()
	stale.Home = []khazana.NodeID{9} // points at a nonexistent node
	stale.Epoch = 0
	b.Run("stale-descriptor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c.Node(3).Core().RegionDir().Remove(start)
			c.Node(3).Core().RegionDir().Insert(stale)
			b.StartTimer()
			benchRead(b, c.Node(3), start, 64)
		}
	})
	b.Run("fresh-descriptor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchRead(b, c.Node(3), start, 64)
		}
	})
}

// --- E12: migration -----------------------------------------------------------

// BenchmarkE12Migration measures a read from n3 of a region homed on n1,
// before and after the region migrates to n3.
func BenchmarkE12Migration(b *testing.B) {
	c := benchCluster(b, 3)
	start := benchRegion(b, c.Node(1), 4096, khazana.Attrs{})
	benchWrite(b, c.Node(3), start, []byte("follows the load"))
	b.Run("before", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchRead(b, c.Node(3), start, 64)
		}
	})
	if err := c.Node(3).MigrateRegion(context.Background(), start, 3, "bench"); err != nil {
		b.Fatal(err)
	}
	b.Run("after", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchRead(b, c.Node(3), start, 64)
		}
	})
}
