package khazana_test

import (
	"context"
	"encoding/binary"
	"testing"

	"khazana"
)

// BenchmarkRemoteScanCycle is khazbench's remote_scan cycle on two inproc
// nodes at zero latency: the home publishes a new generation of a 256-page
// region under one write lock, which invalidates the reader's copies, then
// the reader scans it under sixteen 16-page read locks and checks every
// page's stamps. One op is one cycle. `make profile-scan` profiles it.
func BenchmarkRemoteScanCycle(b *testing.B) {
	c, err := khazana.NewCluster(2, khazana.WithStoreDir(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const (
		ps    = 4096
		pages = 256
		batch = 16
	)
	home, reader := c.Node(1), c.Node(2)
	start, err := home.Reserve(ctx, pages*ps, khazana.Attrs{}, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := home.Allocate(ctx, start, "bench"); err != nil {
		b.Fatal(err)
	}
	addr := func(p int) khazana.Addr { return start.MustAdd(uint64(p) * ps) }
	buf := make([]byte, ps)
	cycle := func(gen uint64) {
		lk, err := home.Lock(ctx, khazana.Range{Start: start, Size: pages * ps}, khazana.LockWrite, "bench")
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < pages; p++ {
			binary.LittleEndian.PutUint64(buf[0:], gen)
			binary.LittleEndian.PutUint64(buf[8:], uint64(p))
			copy(buf[ps-16:], buf[:16])
			if err := lk.Write(addr(p), buf); err != nil {
				b.Fatal(err)
			}
		}
		if err := lk.Unlock(ctx); err != nil {
			b.Fatal(err)
		}
		for first := 0; first < pages; first += batch {
			rlk, err := reader.Lock(ctx, khazana.Range{Start: addr(first), Size: batch * ps}, khazana.LockRead, "bench")
			if err != nil {
				b.Fatal(err)
			}
			for p := first; p < first+batch; p++ {
				view, err := rlk.ReadView(addr(p), ps)
				if err != nil {
					b.Fatal(err)
				}
				for _, off := range []int{0, ps - 16} {
					if binary.LittleEndian.Uint64(view[off:]) != gen || binary.LittleEndian.Uint64(view[off+8:]) != uint64(p) {
						b.Fatalf("page %d of generation %d holds the wrong stamp at offset %d", p, gen, off)
					}
				}
			}
			if err := rlk.Unlock(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	cycle(0) // the reader's first copies and the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(uint64(i + 1))
	}
}
