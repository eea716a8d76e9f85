//go:build defects

package consistency

// Known defects of this package, each written as a test of the correct
// behaviour, so each fails until its fix lands. Tier-1 does not build the
// tag; `make defects` runs these tests. A fix deletes the build tag from
// its test, which moves the test into tier-1.

import (
	"context"
	"testing"

	"khazana/internal/frame"
	"khazana/internal/region"
	"khazana/internal/wire"
)

// TestEventualFirstCopyKeepsStamp: an eventual replica's first copy of a
// page carries the stamp of the write it holds, so a late update with an
// older stamp loses to it. Today the grant carries only the home's
// version, the replica's stamp stays 0, and the older update overwrites
// the newer bytes.
func TestEventualFirstCopyKeepsStamp(t *testing.T) {
	d := testDesc(region.Eventual)
	hosts := cluster(t, 3, d)
	home, writer, reader := hosts[0], hosts[1], hosts[2]
	page := d.Range.Start
	writer.clock.Store(200)
	lockWrite(t, writer, d, page, func(data []byte) { data[0] = 'B' }) // stamp 201
	if got := lockRead(t, reader, d, page); got[0] != 'B' {
		t.Fatalf("first fetch read %q, want 'B'", got[0])
	}
	// A stamp-150 update, written before the copy the reader holds,
	// arrives late.
	data := make([]byte, d.Attrs.PageSize)
	data[0] = 'A'
	late := wire.UpdateItem{Page: page, Stamp: 150, Origin: writer.id}
	f := frame.Copy(data)
	late.SetFrame(f)
	f.Release()
	if _, err := reader.handle(context.Background(), home.id, &wire.UpdateBatch{From: home.id, Items: []wire.UpdateItem{late}}); err != nil {
		t.Fatal(err)
	}
	if got := lockRead(t, reader, d, page); got[0] != 'B' {
		t.Errorf("replica = %q after a stamp-150 update over its stamp-201 copy, want 'B'", got[0])
	}
}

// TestEventualCausalWriteWinsUnderSkew: a write made after its writer
// read a newer-looking one must win, whatever the writers' clocks say.
// Today last writer wins compares wall-clock stamps: n2's clock runs far
// ahead, n3 reads n2's 'A' and then writes 'B', and every node, n3
// included, keeps 'A'.
func TestEventualCausalWriteWinsUnderSkew(t *testing.T) {
	d := testDesc(region.Eventual)
	hosts := cluster(t, 3, d)
	page := d.Range.Start
	hosts[1].clock.Store(1_000_000)
	lockWrite(t, hosts[1], d, page, func(data []byte) { data[0] = 'A' })
	if got := lockRead(t, hosts[2], d, page); got[0] != 'A' {
		t.Fatalf("n3 read %q before its write, want 'A'", got[0])
	}
	lockWrite(t, hosts[2], d, page, func(data []byte) { data[0] = 'B' })
	for _, h := range hosts {
		if got := lockRead(t, h, d, page); got[0] != 'B' {
			t.Errorf("n%d reads %q after n3 wrote 'B' over the 'A' it had read, want 'B'", h.id, got[0])
		}
	}
}
