package consistency

import (
	"testing"

	"khazana/internal/region"
)

// TestLocalLockBatchIsOneRoundTrip: under release and eventual consistency
// a multi-page lock from a node that is not the home costs one
// PageReqBatch, not one round trip per page. A release re-lock of current
// copies still validates them in that one round trip and ships no page
// bytes; an eventual lock asks only about pages with no local copy, so
// with every copy held it costs nothing.
func TestLocalLockBatchIsOneRoundTrip(t *testing.T) {
	const pageCount = 4
	for _, tc := range []struct {
		proto             region.Protocol
		firstRPCs, reRPCs uint64
	}{
		{region.Release, 1, 1},
		{region.Eventual, 1, 0},
	} {
		t.Run(tc.proto.String(), func(t *testing.T) {
			d := testDesc(tc.proto)
			pageSize := uint64(d.Attrs.PageSize)
			d.Range.Size = pageCount * pageSize
			hosts := cluster(t, 2, d)
			home, reader := hosts[0], hosts[1]
			pages := d.Pages(0, d.Range.Size)
			writeAll(t, home, d, pages, 'h')
			read := func(what string, wantRPCs uint64, withBytes bool) {
				t.Helper()
				rpcs, wireBytes := home.net.Stats()
				readAll(t, reader, d, pages)
				rpcs2, wireBytes2 := home.net.Stats()
				rpcs, wireBytes = rpcs2-rpcs, wireBytes2-wireBytes
				if rpcs != wantRPCs || (wireBytes >= pageSize) != withBytes {
					t.Errorf("%s %d-page read lock cost %d RPCs and %d wire bytes, want %d RPCs %s page bytes", what, pageCount, rpcs, wireBytes, wantRPCs,
						map[bool]string{true: "with", false: "without"}[withBytes])
				}
				checkPages(t, reader, d, pages, 'h')
			}
			read("first", tc.firstRPCs, true)
			read("repeated", tc.reRPCs, false)
		})
	}
}

// TestEventualPushReplyCarriesOnlyTheWinner: the home answers an eventual
// push with an UpdateBatch mirroring its state of each page. A push that
// wins costs its bytes one way only; one that loses to a concurrent write
// at the same version from a higher node gets the winning bytes back, and
// the loser's copy converges on them.
func TestEventualPushReplyCarriesOnlyTheWinner(t *testing.T) {
	d := testDesc(region.Eventual)
	pageSize := uint64(d.Attrs.PageSize)
	hosts := cluster(t, 3, d)
	page := d.Range.Start
	for _, h := range hosts {
		_ = lockRead(t, h, d, page)
	}
	write := func(h *testHost, val byte) (wireBytes uint64) {
		t.Helper()
		_, before := h.net.Stats()
		lockWrite(t, h, d, page, func(data []byte) { data[0] = val })
		_, after := h.net.Stats()
		return after - before
	}
	// The winner's push goes home, and its gossip to node 2 is lost, so
	// node 2 keeps the old copy: two copies of the page move, none back.
	restore := dropUpdates(hosts[1])
	if got := write(hosts[2], 'B'); got >= 3*pageSize {
		t.Errorf("a winning push moved %d wire bytes, want under %d (no bytes in the reply)", got, 3*pageSize)
	}
	restore()
	// Node 2's write, concurrent at the same version, loses at the home,
	// which sends its bytes back.
	if got := write(hosts[1], 'A'); got < 2*pageSize || got >= 3*pageSize {
		t.Errorf("a losing push moved %d wire bytes, want the page both ways", got)
	}
	for _, h := range hosts {
		if got := snapshot(h, d, page)[0]; got != 'B' {
			t.Errorf("%v holds %q, want 'B' (the higher node's write)", h.id, got)
		}
	}
}
