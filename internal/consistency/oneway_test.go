package consistency

import (
	"context"
	"testing"
	"time"

	"khazana/internal/ktypes"
	"khazana/internal/telemetry"
)

// TestOneWayReleaseToNonHomeIsCounted: a clean CREW release is one-way,
// so one sent to a node that is not the region's home (the releaser's
// descriptor is stale) fails where nobody replies. The releaser sees no
// error and queues no retry; the receiver counts every page in
// consistency.release_oneway_failed. The home's read holds stay until a
// release reaches it.
func TestOneWayReleaseToNonHomeIsCounted(t *testing.T) {
	d := crewDesc(4)
	hosts := cluster(t, 3, d)
	home, reader, other := hosts[0], hosts[1], hosts[2]
	pages := d.Pages(0, d.Range.Size)
	ctx := context.Background()
	if _, err := reader.cm(d).AcquireBatch(ctx, d, pages, ktypes.LockRead); err != nil {
		t.Fatal(err)
	}
	stale := d.Clone()
	stale.Home = []ktypes.NodeID{other.id}
	if errs := reader.cm(d).ReleaseBatch(ctx, stale, pages, ktypes.LockRead, nil); errs != nil {
		t.Fatalf("one-way release to a non-home returned %v, want no error", errs)
	}
	failed := func(h *testHost) uint64 { return h.tel.Counter(telemetry.MetricReleaseOneWayFailed).Load() }
	if got := failed(other); got != uint64(len(pages)) {
		t.Fatalf("non-home counted %d failed one-way pages, want %d", got, len(pages))
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	_, err := home.cm(d).AcquireBatch(short, d, pages, ktypes.LockWrite)
	cancel()
	if err == nil {
		t.Fatal("home granted a write over read holds that were never released")
	}
	if errs := reader.cm(d).ReleaseBatch(ctx, d, pages, ktypes.LockRead, nil); errs != nil {
		t.Fatal(errs)
	}
	if _, err := home.cm(d).AcquireBatch(ctx, d, pages, ktypes.LockWrite); err != nil {
		t.Fatalf("home's write after the release reached it: %v", err)
	}
	if got := failed(home); got != 0 {
		t.Fatalf("home counted %d failed one-way pages, want 0", got)
	}
}
