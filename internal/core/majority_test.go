package core

// Tests for majority commit: a replicated release returns once a majority
// of its homes, the primary counted, hold it, and the other secondary
// receives it after, in log order, or in one catch-up that carries the
// bytes.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/telemetry"
	"khazana/internal/transport"
)

// majorityRegion is replicatedRegion with its roles named: the primary,
// the secondary the test slows or cuts off, the other secondary, and a
// writer outside the home list.
func majorityRegion(t *testing.T) (net *transport.Network, primary, slow, fast, writer *Node, start gaddr.Addr) {
	t.Helper()
	n, nodes, start := replicatedRegion(t)
	d := nodes[1].authDescByStart(start)
	for _, node := range nodes {
		if !d.HasHome(node.cfg.ID) {
			writer = node
		}
	}
	return n, nodes[d.Home[0]-1], nodes[d.Home[2]-1], nodes[d.Home[1]-1], writer, start
}

// twoHomeRegion builds a MinReplicas-2 region on node 2 of a 3-node
// cluster and returns its primary, its secondary and the writer outside
// its home list.
func twoHomeRegion(t *testing.T) (net *transport.Network, primary, secondary, writer *Node, start gaddr.Addr) {
	t.Helper()
	net, nodes := testCluster(t, 3)
	start = mkRegion(t, nodes[1], 4096, region.Attrs{MinReplicas: 2}, "alice")
	nodes[1].SendHeartbeat()
	nodes[1].MaintainReplicas()
	d := nodes[1].authDescByStart(start)
	if d == nil || len(d.Home) != 2 {
		t.Fatalf("home list = %v, want 2 homes", d)
	}
	for _, node := range nodes {
		if !d.HasHome(node.cfg.ID) {
			writer = node
		}
	}
	return net, nodes[d.Home[0]-1], nodes[d.Home[1]-1], writer, start
}

// writePage runs one write cycle of data on page start from n and returns
// how long its Unlock took.
func writePage(t *testing.T, n *Node, start gaddr.Addr, data []byte) time.Duration {
	t.Helper()
	ctx := context.Background()
	lc, err := n.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Write(lc, start, data); err != nil {
		t.Fatal(err)
	}
	began := time.Now()
	if err := n.Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}
	return time.Since(began)
}

// catchups reads n's replog.catchups counter.
func catchups(n *Node) uint64 {
	return n.Telemetry().Counter(telemetry.MetricReplCatchups).Load()
}

// checkConverged fails unless follower holds the leader's log and the
// leader's version and bytes of page.
func checkConverged(t *testing.T, leader, follower *Node, start gaddr.Addr, want []byte) {
	t.Helper()
	_, last := leader.Repl().Progress(start)
	if _, flast := follower.Repl().Progress(start); flast != last {
		t.Fatalf("follower %v last index %d, leader %d", follower.cfg.ID, flast, last)
	}
	le, _ := entryOf(leader, start)
	if fe, _ := entryOf(follower, start); fe.Version != le.Version {
		t.Fatalf("follower %v holds v%d, leader v%d", follower.cfg.ID, fe.Version, le.Version)
	}
	f, ok := follower.Store().Get(start)
	if !ok {
		t.Fatalf("follower %v holds no copy", follower.cfg.ID)
	}
	defer f.Release()
	if !bytes.Equal(f.Bytes()[:len(want)], want) {
		t.Fatalf("follower %v holds %q, want %q", follower.cfg.ID, f.Bytes()[:len(want)], want)
	}
}

// TestReleaseReturnsAtMajority: with one secondary 50 ms away, a release
// returns on the other secondary's ack; once the sends settle, the slow
// secondary holds the bytes and the leader's log.
func TestReleaseReturnsAtMajority(t *testing.T) {
	net, primary, slow, _, writer, start := majorityRegion(t)
	net.SetLinkLatency(primary.cfg.ID, slow.cfg.ID, 50*time.Millisecond)
	want := []byte("returned at a majority")
	if took := writePage(t, writer, start, want); took >= 25*time.Millisecond {
		t.Fatalf("Unlock took %v with one secondary 50 ms away, want < 25 ms", took)
	}
	primary.ReplSettle()
	checkConverged(t, primary, slow, start, want)
}

// TestSlowFollowerGetsAppendsInOrder: back-to-back releases wait behind
// the one send in flight to a 5 ms secondary and reach it in index order,
// in appends built from the log, so none needs a catch-up.
func TestSlowFollowerGetsAppendsInOrder(t *testing.T) {
	net, primary, slow, _, writer, start := majorityRegion(t)
	net.SetLinkLatency(primary.cfg.ID, slow.cfg.ID, 5*time.Millisecond)
	before := catchups(primary)
	data := []byte("release 00")
	for i := 0; i < 20; i++ {
		data[len(data)-1] = byte('0' + i%10)
		data[len(data)-2] = byte('0' + i/10)
		writePage(t, writer, start, data)
	}
	primary.ReplSettle()
	if got := catchups(primary) - before; got != 0 {
		t.Fatalf("%d catch-ups for a slow but live secondary, want 0", got)
	}
	checkConverged(t, primary, slow, start, data)
}

// TestDeadFollowerCostsOneSend: with one secondary cut off, every release
// still returns well inside the ack timeout, the cut-off secondary costs
// no goroutine and no catch-up per release — it is sent the release's own
// append, at three homes once per rest after a failure (replog's
// retryDelay), at two, where the majority needs it, once per release — and
// once the link heals one catch-up, a snapshot, as the log compacted past
// it, brings it the leader's log and bytes.
func TestDeadFollowerCostsOneSend(t *testing.T) {
	for _, homes := range []int{3, 2} {
		t.Run(fmt.Sprintf("homes=%d", homes), func(t *testing.T) {
			var (
				net                   *transport.Network
				primary, dead, writer *Node
				start                 gaddr.Addr
			)
			if homes == 3 {
				net, primary, dead, _, writer, start = majorityRegion(t)
			} else {
				net, primary, dead, writer, start = twoHomeRegion(t)
			}
			net.Partition(primary.cfg.ID, dead.cfg.ID)
			goroutines, tries := runtime.NumGoroutine(), catchups(primary)
			data := []byte("release 000")
			for i := 0; i < 200; i++ {
				copy(data[len(data)-3:], []byte{byte('0' + i/100), byte('0' + i/10%10), byte('0' + i%10)})
				if took := writePage(t, writer, start, data); took >= time.Second { // replog's ackTimeout
					t.Fatalf("release %d took %v with one secondary cut off", i, took)
				}
			}
			if grown := runtime.NumGoroutine() - goroutines; grown > 4 {
				t.Fatalf("%d more goroutines after 200 releases with one secondary cut off, want <= 4", grown)
			}
			if got := catchups(primary) - tries; got != 0 {
				t.Fatalf("%d catch-ups built for the cut-off secondary, want 0", got)
			}
			primary.ReplSettle() // the failures are reported
			net.Heal(primary.cfg.ID, dead.cfg.ID)
			before := catchups(primary)
			primary.ReplSettle()
			if got := catchups(primary) - before; got != 1 {
				t.Fatalf("%d catch-ups after the link healed, want 1", got)
			}
			checkConverged(t, primary, dead, start, data)
		})
	}
}

// TestMajorityAckedReleaseSurvivesPrimaryCrash: a release that returned
// before the slow secondary acked survives a crash of the primary right
// after it: the secondary that acked wins the election and serves it.
func TestMajorityAckedReleaseSurvivesPrimaryCrash(t *testing.T) {
	net, primary, slow, fast, writer, start := majorityRegion(t)
	net.SetLinkLatency(primary.cfg.ID, slow.cfg.ID, 50*time.Millisecond)
	want := []byte("acked by a majority")
	writePage(t, writer, start, want)
	committed, _ := entryOf(primary, start)
	net.Crash(primary.cfg.ID)
	_, fastLast := fast.Repl().Progress(start)
	if _, slowLast := slow.Repl().Progress(start); slowLast >= fastLast {
		t.Fatalf("slow secondary at index %d, fast at %d: the release did not return before the slow ack", slowLast, fastLast)
	}

	ctx := context.Background()
	if nd := fast.promoteLocal(ctx, start); nd == nil {
		t.Fatal("promotion failed")
	}
	rng := gaddr.Range{Start: start, Size: 4096}
	lc, err := fast.Lock(ctx, rng, ktypes.LockRead, "alice")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fast.Read(lc, start, uint64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	pe, _ := entryOf(fast, start)
	if err := fast.Unlock(ctx, lc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || pe.Version != committed.Version {
		t.Fatalf("promoted home %v serves %q at v%d, want %q at v%d", fast.cfg.ID, got, pe.Version, want, committed.Version)
	}
}

// TestCrashBeforeSlowAckPromotesCurrentHome: the first listed secondary is
// the slow one, so right after a release that returned before it acked,
// its log lags the other secondary's. The primary crashes then, with no
// settle, and the writer's next lock goes through the normal promotion
// path: the lagging secondary's election ends at its first "log behind"
// refusal, not after the 2 s a campaign may retry, and the current
// secondary takes over holding the release's bytes at its version.
func TestCrashBeforeSlowAckPromotesCurrentHome(t *testing.T) {
	net, primary, current, lagging, writer, start := majorityRegion(t)
	net.SetLinkLatency(primary.cfg.ID, lagging.cfg.ID, 50*time.Millisecond)
	want := []byte("acked before the slow secondary")
	writePage(t, writer, start, want)
	committed, _ := entryOf(primary, start)
	net.Crash(primary.cfg.ID)
	_, currentLast := current.Repl().Progress(start)
	if _, laggingLast := lagging.Repl().Progress(start); laggingLast >= currentLast {
		t.Fatalf("lagging secondary at index %d, current at %d: the release did not return before the slow ack", laggingLast, currentLast)
	}

	ctx := context.Background()
	began := time.Now()
	lc, err := writer.Lock(ctx, gaddr.Range{Start: start, Size: 4096}, ktypes.LockWrite, "alice")
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(began)
	defer func() {
		if err := writer.Unlock(ctx, lc); err != nil {
			t.Fatal(err)
		}
	}()
	if took >= time.Second {
		t.Fatalf("the lock after the crash took %v, want < 1 s", took)
	}
	if leader, _ := current.Repl().Leader(start); leader != current.cfg.ID {
		t.Fatalf("log leader = %v, want the current secondary %v", leader, current.cfg.ID)
	}
	ce, _ := entryOf(current, start)
	f, ok := current.Store().Get(start)
	if !ok {
		t.Fatalf("promoted home %v holds no copy", current.cfg.ID)
	}
	defer f.Release()
	if got := f.Bytes()[:len(want)]; !bytes.Equal(got, want) || ce.Version != committed.Version {
		t.Fatalf("promoted home %v holds %q at v%d, want %q at v%d", current.cfg.ID, got, ce.Version, want, committed.Version)
	}
}

// TestSecondaryWriterKeepsHomeVersion: a secondary home that writes ends
// each release at the primary's version. Its own log append stores the
// primary's V+1 before the release returns (at two homes the primary
// waits for it), so the writer must not add one more on top: a copy one
// version ahead misses the next lock's Have and ships the bytes again.
func TestSecondaryWriterKeepsHomeVersion(t *testing.T) {
	_, primary, secondary, _, start := twoHomeRegion(t)
	for i := 1; i <= 3; i++ {
		writePage(t, secondary, start, []byte(fmt.Sprintf("write %d", i)))
		primary.ReplSettle()
		pe, _ := entryOf(primary, start)
		se, _ := entryOf(secondary, start)
		if se.Version != pe.Version {
			t.Fatalf("after write %d the secondary holds v%d, the primary v%d", i, se.Version, pe.Version)
		}
	}
}
