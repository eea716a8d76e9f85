package replog

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/telemetry"
	"khazana/internal/wire"
)

// net wires several Logs together with an in-memory SendFunc and lets
// tests cut nodes off.
type net struct {
	mu   sync.Mutex
	logs map[ktypes.NodeID]*Log
	down map[ktypes.NodeID]bool
}

func newNet() *net {
	return &net{logs: make(map[ktypes.NodeID]*Log), down: make(map[ktypes.NodeID]bool)}
}

func (n *net) add(id ktypes.NodeID, dir string, lease time.Duration) *Log {
	l := New(Config{
		Self: id,
		Dir:  dir,
		Send: func(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
			n.mu.Lock()
			dead := n.down[to] || n.down[id]
			target := n.logs[to]
			n.mu.Unlock()
			if dead || target == nil {
				return nil, errors.New("replog test: peer unreachable")
			}
			switch msg := m.(type) {
			case *wire.ReplAppend:
				return target.HandleAppend(msg), nil
			case *wire.ReplPromote:
				return target.HandleVote(msg), nil
			}
			return nil, fmt.Errorf("replog test: unexpected %T", m)
		},
		LeaseTimeout: lease,
	})
	n.mu.Lock()
	n.logs[id] = l
	n.mu.Unlock()
	return l
}

func (n *net) crash(id ktypes.NodeID) {
	n.mu.Lock()
	n.down[id] = true
	n.mu.Unlock()
}

func testDesc(homes ...ktypes.NodeID) *region.Descriptor {
	return &region.Descriptor{
		Range: gaddr.Range{Start: gaddr.New(1, 0x10000), Size: 0x4000},
		Home:  homes,
		Epoch: 1,
	}
}

func releaseEntry(page uint64, version uint64, owner ktypes.NodeID) wire.ReplEntry {
	return wire.ReplEntry{
		Op: wire.ReplOpRelease, Page: gaddr.New(1, page),
		Node: owner, Nodes: []ktypes.NodeID{1, owner}, Val: version, Aux: version,
	}
}

func TestAppendCommitsOnQuorumAndReplicatesState(t *testing.T) {
	n := newNet()
	leader := n.add(1, "", 0)
	follower := n.add(2, "", 0)
	n.add(3, "", 0)
	desc := testDesc(1, 2, 3)
	ctx := context.Background()

	for v := uint64(1); v <= 3; v++ {
		if err := leader.Append(ctx, desc, releaseEntry(0x10000, v, 2)); err != nil {
			t.Fatalf("append v%d: %v", v, err)
		}
	}
	commit, last := leader.Progress(desc.Range.Start)
	if commit != 3 || last != 3 {
		t.Fatalf("leader progress = %d/%d, want 3/3", commit, last)
	}
	// Followers hold the entries once the sends settle; their commit
	// trails by one append (it advances with the next append's Commit
	// field), so drive one more.
	if err := leader.Append(ctx, desc, releaseEntry(0x10000, 4, 2)); err != nil {
		t.Fatal(err)
	}
	leader.Settle()
	if _, flast := follower.Progress(desc.Range.Start); flast != 4 {
		t.Fatalf("follower last = %d, want 4", flast)
	}
	st, ok := leader.Snapshot(desc.Range.Start)
	if !ok {
		t.Fatal("leader has no committed state")
	}
	if got := st.PageVersion[gaddr.New(1, 0x10000)]; got != 4 {
		t.Fatalf("leader state version = %d, want 4", got)
	}
	if got := st.Owner[gaddr.New(1, 0x10000)]; got != 2 {
		t.Fatalf("leader state owner = %d, want 2", got)
	}
}

func TestAppendRejectsNonLeader(t *testing.T) {
	n := newNet()
	standby := n.add(2, "", 0)
	desc := testDesc(1, 2, 3)
	if err := standby.Append(context.Background(), desc, releaseEntry(0x10000, 1, 2)); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("append from standby = %v, want ErrNotLeader", err)
	}
}

func TestSingleHomeRegionCommitsWithoutNetwork(t *testing.T) {
	n := newNet()
	leader := n.add(1, "", 0)
	desc := testDesc(1)
	if err := leader.Append(context.Background(), desc, releaseEntry(0x10000, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if commit, _ := leader.Progress(desc.Range.Start); commit != 1 {
		t.Fatalf("commit = %d, want 1", commit)
	}
}

func TestLateFollowerCatchesUpViaSnapshot(t *testing.T) {
	n := newNet()
	leader := n.add(1, "", 0)
	desc := testDesc(1, 2, 3)
	ctx := context.Background()
	// Node 3 exists but node 2 joins late: run well past the compaction
	// floor so entry replay alone cannot catch node 2 up.
	n.add(3, "", 0)
	for v := uint64(1); v <= keepTail+40; v++ {
		if err := leader.Append(ctx, desc, releaseEntry(0x10000+4096*(v%8), v, 3)); err != nil {
			t.Fatalf("append v%d: %v", v, err)
		}
	}
	late := n.add(2, "", 0)
	if err := leader.Append(ctx, desc, releaseEntry(0x10000, keepTail+41, 3)); err != nil {
		t.Fatal(err)
	}
	leader.Settle()
	_, last := leader.Progress(desc.Range.Start)
	if _, lateLast := late.Progress(desc.Range.Start); lateLast != last {
		t.Fatalf("late follower last = %d, want %d", lateLast, last)
	}
}

func TestCompactionBoundsTail(t *testing.T) {
	n := newNet()
	leader := n.add(1, "", 0)
	desc := testDesc(1)
	for v := uint64(1); v <= keepTail*3; v++ {
		if err := leader.Append(context.Background(), desc, releaseEntry(0x10000, v, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := leader.TailLen(); got > keepTail {
		t.Fatalf("tail = %d entries, want <= %d", got, keepTail)
	}
	// Compaction must not lose state.
	st, _ := leader.Snapshot(desc.Range.Start)
	if got := st.PageVersion[gaddr.New(1, 0x10000)]; got != keepTail*3 {
		t.Fatalf("state version = %d, want %d", got, keepTail*3)
	}
}

func TestElectionAfterLeaderCrash(t *testing.T) {
	n := newNet()
	lease := 30 * time.Millisecond
	leader := n.add(1, "", lease)
	standby := n.add(2, "", lease)
	n.add(3, "", lease)
	desc := testDesc(1, 2, 3)
	ctx := context.Background()
	for v := uint64(1); v <= 5; v++ {
		if err := leader.Append(ctx, desc, releaseEntry(0x10000, v, 2)); err != nil {
			t.Fatal(err)
		}
	}
	leader.Settle()
	n.crash(1)
	// The lease must expire before peers grant votes; retry like the
	// promotion path does.
	deadline := time.Now().Add(2 * time.Second)
	won := false
	for time.Now().Before(deadline) {
		if standby.Campaign(ctx, desc) == nil {
			won = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !won {
		t.Fatal("standby never won the election")
	}
	if id, _ := standby.Leader(desc.Range.Start); id != 2 {
		t.Fatalf("leader = %d, want 2", id)
	}
	// The new leader resumes the log: all committed releases survive.
	st, ok := standby.Snapshot(desc.Range.Start)
	if !ok || st.PageVersion[gaddr.New(1, 0x10000)] < 4 {
		t.Fatalf("new leader lost releases: ok=%v state=%+v", ok, st)
	}
	// And can append under the new homes.
	newDesc := testDesc(2, 3)
	newDesc.Range = desc.Range
	if err := standby.Append(ctx, newDesc, wire.ReplEntry{
		Op: wire.ReplOpHomes, Nodes: []ktypes.NodeID{2, 3}, Val: 2,
	}); err != nil {
		t.Fatalf("append after election: %v", err)
	}
}

func TestVoteDeniedWhileLeaseLive(t *testing.T) {
	n := newNet()
	lease := time.Hour // effectively never expires
	leader := n.add(1, "", lease)
	standby := n.add(2, "", lease)
	n.add(3, "", lease)
	desc := testDesc(1, 2, 3)
	ctx := context.Background()
	if err := leader.Append(ctx, desc, releaseEntry(0x10000, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := standby.Campaign(ctx, desc); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("election against a live leader's lease = %v, want ErrNoQuorum", err)
	}
}

func TestVoteDeniedForStaleLog(t *testing.T) {
	n := newNet()
	lease := time.Nanosecond // always expired
	leader := n.add(1, "", lease)
	n.add(2, "", lease)
	n.add(3, "", lease)
	desc := testDesc(1, 2, 3)
	ctx := context.Background()
	for v := uint64(1); v <= 4; v++ {
		if err := leader.Append(ctx, desc, releaseEntry(0x10000, v, 2)); err != nil {
			t.Fatal(err)
		}
	}
	leader.Settle()
	// A fresh node with an empty log must not win over current standbys.
	empty := n.add(9, "", lease)
	descWithEmpty := testDesc(1, 2, 9)
	descWithEmpty.Range = desc.Range
	// Its first round is at a term the voters hold already; the second
	// reaches the log check.
	if err := empty.Campaign(ctx, descWithEmpty); err == nil {
		t.Fatal("empty-log candidate won over up-to-date voters")
	}
	if err := empty.Campaign(ctx, descWithEmpty); !errors.Is(err, ErrLogBehind) {
		t.Fatalf("empty-log candidate's second election = %v, want ErrLogBehind", err)
	}
}

func TestDeposedLeaderGetsErrNotLeader(t *testing.T) {
	n := newNet()
	lease := time.Nanosecond
	old := n.add(1, "", lease)
	standby := n.add(2, "", lease)
	n.add(3, "", lease)
	desc := testDesc(1, 2, 3)
	ctx := context.Background()
	if err := old.Append(ctx, desc, releaseEntry(0x10000, 1, 2)); err != nil {
		t.Fatal(err)
	}
	old.Settle()
	if err := standby.Campaign(ctx, desc); err != nil {
		t.Fatalf("standby could not win with expired lease: %v", err)
	}
	// The deposed leader's next append must be refused by the quorum.
	if err := old.Append(ctx, desc, releaseEntry(0x10000, 2, 2)); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("deposed leader append = %v, want ErrNotLeader", err)
	}
}

func TestDurableTailRoundTrips(t *testing.T) {
	dir := t.TempDir()
	n := newNet()
	leader := n.add(1, dir, 0)
	desc := testDesc(1)
	ctx := context.Background()
	for v := uint64(1); v <= 10; v++ {
		if err := leader.Append(ctx, desc, releaseEntry(0x10000, v, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Save(); err != nil {
		t.Fatal(err)
	}

	revived := n.add(1, dir, 0)
	if err := revived.Load(); err != nil {
		t.Fatal(err)
	}
	commit, last := revived.Progress(desc.Range.Start)
	wantCommit, wantLast := leader.Progress(desc.Range.Start)
	if commit != wantCommit || last != wantLast {
		t.Fatalf("restored progress %d/%d, want %d/%d", commit, last, wantCommit, wantLast)
	}
	st, ok := revived.Snapshot(desc.Range.Start)
	if !ok || st.PageVersion[gaddr.New(1, 0x10000)] != 10 {
		t.Fatalf("restored state lost releases: %+v", st)
	}
	if revived.TailLen() != leader.TailLen() {
		t.Fatalf("restored tail %d, want %d", revived.TailLen(), leader.TailLen())
	}
	// And the revived node can continue appending where it left off.
	if err := revived.Append(ctx, desc, releaseEntry(0x10000, 11, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestQuorumLossCommitsDegraded(t *testing.T) {
	n := newNet()
	leader := n.add(1, "", 0)
	n.add(2, "", 0)
	n.add(3, "", 0)
	n.crash(2)
	n.crash(3)
	desc := testDesc(1, 2, 3)
	// Both followers down: the append must still commit locally (the
	// unreachable sends fail fast, no ackTimeout stall).
	done := make(chan error, 1)
	go func() {
		done <- leader.Append(context.Background(), desc, releaseEntry(0x10000, 1, 1))
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("degraded append did not return")
	}
	if commit, _ := leader.Progress(desc.Range.Start); commit != 1 {
		t.Fatalf("degraded commit = %d, want 1", commit)
	}
}

func TestConcurrentAppendsStayOrdered(t *testing.T) {
	n := newNet()
	leader := n.add(1, "", 0)
	follower := n.add(2, "", 0)
	n.add(3, "", 0)
	desc := testDesc(1, 2, 3)
	ctx := context.Background()
	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := leader.Append(ctx, desc, releaseEntry(0x10000+4096*uint64(w), uint64(i+1), 2)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	_, last := leader.Progress(desc.Range.Start)
	if last != writers*perWriter {
		t.Fatalf("last index = %d, want %d", last, writers*perWriter)
	}
	// Drive one more append (on a page no writer used) so followers
	// learn the final commit, then check the writers' pages match at
	// the follower.
	if err := leader.Append(ctx, desc, releaseEntry(0x30000, 1, 2)); err != nil {
		t.Fatal(err)
	}
	leader.Settle()
	lst, _ := leader.Snapshot(desc.Range.Start)
	fst, _ := follower.Snapshot(desc.Range.Start)
	for w := 0; w < writers; w++ {
		p := gaddr.New(1, 0x10000+4096*uint64(w))
		if lst.PageVersion[p] != perWriter || fst.PageVersion[p] != perWriter {
			t.Fatalf("page %v: leader %d follower %d, want %d",
				p, lst.PageVersion[p], fst.PageVersion[p], perWriter)
		}
	}
}

// TestAppendPagesShipsPagesOnce: a release's pages ride its append to each
// follower once, and the append returns at a majority. A follower that
// refuses them gets no second message from that append or the next: it
// rests, and the appends' entries wait in the log for its one catch-up,
// which Settle sends without pages here (the log has no page source). The pages' frames stay
// referenced while a send can still read them and are released when the
// last one ends.
func TestAppendPagesShipsPagesOnce(t *testing.T) {
	var (
		mu       sync.Mutex
		logs     = map[ktypes.NodeID]*Log{}
		received = map[ktypes.NodeID][]*wire.ReplAppend{}
		refuse   = true        // node 3 NACKs page-carrying appends
		stall    chan struct{} // when set, node 3 blocks until it closes
	)
	send := func(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		app := m.(*wire.ReplAppend)
		mu.Lock()
		received[to] = append(received[to], &wire.ReplAppend{Entries: app.Entries, Pages: app.Pages})
		nack, wait := to == 3 && refuse && len(app.Pages) > 0, stall
		mu.Unlock()
		if to == 3 && wait != nil {
			<-wait
			return nil, errors.New("replog test: stalled send gave up")
		}
		if nack {
			return &wire.ReplAck{Term: app.Term, Err: "store failed"}, nil
		}
		return logs[to].HandleAppend(app), nil
	}
	tel := telemetry.New()
	for _, id := range []ktypes.NodeID{1, 2, 3} {
		logs[id] = New(Config{Self: id, Send: send, Tel: tel})
	}
	desc := testDesc(1, 2, 3)
	ctx := context.Background()
	appendPage := func(ctx context.Context, version uint64) *frame.Frame {
		t.Helper()
		f := frame.Copy([]byte{byte(version)})
		page := []wire.UpdateItem{{Page: gaddr.New(1, 0x10000), Version: version, Origin: 1}}
		page[0].SetFrame(f)
		if err := logs[1].AppendPages(ctx, desc, page, releaseEntry(0x10000, version, 1)); err != nil {
			t.Fatal(err)
		}
		return f
	}
	count := func(to ktypes.NodeID) (msgs, withPages int) {
		mu.Lock()
		defer mu.Unlock()
		for _, m := range received[to] {
			if len(m.Pages) > 0 {
				withPages++
			}
		}
		return len(received[to]), withPages
	}

	f := appendPage(ctx, 1)
	logs[1].wait()
	if msgs, _ := count(3); msgs != 1 {
		t.Fatalf("a refusing follower got %d messages, want 1", msgs)
	}
	if f.Refs() != 1 {
		t.Fatalf("the page frame has %d refs after every send ended, want the caller's 1", f.Refs())
	}
	f.Release()
	appendPage(ctx, 2).Release() // node 3 rests: entry 2 waits for its catch-up
	logs[1].wait()
	if msgs, _ := count(3); msgs != 1 {
		t.Fatalf("a resting follower got %d messages, want still 1", msgs)
	}

	mu.Lock()
	refuse = false
	mu.Unlock()
	logs[1].Settle()
	if msgs, withPages := count(3); msgs != 2 || withPages != 1 {
		t.Fatalf("node 3 got %d messages, %d with pages; want 2, the catch-up without pages", msgs, withPages)
	}
	if got := tel.Counter(telemetry.MetricReplCatchups).Load(); got != 1 {
		t.Fatalf("%d catch-ups, want 1", got)
	}
	_, last := logs[1].Progress(desc.Range.Start)
	if _, l3 := logs[3].Progress(desc.Range.Start); l3 != last {
		t.Fatalf("node 3 last = %d after its catch-up, want %d", l3, last)
	}
	if msgs, withPages := count(2); msgs != 2 || withPages != 2 {
		t.Fatalf("node 2 got %d messages, %d with pages; want one per append, each with its pages", msgs, withPages)
	}

	release := make(chan struct{})
	mu.Lock()
	stall = release
	mu.Unlock()
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	f = appendPage(short, 3) // returns on node 2's ack
	if f.Refs() < 2 {
		t.Fatal("the page frame was released while a send could still read it")
	}
	close(release)
	logs[1].wait()
	if f.Refs() != 1 {
		t.Fatalf("the page frame has %d refs after the stalled send ended, want 1", f.Refs())
	}
	f.Release()
}

// heldNet is a log group whose sends to held nodes announce themselves on
// arrived and then wait for a token on release, or their context's end.
type heldNet struct {
	logs             map[ktypes.NodeID]*Log
	held             map[ktypes.NodeID]bool
	arrived, release chan struct{}
}

func newHeldNet(tel *telemetry.Registry, ids []ktypes.NodeID, held ...ktypes.NodeID) *heldNet {
	h := &heldNet{
		logs: map[ktypes.NodeID]*Log{}, held: map[ktypes.NodeID]bool{},
		// arrived has room for every send a test makes, read or not.
		arrived: make(chan struct{}, 64), release: make(chan struct{}),
	}
	for _, id := range held {
		h.held[id] = true
	}
	send := func(ctx context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		if h.held[to] {
			h.arrived <- struct{}{}
			select {
			case <-h.release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return h.logs[to].HandleAppend(m.(*wire.ReplAppend)), nil
	}
	for _, id := range ids {
		h.logs[id] = New(Config{Self: id, Send: send, Tel: tel})
	}
	return h
}

// TestEachAppendReturnsAtItsOwnAck: two appends on one region with its one
// follower slow; the first returns when the follower acks it, while the
// second is still on its way, not when the follower's stream drains.
func TestEachAppendReturnsAtItsOwnAck(t *testing.T) {
	h := newHeldNet(nil, []ktypes.NodeID{1, 2}, 2)
	leader := h.logs[1]
	desc := testDesc(1, 2)
	ctx := context.Background()
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- leader.Append(ctx, desc, releaseEntry(0x10000, 1, 1)) }()
	<-h.arrived // the first append's send is in flight
	go func() { second <- leader.Append(ctx, desc, releaseEntry(0x11000, 1, 1)) }()
	for _, last := leader.Progress(desc.Range.Start); last < 2; _, last = leader.Progress(desc.Range.Start) {
		time.Sleep(time.Millisecond) // the second append waits behind the first
	}
	h.release <- struct{}{} // the follower acks the first append
	<-h.arrived             // and the second append's send starts
	select {
	case err := <-first:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(ackTimeout / 2): // before the second send times out
		t.Fatal("the first append waited for the second one's ack")
	}
	if commit, _ := leader.Progress(desc.Range.Start); commit != 1 {
		t.Fatalf("commit = %d with the second append unacked, want 1", commit)
	}
	h.release <- struct{}{}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	leader.Settle()
}

// TestAppendReturnsWhenCtxEnds: with both followers stalled, an append
// whose context ends returns then, committed degraded, not when its sends
// time out; the sends go on, detached, until they end.
func TestAppendReturnsWhenCtxEnds(t *testing.T) {
	tel := telemetry.New()
	h := newHeldNet(tel, []ktypes.NodeID{1, 2, 3}, 2, 3)
	leader := h.logs[1]
	desc := testDesc(1, 2, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	began := time.Now()
	if err := leader.Append(ctx, desc, releaseEntry(0x10000, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took >= ackTimeout/2 {
		t.Fatalf("append took %v after its 20 ms context ended, want < %v", took, ackTimeout/2)
	}
	if commit, _ := leader.Progress(desc.Range.Start); commit != 1 {
		t.Fatalf("commit = %d, want the degraded commit 1", commit)
	}
	if got := tel.Counter(telemetry.MetricReplDegradedCommits).Load(); got != 1 {
		t.Fatalf("%d degraded commits, want 1", got)
	}
	close(h.release)
	leader.Settle()
	for _, id := range []ktypes.NodeID{2, 3} {
		if _, last := h.logs[id].Progress(desc.Range.Start); last != 1 {
			t.Fatalf("follower %d last = %d after the sends ended, want 1", id, last)
		}
	}
}
