package wire

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/security"
)

// sampleMessages returns one populated instance of every message type.
func sampleMessages() []Msg {
	desc := &region.Descriptor{
		Range: gaddr.Range{Start: gaddr.New(1, 0x1000), Size: 0x4000},
		Attrs: region.Attrs{
			PageSize:    4096,
			Level:       region.Strict,
			Protocol:    region.CREW,
			MinReplicas: 2,
			ACL:         security.Private("alice").Grant("bob", security.PermRead),
		},
		Home:      []ktypes.NodeID{1, 3},
		Epoch:     7,
		Allocated: true,
	}
	return []Msg{
		&Ack{Err: "boom"},
		&Ack{},
		&Ping{From: 4, SentUnixNano: 1234567890},
		&Pong{From: 5, EchoUnixNano: 1234567890},
		&RegionLookup{Addr: gaddr.New(2, 0x2000)},
		&RegionInfo{Found: true, Desc: desc},
		&RegionInfo{Found: false, Err: "not found"},
		&AttrSet{Desc: desc, Principal: "alice"},
		&ReserveSpace{From: 2, Size: 1 << 30},
		&SpaceGrant{Range: gaddr.Range{Start: gaddr.New(0, 1<<30), Size: 1 << 30}},
		&SpaceGrant{Err: "no space"},
		&InvalidateBatch{NewOwner: 4, Items: []InvalidateItem{
			{Page: gaddr.New(0, 0x3000), Version: 10},
			{Page: gaddr.New(0, 0x4000), Version: 11},
		}},
		&InvalidateBatch{NewOwner: 1},
		&ReplicaPut{From: 1, Items: []UpdateItem{
			{Page: gaddr.New(0, 0x6000), Data: []byte("replica"), Version: 4, Origin: 1},
			{Page: gaddr.New(0, 0x7000), Data: []byte("second"), Version: 9, Origin: 1},
		}},
		&ReplicaPut{From: 2},
		&Join{Node: 6, Addr: "127.0.0.1:9999"},
		&ClusterView{Manager: 1, Members: []ktypes.NodeID{1, 2, 3, 6}},
		&Heartbeat{Node: 2},
		&Leave{Node: 6},
		&CReserve{Size: 8192, Attrs: region.DefaultAttrs(), Principal: "bob"},
		&CReserveResp{Start: gaddr.New(0, 0x10000)},
		&CUnreserve{Start: gaddr.New(0, 0x10000), Principal: "bob"},
		&CAllocate{Start: gaddr.New(0, 0x10000), Principal: "bob"},
		&CFree{Start: gaddr.New(0, 0x10000), Principal: "bob"},
		&CLock{Range: gaddr.Range{Start: gaddr.New(0, 0x10000), Size: 4096}, Mode: ktypes.LockRead, Principal: "bob"},
		&CLockResp{LockID: 77},
		&CUnlock{LockID: 77},
		&CRead{LockID: 77, Addr: gaddr.New(0, 0x10000), Len: 128},
		&CData{Data: []byte("result")},
		&CWrite{LockID: 77, Addr: gaddr.New(0, 0x10080), Data: []byte("payload")},
		&CGetAttr{Addr: gaddr.New(0, 0x10000)},
		&CSetAttr{Start: gaddr.New(0, 0x10000), Attrs: region.DefaultAttrs(), Principal: "bob"},
		&KVGet{Key: gaddr.New(0, 0x20000), Len: 64, Off: 8},
		&KVPut{Key: gaddr.New(0, 0x20000), Off: 8, Data: []byte("kv")},
		&MapInsert{Range: gaddr.Range{Start: gaddr.New(0, 0x40000000), Size: 0x2000}, Homes: []ktypes.NodeID{2}},
		&MapRemove{Start: gaddr.New(0, 0x40000000)},
		&MapSetHomes{Start: gaddr.New(0, 0x40000000), Homes: []ktypes.NodeID{3, 4}},
		&Promote{Start: gaddr.New(0, 0x40000000), From: 2},
		&ObjInvoke{Ref: gaddr.New(0, 0x50000000), Method: "deposit", Args: []byte{1, 2}},
		&ObjResult{Result: []byte("ok")},
		&ObjResult{Err: "no such method"},
		&Migrate{Start: gaddr.New(0, 0x60000000), NewHome: 3, Principal: "admin"},
		&PageReqBatch{
			Pages:     []gaddr.Addr{gaddr.New(0, 0x3000), gaddr.New(0, 0x4000)},
			Modes:     []ktypes.LockMode{ktypes.LockRead, ktypes.LockWrite},
			Requester: 2,
		},
		&PageReqBatch{
			Pages:     []gaddr.Addr{gaddr.New(0, 0x3000), gaddr.New(0, 0x4000)},
			Modes:     []ktypes.LockMode{ktypes.LockRead, ktypes.LockRead},
			Requester: 2,
			Have:      []uint64{0, 8},
		},
		&PageGrantBatch{Grants: []PageGrantItem{
			{OK: true, Data: []byte("page"), Version: 3, Owner: 1},
			{OK: true, Current: true, Version: 7, Owner: 1},
			{Err: "conflict"},
		}},
		&ReleaseBatch{From: 2, Items: []ReleaseItem{
			{Page: gaddr.New(0, 0x3000), Mode: ktypes.LockWrite, Dirty: true, Data: []byte("d"), Version: 4},
			{Page: gaddr.New(0, 0x4000), Mode: ktypes.LockRead},
		}},
		&ReleaseBatchResp{Errs: []string{"", "store failed"}},
		&StatsQuery{IncludeSpans: true},
		&StatsQuery{},
		&StatsReply{
			Node:     3,
			Counters: []NamedCounter{{Name: "core.lookups", Value: 42}},
			Gauges:   []NamedGauge{{Name: "store.mem_pages", Value: -1}},
			Hists: []HistStat{
				{Name: "core.lock_latency_ns", Count: 2, Sum: 3000, Buckets: []uint64{0, 1, 1}},
				{Name: "net.ping_rtt_ns"},
			},
			Spans: []SpanStat{{Trace: 7, Span: 8, Parent: 9, Node: 3,
				Name: "op.lock", StartUnixNano: 100, DurationNs: 250}},
			Members: []ktypes.NodeID{1, 3},
		},
		&StatsReply{Node: 1},
		&PageGrantBatch{
			Grants: []PageGrantItem{
				{OK: true, Data: []byte("page"), Version: 3, Owner: 1},
				{OK: false, Err: "not attempted"},
			},
		},
		&UpdateBatch{From: 2, Items: []UpdateItem{
			{Page: gaddr.New(0, 0x3000), Data: []byte("u1"), Version: 4, Origin: 2},
			{Page: gaddr.New(0, 0x4000), Data: []byte("u2"), Version: 5, Origin: 3},
		}},
		&UpdateBatch{From: 1},
		&SnapshotReqBatch{
			Pages:     []gaddr.Addr{gaddr.New(0, 0x1000), gaddr.New(0, 0x2000)},
			Epoch:     12,
			Requester: 2,
		},
		&SnapshotReqBatch{Requester: 1},
		&SnapshotGrantBatch{Epoch: 12, Items: []SnapshotItem{
			{OK: true, Data: []byte("snap"), Version: 6},
			{OK: false, Err: "not home"},
		}},
		&SnapshotGrantBatch{Epoch: 1},
		&ReplAppend{
			Region: gaddr.New(0, 0x40000000), From: 2, Term: 3,
			PrevIndex: 6, PrevTerm: 3, Commit: 5,
			Entries: []ReplEntry{
				{Index: 7, Term: 3, Region: gaddr.New(0, 0x40000000),
					Op: ReplOpRelease, Page: gaddr.New(0, 0x40001000),
					Node: 4, Nodes: []ktypes.NodeID{2, 4}, Val: 9, Aux: 2},
				{Index: 8, Term: 3, Region: gaddr.New(0, 0x40000000),
					Op: ReplOpHomes, Nodes: []ktypes.NodeID{2, 1, 3}, Val: 11},
			},
			Pages: []UpdateItem{{Page: gaddr.New(0, 0x40001000), Data: []byte("released"), Version: 9, Origin: 2}},
		},
		&ReplAppend{Region: gaddr.New(0, 0x40000000), From: 2, Term: 4,
			SnapIndex: 8, SnapTerm: 3, SnapState: []byte("state")},
		&ReplAck{Term: 3, Ack: 8, OK: true},
		&ReplAck{Term: 5, VoteGranted: true},
		&ReplAck{Term: 4, Err: "lease still live"},
		&ReplPromote{Region: gaddr.New(0, 0x40000000), Candidate: 3,
			Term: 5, LastIndex: 8, LastTerm: 3},
		&RingLookup{Addr: gaddr.New(0, 0x40002000), From: 4},
		&RingReply{Found: true, Desc: desc},
		&RingReply{Found: false, Err: "not in table"},
		&RingAnnounce{Op: RingOpPut, Desc: desc, Start: desc.Range.Start, From: 2},
		&RingAnnounce{Op: RingOpWithdraw, Start: gaddr.New(0, 0x40000000), From: 3},
		&RingAnnounce{Op: RingOpDestroy, Start: gaddr.New(0, 0x40000000), From: 3},
	}
}

// frameSlots returns the unexported frame slot behind every payload m
// carries.
func frameSlots(m Msg) []**frame.Frame {
	var slots []**frame.Frame
	switch msg := m.(type) {
	case *ReplicaPut:
		for i := range msg.Items {
			slots = append(slots, &msg.Items[i].dataFrame)
		}
	case *PageGrantBatch:
		for i := range msg.Grants {
			slots = append(slots, &msg.Grants[i].dataFrame)
		}
	case *ReleaseBatch:
		for i := range msg.Items {
			slots = append(slots, &msg.Items[i].dataFrame)
		}
	case *UpdateBatch:
		for i := range msg.Items {
			slots = append(slots, &msg.Items[i].dataFrame)
		}
	case *ReplAppend:
		for i := range msg.Pages {
			slots = append(slots, &msg.Pages[i].dataFrame)
		}
	case *SnapshotGrantBatch:
		for i := range msg.Items {
			slots = append(slots, &msg.Items[i].dataFrame)
		}
	}
	return slots
}

// detachFrames clears the unexported frame backing decoded payloads so
// DeepEqual compares only the encoded fields. The frames are deliberately
// leaked to the GC, never released, so the Data views stay valid.
func detachFrames(m Msg) {
	for _, slot := range frameSlots(m) {
		*slot = nil
	}
}

func TestEveryMessageRoundTrips(t *testing.T) {
	for _, m := range sampleMessages() {
		b := Marshal(m)
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: unmarshal: %v", m, err)
		}
		if got.Kind() != m.Kind() {
			t.Fatalf("%T: kind %d != %d", m, got.Kind(), m.Kind())
		}
		detachFrames(got)
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%T round trip mismatch:\n got %+v\nwant %+v", m, got, m)
		}
	}
}

// TestDecodedMessagesNeverAliasInput pins the contract the transports'
// buffer pools rest on: the reader recycles its buffer right after
// decoding, before any handler runs, so nothing a decoded message holds —
// plain or unwrapped from a trace envelope — may point into the input.
func TestDecodedMessagesNeverAliasInput(t *testing.T) {
	for _, m := range sampleMessages() {
		want := Marshal(m)
		for _, buf := range [][]byte{append([]byte(nil), want...), AppendTraced(nil, nil, 1, 2, m)} {
			back, _, _, traced, err := UnmarshalRequest(buf, nil)
			if err != nil {
				t.Fatalf("%T: unmarshal: %v", m, err)
			}
			for i := range buf {
				buf[i] = 0xFF
			}
			if got := Marshal(back); !bytes.Equal(got, want) {
				t.Errorf("%T (traced %v) changed when its input buffer was overwritten", m, traced)
			}
			Recycle(back)
		}
	}
}

func TestEveryKindRegistered(t *testing.T) {
	seen := make(map[Kind]bool)
	for _, m := range sampleMessages() {
		seen[m.Kind()] = true
	}
	for kind := range factories {
		if !seen[kind] {
			t.Errorf("kind %d has no sample message; add one to keep coverage honest", kind)
		}
	}
	// And the reverse: every sample's kind must be registered.
	for _, m := range sampleMessages() {
		if _, ok := factories[m.Kind()]; !ok {
			t.Errorf("%T kind %d not registered", m, m.Kind())
		}
	}
}

// TestBatchMessageRoundTrips exercises the batched page-transfer messages
// across their edge shapes: empty batches, single-page batches, a batch at
// the u16 count limit, and nil data vectors.
func TestBatchMessageRoundTrips(t *testing.T) {
	const maxFanout = 65535
	bigPages := make([]gaddr.Addr, maxFanout)
	bigModes := make([]ktypes.LockMode, maxFanout)
	bigGrants := make([]PageGrantItem, maxFanout)
	bigItems := make([]ReleaseItem, maxFanout)
	bigErrs := make([]string, maxFanout)
	for i := 0; i < maxFanout; i++ {
		bigPages[i] = gaddr.New(0, uint64(i)*4096)
		bigModes[i] = ktypes.LockRead
		// Nil Data throughout: credential-only grants and clean releases
		// carry no page bytes.
		bigGrants[i] = PageGrantItem{OK: true, Version: uint64(i), Owner: 1}
		bigItems[i] = ReleaseItem{Page: bigPages[i], Mode: ktypes.LockRead}
		bigErrs[i] = ""
	}
	cases := []Msg{
		// Empty vectors.
		&PageReqBatch{Requester: 3},
		&PageGrantBatch{},
		&ReleaseBatch{From: 3},
		&ReleaseBatchResp{},
		// Single page.
		&PageReqBatch{Pages: []gaddr.Addr{gaddr.New(1, 0x1000)}, Modes: []ktypes.LockMode{ktypes.LockWrite}, Requester: 9},
		&PageGrantBatch{Grants: []PageGrantItem{{OK: true, Data: []byte("contents"), Version: 12, Owner: 7}}},
		&ReleaseBatch{From: 9, Items: []ReleaseItem{{Page: gaddr.New(1, 0x1000), Mode: ktypes.LockWrite, Dirty: true, Data: []byte("dirty"), Version: 13}}},
		&ReleaseBatchResp{Errs: []string{"conflict"}},
		// Max fan-out at the u16 count limit, nil data vectors.
		&PageReqBatch{Pages: bigPages, Modes: bigModes, Requester: 1},
		&PageGrantBatch{Grants: bigGrants},
		&ReleaseBatch{From: 1, Items: bigItems},
		&ReleaseBatchResp{Errs: bigErrs},
	}
	for _, m := range cases {
		b := Marshal(m)
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: unmarshal: %v", m, err)
		}
		detachFrames(got)
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%T round trip mismatch", m)
		}
	}

	// Truncations of a populated batch must fail cleanly, never yield a
	// partially-filled message.
	full := Marshal(&ReleaseBatch{From: 2, Items: []ReleaseItem{
		{Page: gaddr.New(0, 0x1000), Mode: ktypes.LockWrite, Dirty: true, Data: []byte("abc"), Version: 1},
		{Page: gaddr.New(0, 0x2000), Mode: ktypes.LockRead},
	}})
	for cut := 2; cut < len(full); cut++ {
		if _, err := Unmarshal(full[:cut]); err == nil {
			t.Errorf("ReleaseBatch cut=%d should fail", cut)
		}
	}
}

// TestReplAppendCopysetsShareOneArray: a decoded append's copysets share
// one array, each capped at its own length, so an append to one entry's
// copyset copies instead of overwriting the next entry's, and the message
// re-encodes byte for byte. An entry with no copyset stays nil.
func TestReplAppendCopysetsShareOneArray(t *testing.T) {
	region := gaddr.New(2, 0)
	m := &ReplAppend{Region: region, From: 1, Term: 3, Commit: 4}
	for i, nodes := range [][]ktypes.NodeID{{1, 2, 3}, {2, 3}, nil, {4, 1, 2}, {3}} {
		m.Entries = append(m.Entries, ReplEntry{
			Index: uint64(i + 1), Term: 3, Region: region, Op: ReplOpRelease,
			Page: gaddr.New(2, uint64(i)<<12), Node: 2, Nodes: nodes, Val: uint64(i), Aux: 7,
		})
	}
	b := Marshal(m)
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	entries := got.(*ReplAppend).Entries
	if !reflect.DeepEqual(entries, m.Entries) {
		t.Fatalf("decoded entries %+v, want %+v", entries, m.Entries)
	}
	if !bytes.Equal(Marshal(got), b) {
		t.Fatal("decoded append does not re-encode byte for byte")
	}
	var prev []ktypes.NodeID
	for i, en := range entries {
		if en.Nodes == nil {
			continue
		}
		if cap(en.Nodes) != len(en.Nodes) {
			t.Fatalf("entry %d copyset has capacity %d for %d nodes", i, cap(en.Nodes), len(en.Nodes))
		}
		next := unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), len(prev)*int(unsafe.Sizeof(ktypes.NodeID(0))))
		if prev != nil && next != unsafe.Pointer(&en.Nodes[0]) {
			t.Fatalf("entry %d copyset does not follow the previous one in a shared array", i)
		}
		prev = en.Nodes
	}
	grown := append(entries[0].Nodes, 9)
	if !reflect.DeepEqual(entries[1].Nodes, m.Entries[1].Nodes) || grown[3] != 9 {
		t.Fatalf("appending to entry 0's copyset changed entry 1's: %v", entries[1].Nodes)
	}
	if len(Marshal(&ReplAppend{Entries: []ReplEntry{{}}}))-len(Marshal(&ReplAppend{})) != replEntryMinLen {
		t.Fatalf("an entry with no copyset does not encode in replEntryMinLen (%d) bytes", replEntryMinLen)
	}
}

func TestKindsAreUnique(t *testing.T) {
	byKind := make(map[Kind]string)
	for _, m := range sampleMessages() {
		name := reflect.TypeOf(m).String()
		if prev, ok := byKind[m.Kind()]; ok && prev != name {
			t.Errorf("kind %d shared by %s and %s", m.Kind(), prev, name)
		}
		byKind[m.Kind()] = name
	}
}

func TestFactoryProducesCorrectKind(t *testing.T) {
	for kind, f := range factories {
		if got := f().Kind(); got != kind {
			t.Errorf("factory for kind %d produces kind %d", kind, got)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("empty buffer should fail")
	}
	if _, err := Unmarshal([]byte{0xff, 0xff}); err == nil {
		t.Error("unknown kind should fail")
	}
	// Truncated payload of a real message.
	b := Marshal(&UpdateBatch{From: 1, Items: []UpdateItem{{Page: gaddr.New(0, 0x3000), Data: []byte("abcdef"), Version: 1}}})
	for cut := 2; cut < len(b); cut++ {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Errorf("cut=%d should fail", cut)
		}
	}
	// Trailing garbage.
	withTrailing := append(Marshal(&Ping{From: 1}), 0xee)
	if _, err := Unmarshal(withTrailing); err == nil {
		t.Error("trailing bytes should fail")
	}
}

// TestRetiredKindsRejected pins the wire contract left by deleting the
// per-page messages, the copyset and version queries, the fixed-field
// stats pair, the cluster-manager location query, the per-page fetch and
// the push reply with parallel lists: their kind numbers stay reserved,
// Unmarshal refuses them, and every later kind keeps the number it has
// always had.
func TestRetiredKindsRejected(t *testing.T) {
	for name, kind := range map[string]Kind{
		"PageReq": KindPageReq, "PageGrant": KindPageGrant, "Invalidate": KindInvalidate,
		"UpdatePush": KindUpdatePush, "ReleaseNotify": KindReleaseNotify,
		"CopysetQuery": KindCopysetQuery, "CopysetInfo": KindCopysetInfo,
		"VersionQuery": KindVersionQuery, "VersionInfo": KindVersionInfo,
		"StatsReq": KindStatsReq, "StatsResp": KindStatsResp,
		"ClusterQuery": KindClusterQuery, "ClusterHint": KindClusterHint,
		"PageFetch": KindPageFetch, "PageData": KindPageData, "UpdateBatchResp": KindUpdateBatchResp,
	} {
		body := append([]byte{byte(kind), byte(kind >> 8)}, make([]byte, 64)...)
		if m, err := Unmarshal(body); err == nil {
			t.Errorf("retired kind %s (%d) decoded as %T", name, kind, m)
		}
	}
	for kind, want := range map[Kind]Kind{
		KindPageReq: 9, KindPageGrant: 10, KindInvalidate: 11,
		KindPageFetch: 12, KindUpdatePush: 14, KindVersionQuery: 15,
		KindReleaseNotify: 17, KindReplicaPut: 18, KindCopysetInfo: 20, KindJoin: 21,
		KindClusterQuery: 24, KindClusterHint: 25, KindLeave: 26,
		KindPageReqBatch: 51, KindUpdateBatch: 58, KindUpdateBatchResp: 59,
		KindRingAnnounce: 67, KindInvalidateBatch: 68,
	} {
		if kind != want {
			t.Errorf("kind renumbered: got %d, want %d", kind, want)
		}
	}
	for _, m := range []Msg{&ReplicaPut{}, &SnapshotReqBatch{}, &InvalidateBatch{}} {
		if back, err := Unmarshal(Marshal(m)); err != nil || back.Kind() != m.Kind() {
			t.Errorf("%T after a retired kind did not round trip: %v", m, err)
		}
	}
}

// Property: Unmarshal never panics on arbitrary input.
func TestQuickUnmarshalNoPanic(t *testing.T) {
	f := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Unmarshal(b)
		return true
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: fuzzing a valid message's bytes either fails cleanly or yields
// some message; it never panics.
func TestQuickBitFlipNoPanic(t *testing.T) {
	base := Marshal(&UpdateBatch{From: 3, Items: []UpdateItem{{Page: gaddr.New(0, 0x4000), Data: []byte("data"), Version: 2, Origin: 3}}})
	f := func(pos int, bit uint8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		b := append([]byte(nil), base...)
		if len(b) == 0 {
			return true
		}
		p := pos % len(b)
		if p < 0 {
			p = -p
		}
		b[p] ^= 1 << (bit % 8)
		_, _ = Unmarshal(b)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalPageGrant(b *testing.B) {
	m := &PageGrantBatch{Grants: []PageGrantItem{{OK: true, Data: make([]byte, 4096), Version: 1, Owner: 2}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Marshal(m)
	}
}

func BenchmarkUnmarshalPageGrant(b *testing.B) {
	raw := Marshal(&PageGrantBatch{Grants: []PageGrantItem{{OK: true, Data: make([]byte, 4096), Version: 1, Owner: 2}}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}
