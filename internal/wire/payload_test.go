package wire

import (
	"bytes"
	"testing"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
)

// payloadKind builds one payload-carrying message around a single page
// backed by f at version, and takes the decoded page's frame back out.
type payloadKind struct {
	name  string
	build func(f *frame.Frame, version uint64) Msg
	take  func(m Msg) *frame.Frame
}

var payloadKinds = []payloadKind{
	{"PageGrantBatch", func(f *frame.Frame, v uint64) Msg {
		m := &PageGrantBatch{Grants: []PageGrantItem{{OK: true, Version: v, Owner: 2}}}
		m.Grants[0].SetFrame(f)
		return m
	}, func(m Msg) *frame.Frame { return m.(*PageGrantBatch).Grants[0].TakeFrame() }},
	{"ReleaseBatch", func(f *frame.Frame, v uint64) Msg {
		m := &ReleaseBatch{From: 3, Items: []ReleaseItem{{Page: gaddr.FromUint64(0x1000), Mode: ktypes.LockWrite, Dirty: true, Version: v}}}
		m.Items[0].SetFrame(f)
		return m
	}, func(m Msg) *frame.Frame { return m.(*ReleaseBatch).Items[0].TakeFrame() }},
	{"UpdateBatch", func(f *frame.Frame, v uint64) Msg {
		m := &UpdateBatch{From: 3, Items: []UpdateItem{{Page: gaddr.FromUint64(0x1000), Version: v, Origin: 3}}}
		m.Items[0].SetFrame(f)
		return m
	}, func(m Msg) *frame.Frame { return m.(*UpdateBatch).Items[0].TakeFrame() }},
	{"ReplicaPut", func(f *frame.Frame, v uint64) Msg {
		m := &ReplicaPut{From: 3, Items: []UpdateItem{{Page: gaddr.FromUint64(0x1000), Version: v, Origin: 3}}}
		m.Items[0].SetFrame(f)
		return m
	}, func(m Msg) *frame.Frame { return m.(*ReplicaPut).Items[0].TakeFrame() }},
	{"ReplAppend", func(f *frame.Frame, v uint64) Msg {
		m := &ReplAppend{Region: gaddr.FromUint64(0x1000), From: 3, Term: 2, Pages: []UpdateItem{{Page: gaddr.FromUint64(0x1000), Version: v, Origin: 3}}}
		m.Pages[0].SetFrame(f)
		return m
	}, func(m Msg) *frame.Frame { return m.(*ReplAppend).Pages[0].TakeFrame() }},
	{"SnapshotGrantBatch", func(f *frame.Frame, v uint64) Msg {
		m := &SnapshotGrantBatch{Epoch: 4, Items: []SnapshotItem{{OK: true, Version: v}}}
		m.Items[0].SetFrame(f)
		return m
	}, func(m Msg) *frame.Frame { return m.(*SnapshotGrantBatch).Items[0].TakeFrame() }},
}

// crossByReference encodes m with its payloads lifted out as frames, drops
// the sender message's references when dropSender is set, and decodes the
// result, as an in-process link does.
func crossByReference(t *testing.T, m Msg, dropSender bool) Msg {
	t.Helper()
	var frames []*frame.Frame
	b := MarshalFrames(nil, &frames, m)
	if dropSender {
		Recycle(m)
	}
	back, err := UnmarshalFrames(b, frames)
	if err != nil {
		t.Fatalf("%T: UnmarshalFrames: %v", m, err)
	}
	return back
}

// TestSharedFrameKeepsSenderStamp: a payload frame that crossed by
// reference is the sender's too, and its stamp is the version the
// sender's chain and snapshot reads go by. Decode stamps it with the
// item's version only when it already carries that version or nobody
// else holds it; otherwise the receiver gets a stamped private copy.
func TestSharedFrameKeepsSenderStamp(t *testing.T) {
	contents := bytes.Repeat([]byte{0x5A}, 4096)
	for _, k := range payloadKinds {
		for _, c := range []struct {
			name            string
			stamp, version  uint64
			dropSender      bool
			wantShared      bool
			wantSenderStamp uint64
		}{
			{"stamp matches", 7, 7, false, true, 7},
			{"stamp differs, frame shared", 5, 7, false, false, 5},
			{"stamp differs, sole owner", 5, 7, true, true, 7},
		} {
			f := frame.Copy(contents)
			f.SetVersion(c.stamp)
			m := k.build(f, c.version)
			if c.dropSender {
				f.Release() // the message's reference is then the only one
			}
			got := k.take(crossByReference(t, m, c.dropSender))
			if got == nil || !bytes.Equal(got.Bytes(), contents) || got.Version() != c.version {
				t.Fatalf("%s, %s: decoded page does not hold the contents at version %d", k.name, c.name, c.version)
			}
			if (got == f) != c.wantShared {
				t.Errorf("%s, %s: decoded frame shared with the sender = %v, want %v", k.name, c.name, got == f, c.wantShared)
			}
			if f.Version() != c.wantSenderStamp {
				t.Errorf("%s, %s: the sender's frame is stamped %d after decode, want %d", k.name, c.name, f.Version(), c.wantSenderStamp)
			}
			got.Release()
			if !c.dropSender {
				Recycle(m)
				f.Release()
			}
		}
	}
}
