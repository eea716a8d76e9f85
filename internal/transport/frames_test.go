package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/telemetry"
	"khazana/internal/wire"
)

// dirtyRelease builds a one-page dirty ReleaseBatch whose page holds fill.
func dirtyRelease(from ktypes.NodeID, fill byte) *wire.ReleaseBatch {
	return &wire.ReleaseBatch{From: from, Items: []wire.ReleaseItem{{
		Page: gaddr.FromUint64(0x1000), Mode: ktypes.LockWrite, Dirty: true,
		Data: bytes.Repeat([]byte{fill}, 4096), Version: 1,
	}}}
}

// testFailingHandlerReleasesFrames drives one frame-carrying request into
// a handler that fails. The handler keeps a reference of its own to the
// inbound page frame (TakeFrame, then SetFrame to hand the message's
// reference back), so once Request has returned, a count of 1 proves the
// transport recycled the inbound message on the error path.
func testFailingHandlerReleasesFrames(t *testing.T, client, server Transport) {
	kept := make(chan *frame.Frame, 1)
	server.SetHandler(func(_ context.Context, _ ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		it := &m.(*wire.ReleaseBatch).Items[0]
		f := it.TakeFrame()
		it.SetFrame(f)
		kept <- f
		return nil, errors.New("handler exploded")
	})
	// A span context makes the request travel inside a trace envelope.
	ctx := telemetry.ContextWith(context.Background(), telemetry.SpanContext{Trace: 7, Span: 9})
	_, err := client.Request(ctx, server.Self(), dirtyRelease(client.Self(), 0xAB))
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Msg != "handler exploded" {
		t.Fatalf("err = %v, want the handler's", err)
	}
	f := <-kept
	defer f.Release()
	if refs := f.Refs(); refs != 1 {
		t.Fatalf("inbound frame has %d references after the failed request, want only the handler's own", refs)
	}
}

func TestInprocFailingHandlerReleasesFrames(t *testing.T) {
	net := NewNetwork()
	client, _ := net.Attach(1)
	server, _ := net.Attach(2)
	testFailingHandlerReleasesFrames(t, client, server)
}

func TestTCPFailingHandlerReleasesFrames(t *testing.T) {
	client, server := newTCPPair(t)
	testFailingHandlerReleasesFrames(t, client, server)
}

// TestMuxTracedRequestOutlivesReadBuffer: the mux reader returns its
// buffer to the pool as soon as it has decoded a frame, before any worker
// looks at the message. A traced, frame-carrying request must therefore be
// whole by then — envelope unwrapped, pages in frames of their own. The
// first request is parked inside its handler while the same connection's
// reader cycles its buffer through many other requests, then its pages are
// checked.
func TestMuxTracedRequestOutlivesReadBuffer(t *testing.T) {
	client, err := NewTCP(1, "127.0.0.1:0", WithConnsPerPeer(1))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := NewTCP(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client.AddPeer(2, server.Addr())

	const parked = 1
	arrived := make(chan struct{})
	resume := make(chan struct{})
	server.SetHandler(func(ctx context.Context, _ ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		rb, ok := m.(*wire.ReleaseBatch)
		if !ok {
			return nil, fmt.Errorf("got %T", m)
		}
		if _, traced := telemetry.FromContext(ctx); !traced {
			return nil, errors.New("request lost its trace envelope")
		}
		if rb.From == parked {
			close(arrived)
			<-resume
		}
		want := bytes.Repeat([]byte{byte(rb.From)}, 4096)
		if !bytes.Equal(rb.Items[0].Data, want) {
			return nil, fmt.Errorf("request %d: page holds %#x, want %#x", rb.From, rb.Items[0].Data[0], byte(rb.From))
		}
		return &wire.Ack{}, nil
	})

	ctx := telemetry.ContextWith(context.Background(), telemetry.SpanContext{Trace: 1, Span: 2})
	parkedErr := make(chan error, 1)
	go func() {
		_, err := client.Request(ctx, 2, dirtyRelease(parked, parked))
		parkedErr <- err
	}()
	<-arrived
	for from := ktypes.NodeID(parked + 1); from < 64; from++ {
		if _, err := client.Request(ctx, 2, dirtyRelease(from, byte(from))); err != nil {
			t.Fatalf("request %d: %v", from, err)
		}
	}
	close(resume)
	if err := <-parkedErr; err != nil {
		t.Fatalf("parked request: %v", err)
	}
}

// payloadMsgs returns one message of every payload-carrying kind, each
// with a frame-backed page, a page given as plain Data (lifted out as a
// copy) and an empty one (which stays inline): distinct random contents,
// so each payload occurs once in the flat encoding.
func payloadMsgs(t *testing.T) []wire.Msg {
	rng := rand.New(rand.NewPCG(1, 2))
	page := func() []byte {
		b := make([]byte, 4096)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	}
	framed := func() *frame.Frame {
		f := frame.Copy(page())
		t.Cleanup(f.Release)
		return f
	}
	at := gaddr.FromUint64(0x1000)
	updates := func() []wire.UpdateItem {
		items := []wire.UpdateItem{{Page: at, Version: 3, Origin: 2}, {Page: at, Data: page(), Version: 4, Origin: 2}, {Page: at, Version: 5}}
		items[0].SetFrame(framed())
		return items
	}
	grants := &wire.PageGrantBatch{Grants: []wire.PageGrantItem{{OK: true, Version: 3, Owner: 2}, {OK: true, Data: page(), Version: 4}, {Current: true, Version: 5}}}
	grants.Grants[0].SetFrame(framed())
	rel := &wire.ReleaseBatch{From: 2, Items: []wire.ReleaseItem{{Page: at, Mode: ktypes.LockWrite, Dirty: true}, {Page: at, Mode: ktypes.LockWrite, Dirty: true, Data: page()}, {Page: at, Mode: ktypes.LockRead}}}
	rel.Items[0].SetFrame(framed())
	snap := &wire.SnapshotGrantBatch{Epoch: 9, Items: []wire.SnapshotItem{{OK: true, Version: 3}, {OK: true, Data: page(), Version: 4}, {Err: "gone"}}}
	snap.Items[0].SetFrame(framed())
	return []wire.Msg{
		grants, rel, snap,
		&wire.UpdateBatch{From: 2, Items: updates()},
		&wire.ReplicaPut{From: 2, Items: updates()},
		&wire.ReplAppend{Region: at, From: 2, Term: 3, PrevIndex: 4, SnapState: []byte("state"), Pages: updates()},
	}
}

// splice puts each of frames' bytes back behind its length prefix in buf.
// flat, the encoding the result should equal, only says where: each
// payload occurs in it once, after the previous one.
func splice(buf []byte, frames []*frame.Frame, flat []byte) []byte {
	var out []byte
	for _, f := range frames {
		i := bytes.Index(flat[len(out):], f.Bytes())
		if i < 0 || i > len(buf) {
			return nil
		}
		out = append(append(out, buf[:i]...), f.Bytes()...)
		buf = buf[i:]
	}
	return append(out, buf...)
}

// TestInprocParcelIsFlatEncoding: the inproc link's parcel is the wire
// format with the page payloads lifted out. For every payload-carrying
// kind, traced and untraced, splicing the parcel's frames back behind
// their length prefixes gives wire.Marshal's bytes (AppendTraced's inside
// an envelope), the link counts that many bytes, and the parcel decodes
// to the same message.
func TestInprocParcelIsFlatEncoding(t *testing.T) {
	traced := telemetry.ContextWith(context.Background(), telemetry.SpanContext{Trace: 7, Span: 9})
	for _, m := range payloadMsgs(t) {
		for _, ctx := range []context.Context{context.Background(), traced} {
			want := wire.Marshal(m)
			if ctx == traced {
				want = wire.AppendTraced(nil, nil, 7, 9, m)
			}
			p := parcels.Get().(*parcel)
			p.bp = marshalRequest(ctx, 0, &p.frames, m)
			if len(p.frames) != 2 {
				t.Fatalf("%T: the parcel holds %d frames, want the 2 non-empty pages", m, len(p.frames))
			}
			if got := splice(*p.bp, p.frames, want); !bytes.Equal(got, want) {
				t.Fatalf("%T (traced %v): the spliced parcel is not the flat encoding:\n got %x\nwant %x", m, ctx == traced, got, want)
			}
			if n := len(*p.bp) + frame.TotalLen(&p.frames); n != len(want) {
				t.Errorf("%T: the link would count %d bytes, the flat encoding is %d", m, n, len(want))
			}
			req, err := decodeRequest(*p.bp, p.frames)
			if err != nil || req.traced != (ctx == traced) || !bytes.Equal(wire.Marshal(req.msg), wire.Marshal(m)) {
				t.Fatalf("%T: the parcel decodes to %v (traced %v, %v)", m, req.msg, req.traced, err)
			}
			wire.Recycle(req.msg)
			p.reset()
		}
	}
}
