package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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
