package wire

import (
	"khazana/internal/frame"
)

// Frame-backed payloads.
//
// Messages that carry page contents (the items of the batch messages)
// can attach a refcounted frame behind their Data field:
//
//   - Send side: SetFrame(f) points Data at f's bytes and takes the
//     message's own reference, so the payload stays valid until the
//     transport has marshaled it; the transport calls Recycle on
//     responses after writing them out.
//   - Receive side: decode backs Data with a pooled frame. A consumer
//     that wants to keep the payload calls TakeFrame() to assume
//     ownership (zero-copy); otherwise the transport's Recycle returns
//     the frame to the pool once the handler is done.
//
// The Data []byte field remains the encoded representation, so the wire
// format is byte-identical to the pre-frame codec. An unreleased frame
// degrades to ordinary garbage (a pool miss), never a use-after-free.

// FrameCarrier is implemented by messages that may hold references to
// page frames. ReleaseFrames drops every reference the message holds;
// after the call the message's Data views must no longer be used.
type FrameCarrier interface {
	ReleaseFrames()
}

// Recycle releases any frames attached to m. It is safe to call with a
// nil message or one that carries no frames, and transports call it on
// every message they have finished marshaling or dispatching.
func Recycle(m Msg) {
	if fc, ok := m.(FrameCarrier); ok {
		fc.ReleaseFrames()
	}
}

// setFrame implements the shared SetFrame logic: retain f, release any
// prior attachment, and alias the Data view. f may be nil to detach.
func setFrame(slot **frame.Frame, data *[]byte, f *frame.Frame) {
	if f != nil {
		f.Retain()
		*data = f.Bytes()
	}
	if *slot != nil {
		(*slot).Release()
	}
	*slot = f
}

// takeFrame implements the shared TakeFrame logic: hand the attached
// frame (and its reference) to the caller, falling back to a copy of the
// Data view when the message was built without one.
func takeFrame(slot **frame.Frame, data []byte) *frame.Frame {
	if f := *slot; f != nil {
		*slot = nil
		return f
	}
	if data == nil {
		return nil
	}
	return frame.Copy(data)
}

// --- batched items ----------------------------------------------------------

// SetFrame attaches f as this grant item's payload. Use via
// &batch.Grants[i] so the slice element itself holds the reference.
func (g *PageGrantItem) SetFrame(f *frame.Frame) { setFrame(&g.dataFrame, &g.Data, f) }

// TakeFrame transfers ownership of the item's payload frame to the
// caller.
func (g *PageGrantItem) TakeFrame() *frame.Frame { return takeFrame(&g.dataFrame, g.Data) }

// ReleaseFrames implements FrameCarrier: releases every grant's frame.
func (m *PageGrantBatch) ReleaseFrames() {
	if m == nil {
		return
	}
	for i := range m.Grants {
		g := &m.Grants[i]
		setFrame(&g.dataFrame, &g.Data, nil)
	}
}

// SetFrame attaches f as this release item's dirty payload. Use via
// &batch.Items[i].
func (it *ReleaseItem) SetFrame(f *frame.Frame) { setFrame(&it.dataFrame, &it.Data, f) }

// TakeFrame transfers ownership of the item's payload frame to the
// caller.
func (it *ReleaseItem) TakeFrame() *frame.Frame { return takeFrame(&it.dataFrame, it.Data) }

// ReleaseFrames implements FrameCarrier: releases every item's frame.
func (m *ReleaseBatch) ReleaseFrames() {
	if m == nil {
		return
	}
	for i := range m.Items {
		it := &m.Items[i]
		setFrame(&it.dataFrame, &it.Data, nil)
	}
}

// SetFrame attaches f as this update item's payload. Use via
// &batch.Items[i]; several items may share one frame (each SetFrame takes
// its own reference), which is how a multi-replica fan-out ships the same
// page without copying it per destination.
func (it *UpdateItem) SetFrame(f *frame.Frame) { setFrame(&it.dataFrame, &it.Data, f) }

// TakeFrame transfers ownership of the item's payload frame to the
// caller.
func (it *UpdateItem) TakeFrame() *frame.Frame { return takeFrame(&it.dataFrame, it.Data) }

// ReleaseFrames implements FrameCarrier: releases every item's frame.
func (m *UpdateBatch) ReleaseFrames() {
	if m == nil {
		return
	}
	ReleaseItems(m.Items)
}

// ReleaseFrames implements FrameCarrier: releases every item's frame.
func (m *ReplicaPut) ReleaseFrames() {
	if m == nil {
		return
	}
	ReleaseItems(m.Items)
}

// ReleaseFrames implements FrameCarrier: releases every page's frame.
func (m *ReplAppend) ReleaseFrames() {
	if m == nil {
		return
	}
	ReleaseItems(m.Pages)
}

// ReleaseItems drops the frame reference each update item holds.
func ReleaseItems(items []UpdateItem) {
	for i := range items {
		it := &items[i]
		setFrame(&it.dataFrame, &it.Data, nil)
	}
}

// SetFrame attaches f as this snapshot item's payload. Use via
// &batch.Items[i] so the slice element itself holds the reference.
func (it *SnapshotItem) SetFrame(f *frame.Frame) { setFrame(&it.dataFrame, &it.Data, f) }

// TakeFrame transfers ownership of the item's payload frame to the
// caller.
func (it *SnapshotItem) TakeFrame() *frame.Frame { return takeFrame(&it.dataFrame, it.Data) }

// ReleaseFrames implements FrameCarrier: releases every item's frame.
func (m *SnapshotGrantBatch) ReleaseFrames() {
	if m == nil {
		return
	}
	for i := range m.Items {
		it := &m.Items[i]
		setFrame(&it.dataFrame, &it.Data, nil)
	}
}
