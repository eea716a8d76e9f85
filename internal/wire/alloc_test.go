package wire

import (
	"testing"

	"khazana/internal/gaddr"
)

// TestUnmarshalAllocGate: Unmarshal borrows its decoder from a pool, so
// decoding a fixed-size message allocates the message and nothing else,
// and a trace envelope adds only itself.
func TestUnmarshalAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards entries under the race detector; the decoder is pooled")
	}
	fetch := &PageFetch{Page: gaddr.New(1, 0x2000), Requester: 3}
	for _, c := range []struct {
		name string
		m    Msg
		want float64
	}{
		{"page fetch", fetch, 1},
		{"traced page fetch", &Traced{Trace: 7, Span: 9, Inner: fetch}, 2},
	} {
		b := Marshal(c.m)
		var got Msg
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			if got, err = Unmarshal(b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != c.want {
			t.Errorf("unmarshaling a %s allocates %.2f objects, want %.0f", c.name, allocs, c.want)
		}
		if got.Kind() != c.m.Kind() {
			t.Errorf("decoded kind %v, want %v", got.Kind(), c.m.Kind())
		}
	}
}
