package wire

import (
	"testing"

	"khazana/internal/gaddr"
)

// TestUnmarshalAllocGate: Unmarshal borrows its decoder from a pool, so
// decoding a fixed-size message allocates the message and nothing else.
// UnmarshalRequest builds nothing for a trace envelope, so a traced request
// costs what the bare message does.
func TestUnmarshalAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards entries under the race detector; the decoder is pooled")
	}
	lookup := &RegionLookup{Addr: gaddr.New(1, 0x2000)}
	for _, c := range []struct {
		name      string
		b         []byte
		unmarshal func([]byte) (Msg, error)
	}{
		{"region lookup", Marshal(lookup), Unmarshal},
		{"traced region lookup request", AppendTraced(nil, 7, 9, lookup), func(b []byte) (Msg, error) {
			m, _, _, _, err := UnmarshalRequest(b)
			return m, err
		}},
	} {
		var got Msg
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			if got, err = c.unmarshal(c.b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("unmarshaling a %s allocates %.2f objects, want 1", c.name, allocs)
		}
		if got.Kind() != KindRegionLookup {
			t.Errorf("%s: decoded kind %v, want %v", c.name, got.Kind(), KindRegionLookup)
		}
	}
}
