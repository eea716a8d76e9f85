package a

import "khazana/internal/fakeapi"

func discards(h fakeapi.Host, l fakeapi.Lock) {
	_ = h.StorePage(1, nil) // want `error from khazana/internal/fakeapi\.StorePage is discarded`
	_, _ = h.Request(1)     // want `error from khazana/internal/fakeapi\.Request is discarded`
	_ = l.Unlock()          // want `error from khazana/internal/fakeapi\.Unlock is discarded`
}

func bareCall(h fakeapi.Host) {
	h.Put(1, nil) // want `error from khazana/internal/fakeapi\.Put is discarded`
}

func emptyReason(h fakeapi.Host) {
	//khazana:ignore-err
	_ = h.StorePage(1, nil) // want `annotation requires a reason`
}

// inClosureArg discards inside a function literal passed to a call
// statement: the literal's body is checked like any other.
func inClosureArg(h fakeapi.Host) {
	each(func() {
		_, _ = h.Request(1) // want `error from khazana/internal/fakeapi\.Request is discarded`
	})
}

func each(fn func()) { fn() }
