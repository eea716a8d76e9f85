// Package seeded holds two khazlint findings for its exit-status test: a
// discarded error from a checked API and an exception with no reason.
package seeded

// Store has a Put whose error erricheck tracks: the package path is
// inside the khazana module.
type Store struct{}

// Put stores nothing.
func (Store) Put() error { return nil }

// Discard drops both errors.
func Discard(s Store) {
	_ = s.Put()
	//khazana:ignore-err
	_ = s.Put()
}
