// Package core is a stub of the real khazana/internal/core for the
// lockorder analyzer tests: the analyzer keys on the package path, the
// Node type name, and its guarded mutex field names.
package core

import "sync"

// Node mirrors the guarded mutex fields of the real core.Node.
type Node struct {
	chunkMu sync.Mutex
	appMu   sync.Mutex
}
