package core

// ordered nests both mutexes in the canonical order.
func (n *Node) ordered() {
	n.chunkMu.Lock()
	defer n.chunkMu.Unlock()
	n.appMu.Lock()
	n.appMu.Unlock()
}

// sequential releases before taking an earlier-ranked mutex, so no two
// are ever held together.
func (n *Node) sequential() {
	n.appMu.Lock()
	n.appMu.Unlock()
	n.chunkMu.Lock()
	n.chunkMu.Unlock()
}

// concurrent spawns a goroutine: its body starts with nothing held, so
// taking chunkMu there is fine even while appMu is held here.
func (n *Node) concurrent(done chan struct{}) {
	n.appMu.Lock()
	defer n.appMu.Unlock()
	go func() {
		n.chunkMu.Lock()
		n.chunkMu.Unlock()
		close(done)
	}()
}
