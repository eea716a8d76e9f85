package core

// inverted acquires chunkMu while appMu is held — backwards relative to
// the canonical chunkMu → appMu order.
func (n *Node) inverted() {
	n.appMu.Lock()
	defer n.appMu.Unlock()
	n.chunkMu.Lock() // want `canonical order`
	n.chunkMu.Unlock()
}

// reenter takes the same mutex twice on one path.
func (n *Node) reenter() {
	n.chunkMu.Lock()
	defer n.chunkMu.Unlock()
	n.chunkMu.Lock() // want `re-entrant acquisition`
	n.chunkMu.Unlock()
}

// invertedBranch only misorders on one branch; the clone-per-branch
// tracking must still see it.
func (n *Node) invertedBranch(b bool) {
	n.appMu.Lock()
	if b {
		n.chunkMu.Lock() // want `canonical order`
		n.chunkMu.Unlock()
	}
	n.appMu.Unlock()
}
