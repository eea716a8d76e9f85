package replog

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"khazana/internal/enc"
	"khazana/internal/gaddr"
	"khazana/internal/wire"
)

// Durable tail. The in-memory log is the hot path; a clean shutdown
// (or an explicit checkpoint) writes every region's retained tail and
// materialized state to replog.bin in the persist.go idiom — encode,
// write a temp file, rename — so a restarted node resumes its replicas
// with terms, votes, and commit indexes intact instead of re-fetching
// snapshots from every leader.

const (
	replogFile  = "replog.bin"
	replogMagic = 0x4B52_4C47 // "KRLG"
)

// Save writes the durable tail to the configured directory; a Log with
// no directory is memory-only and Save is a no-op.
func (l *Log) Save() error {
	if l.dir == "" {
		return nil
	}
	l.mu.Lock()
	starts := make([]gaddr.Addr, 0, len(l.regions))
	for s := range l.regions {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].Less(starts[j]) })
	e := enc.NewEncoder(512)
	e.U32(replogMagic)
	e.U32(uint32(len(starts)))
	for _, s := range starts {
		rl := l.regions[s]
		rl.mu.Lock()
		e.Addr(rl.start)
		e.U64(rl.term)
		e.U64(rl.votedTerm)
		e.NodeID(rl.votedFor)
		e.U64(rl.floor)
		e.U64(rl.floorTerm)
		e.U64(rl.commit)
		e.U32(uint32(len(rl.entries)))
		for i := range rl.entries {
			rl.entries[i].EncodeTo(e)
		}
		rl.state.EncodeTo(e)
		rl.mu.Unlock()
	}
	l.mu.Unlock()
	path := filepath.Join(l.dir, replogFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, e.Bytes(), 0o644); err != nil {
		return fmt.Errorf("replog: save: %w", err)
	}
	return os.Rename(tmp, path)
}

// Load restores a durable tail written by Save, if present.
func (l *Log) Load() error {
	if l.dir == "" {
		return nil
	}
	raw, err := os.ReadFile(filepath.Join(l.dir, replogFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("replog: restore: %w", err)
	}
	d := enc.NewDecoder(raw)
	if magic := d.U32(); magic != replogMagic {
		return fmt.Errorf("replog: restore: bad magic %#x", magic)
	}
	count := int(d.U32())
	total := 0
	for i := 0; i < count; i++ {
		start := d.Addr()
		rl := &regionLog{start: start}
		rl.term = d.U64()
		rl.votedTerm = d.U64()
		rl.votedFor = d.NodeID()
		rl.floor = d.U64()
		rl.floorTerm = d.U64()
		rl.commit = d.U64()
		rl.entries = wire.DecodeReplEntries(d, int(d.U32()))
		if d.Err() != nil {
			return fmt.Errorf("replog: restore: region %d entries: %w", i, d.Err())
		}
		rl.state = DecodeRegionState(d)
		if d.Err() != nil {
			return fmt.Errorf("replog: restore: region %d: %w", i, d.Err())
		}
		total += len(rl.entries)
		l.mu.Lock()
		l.regions[start] = rl
		l.mu.Unlock()
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("replog: restore: %w", err)
	}
	l.addTail(total)
	return nil
}
