package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"khazana/internal/enc"
	"khazana/internal/gaddr"
	"khazana/internal/pagedir"
	"khazana/internal/region"
)

// Persistence of daemon state across restarts (§2: the store is
// *persistent*; §3.4: the page directory "maintains persistent information
// about pages homed locally"). A clean shutdown flushes the RAM tier to
// disk and writes two metadata files next to the page files:
//
//	pagedir.bin — the locally homed page directory entries
//	regions.bin — the authoritative descriptors of regions homed here
//
// On start the daemon restores both, so regions it homes survive a
// restart; the address map's own pages are ordinary pages and persist
// through the same flush.

const (
	pagedirFile  = "pagedir.bin"
	regionsFile  = "regions.bin"
	regionsMagic = 0x4B52_4753 // "KRGS"
)

// Persist checkpoints the daemon's state to its store directory.
func (n *Node) Persist() error {
	if err := n.store.FlushAll(); err != nil {
		return fmt.Errorf("core: flush pages: %w", err)
	}
	if err := n.savePagedir(); err != nil {
		return err
	}
	if err := n.saveRegions(); err != nil {
		return err
	}
	return n.repl.Save()
}

func (n *Node) savePagedir() error {
	path := filepath.Join(n.cfg.StoreDir, pagedirFile)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: save pagedir: %w", err)
	}
	if err := n.dir.SaveTo(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("core: save pagedir: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (n *Node) saveRegions() error {
	descs := n.homedDescs()
	e := enc.NewEncoder(256)
	e.U32(regionsMagic)
	e.U32(uint32(len(descs)))
	for _, d := range descs {
		d.EncodeTo(e)
	}
	path := filepath.Join(n.cfg.StoreDir, regionsFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, e.Bytes(), 0o644); err != nil {
		return fmt.Errorf("core: save regions: %w", err)
	}
	return os.Rename(tmp, path)
}

// restore reloads persisted metadata, if present. Regions come first: the
// restored page entries go into their regions' page tables.
func (n *Node) restore() error {
	if err := n.restoreRegions(); err != nil {
		return err
	}
	if err := n.restorePagedir(); err != nil {
		return err
	}
	return n.repl.Load()
}

func (n *Node) restorePagedir() error {
	f, err := os.Open(filepath.Join(n.cfg.StoreDir, pagedirFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: restore pagedir: %w", err)
	}
	defer f.Close()
	if err := n.dir.LoadFrom(f, n.homedTable); err != nil {
		return fmt.Errorf("core: restore pagedir: %w", err)
	}
	return nil
}

// homedTable returns the page table of the region homed here that holds
// page, the map region included, or nil.
func (n *Node) homedTable(page gaddr.Addr) *pagedir.Table {
	if n.mapDesc.Range.Contains(page) {
		return n.table(n.mapDesc)
	}
	if d := n.authDesc(page); d != nil {
		return n.table(d)
	}
	return nil
}

func (n *Node) restoreRegions() error {
	raw, err := os.ReadFile(filepath.Join(n.cfg.StoreDir, regionsFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: restore regions: %w", err)
	}
	d := enc.NewDecoder(raw)
	if magic := d.U32(); magic != regionsMagic {
		return fmt.Errorf("core: restore regions: bad magic %#x", magic)
	}
	count := d.U32()
	for i := uint32(0); i < count; i++ {
		desc := region.DecodeDescriptor(d)
		if d.Err() != nil {
			return fmt.Errorf("core: restore regions: entry %d: %w", i, d.Err())
		}
		n.putAuthDesc(desc)
		n.rdir.Insert(desc)
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("core: restore regions: %w", err)
	}
	return nil
}
