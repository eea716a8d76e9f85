// Package khazana is the public client library for Khazana, a distributed
// service exporting the abstraction of a flat, distributed, persistent,
// globally shared store (Carter, Ranganathan, Susarla — "Khazana: An
// Infrastructure for Building Distributed Services", ICDCS 1998).
//
// Applications allocate space in global memory much like normal memory,
// except regions are addressed with 128-bit identifiers. The operation set
// mirrors the paper (§2):
//
//	start, _ := node.Reserve(ctx, size, khazana.Attrs{}, "alice")
//	_ = node.Allocate(ctx, start, "alice")
//	lk, _ := node.Lock(ctx, khazana.Range{Start: start, Size: size}, khazana.LockWrite, "alice")
//	_ = lk.Write(start, []byte("hello"))
//	data, _ := lk.Read(start, 5)
//	_ = lk.Unlock(ctx)
//
// Khazana handles replication, consistency management, fault recovery,
// access control, and location management underneath; per-region
// attributes select the consistency protocol (strict CREW, release
// consistent, or eventual), the minimum replica count, and access control.
package khazana

import (
	"context"
	"fmt"
	"time"

	"khazana/internal/consistency"
	"khazana/internal/core"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/security"
	"khazana/internal/transport"
)

// Core addressing and identity types.
type (
	// Addr is a 128-bit global address.
	Addr = gaddr.Addr
	// Range is a contiguous span of global address space.
	Range = gaddr.Range
	// NodeID identifies a Khazana daemon.
	NodeID = ktypes.NodeID
	// LockMode states the caller's access intention.
	LockMode = ktypes.LockMode
	// Principal identifies a client for access control.
	Principal = ktypes.Principal
	// Attrs are per-region attributes: page size, consistency level and
	// protocol, minimum replicas, and access control (§2).
	Attrs = region.Attrs
	// Descriptor is a region's descriptor.
	Descriptor = region.Descriptor
	// Protocol selects a consistency protocol.
	Protocol = region.Protocol
	// Level is the desired consistency level.
	Level = region.Level
	// ACL is a region access-control list.
	ACL = security.ACL
	// Perm is an ACL permission set.
	Perm = security.Perm
)

// Lock modes (§2: read-only, read-write, write-shared).
const (
	LockRead        = ktypes.LockRead
	LockWrite       = ktypes.LockWrite
	LockWriteShared = ktypes.LockWriteShared
)

// Consistency protocols (§3.3, §5).
const (
	CREW     = region.CREW
	Release  = region.Release
	Eventual = region.Eventual
)

// Consistency levels.
const (
	Strict  = region.Strict
	Relaxed = region.Relaxed
	Weak    = region.Weak
)

// ACL permissions.
const (
	PermRead  = security.PermRead
	PermWrite = security.PermWrite
	PermAdmin = security.PermAdmin
	PermAll   = security.PermAll
)

// DefaultPageSize is the default region page size (4 KB, §2).
const DefaultPageSize = region.DefaultPageSize

// OpenACL returns a world-accessible ACL.
func OpenACL() ACL { return security.Open() }

// PrivateACL returns an ACL accessible only to owner.
func PrivateACL(owner Principal) ACL { return security.Private(owner) }

// ParseAddr parses an address in the format produced by Addr.String.
func ParseAddr(s string) (Addr, error) { return gaddr.Parse(s) }

// NodeConfig configures one Khazana daemon.
type NodeConfig struct {
	// ID is the node identity (>= 1).
	ID NodeID
	// Transport connects the node to its peers; use Cluster for an
	// in-process deployment or ListenAddr for TCP.
	Transport transport.Transport
	// ListenAddr, when Transport is nil, starts a TCP transport bound
	// here (e.g. "127.0.0.1:7450").
	ListenAddr string
	// StoreDir is the disk-tier directory.
	StoreDir string
	// MemPages bounds the RAM page cache (0 = default).
	MemPages int
	// DiskPages bounds the disk page cache (0 = unbounded).
	DiskPages int
	// ClusterManager names the cluster manager node (defaults to ID:
	// this node manages itself).
	ClusterManager NodeID
	// MapHome names the home of the address map (defaults to the
	// cluster manager).
	MapHome NodeID
	// Genesis initializes the global address map; set on exactly one
	// node per deployment.
	Genesis bool
	// HeartbeatInterval drives liveness reporting (0 disables).
	HeartbeatInterval time.Duration
	// RetryInterval drives background release retries (0 disables).
	RetryInterval time.Duration
	// ReplicaInterval drives minimum-replica maintenance (0 disables).
	ReplicaInterval time.Duration
	// MigrationInterval drives the load-aware auto-migration policy:
	// regions whose consistency traffic is dominated by one remote node
	// migrate to it (0 disables).
	MigrationInterval time.Duration
	// Registry supplies custom consistency protocols (nil = built-ins).
	Registry *consistency.Registry
	// Deprecated: NoReadAhead is ignored. Every remote read takes the
	// home's read lock, so there is no read-ahead left to disable.
	NoReadAhead bool
	// NoRing disables the consistent-hashing descriptor partition: cold
	// lookups skip the one-hop ring stage and fall straight to the
	// paper's cluster-hint / tree-walk path (the E20 baseline).
	NoRing bool
	// NoTelemetry disables the metrics registry and trace recorder; the
	// overhead benchmarks use it to measure the instrumented paths bare.
	NoTelemetry bool
	// Tracer observes Figure-2 protocol steps (diagnostics).
	Tracer func(step string)
}

// Node is a running Khazana daemon plus its client library.
type Node struct {
	core *core.Node
	tr   transport.Transport
	// ownTransport reports whether Close should close the transport.
	ownTransport bool
}

// StartNode creates and starts a daemon.
func StartNode(ctx context.Context, cfg NodeConfig) (*Node, error) {
	tr := cfg.Transport
	own := false
	if tr == nil {
		if cfg.ListenAddr == "" {
			return nil, fmt.Errorf("khazana: Transport or ListenAddr required")
		}
		tcp, err := transport.NewTCP(cfg.ID, cfg.ListenAddr)
		if err != nil {
			return nil, err
		}
		tr = tcp
		own = true
	}
	node, err := core.NewNode(core.Config{
		ID:                cfg.ID,
		Transport:         tr,
		StoreDir:          cfg.StoreDir,
		MemPages:          cfg.MemPages,
		DiskPages:         cfg.DiskPages,
		ClusterManager:    cfg.ClusterManager,
		MapHome:           cfg.MapHome,
		Genesis:           cfg.Genesis,
		HeartbeatInterval: cfg.HeartbeatInterval,
		RetryInterval:     cfg.RetryInterval,
		ReplicaInterval:   cfg.ReplicaInterval,
		MigrationInterval: cfg.MigrationInterval,
		Registry:          cfg.Registry,
		NoRing:            cfg.NoRing,
		NoTelemetry:       cfg.NoTelemetry,
		Tracer:            cfg.Tracer,
	})
	if err != nil {
		if own {
			_ = tr.Close()
		}
		return nil, err
	}
	if err := node.Start(ctx); err != nil {
		if own {
			_ = tr.Close()
		}
		return nil, err
	}
	return &Node{core: node, tr: tr, ownTransport: own}, nil
}

// Close stops the daemon.
func (n *Node) Close() error {
	err := n.core.Close()
	if n.ownTransport {
		if cerr := n.tr.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ID returns this node's identity.
func (n *Node) ID() NodeID { return n.core.ID() }

// Core exposes the underlying daemon for diagnostics, experiments, and
// advanced integrations.
func (n *Node) Core() *core.Node { return n.core }

// Addr returns the TCP listen address when the node runs over TCP.
func (n *Node) Addr() string {
	if t, ok := n.tr.(*transport.TCP); ok {
		return t.Addr()
	}
	return ""
}

// AddPeer registers a TCP peer's address (TCP deployments only).
func (n *Node) AddPeer(id NodeID, addr string) {
	if t, ok := n.tr.(*transport.TCP); ok {
		t.AddPeer(id, addr)
	}
}

// Reserve reserves a region of global address space (§2). The returned
// address is the region's identity.
func (n *Node) Reserve(ctx context.Context, size uint64, attrs Attrs, p Principal) (Addr, error) {
	return n.core.Reserve(ctx, size, attrs, p)
}

// Unreserve releases a region.
func (n *Node) Unreserve(ctx context.Context, start Addr, p Principal) error {
	return n.core.Unreserve(ctx, start, p)
}

// Allocate attaches physical storage to a reserved region (§2).
func (n *Node) Allocate(ctx context.Context, start Addr, p Principal) error {
	return n.core.Allocate(ctx, start, p)
}

// Free releases a region's physical storage, keeping the reservation.
func (n *Node) Free(ctx context.Context, start Addr, p Principal) error {
	return n.core.Free(ctx, start, p)
}

// GetAttr fetches the descriptor of the region containing addr. The result
// is the caller's own copy: the daemon shares its published descriptors
// between readers and never hands one to client code.
func (n *Node) GetAttr(ctx context.Context, addr Addr) (*Descriptor, error) {
	d, err := n.core.GetAttr(ctx, addr)
	if err != nil {
		return nil, err
	}
	return d.Clone(), nil
}

// SetAttr updates a region's attributes.
func (n *Node) SetAttr(ctx context.Context, start Addr, attrs Attrs, p Principal) error {
	return n.core.SetAttr(ctx, start, attrs, p)
}

// MigrateRegion hands the primary-home role for a region to another node
// (the mechanism behind the migration policies of §7).
func (n *Node) MigrateRegion(ctx context.Context, start Addr, newHome NodeID, p Principal) error {
	return n.core.MigrateRegion(ctx, start, newHome, p)
}

// Lock locks part of a region in the given mode and returns the lock
// context for subsequent reads and writes (§2).
func (n *Node) Lock(ctx context.Context, rng Range, mode LockMode, p Principal) (*Lock, error) {
	return n.core.Lock(ctx, rng, mode, p)
}

// Lock is a granted lock context: ID, Mode and Range describe it; Read,
// ReadView and Write access the locked range; Unlock releases it.
type Lock = core.LockContext

// Snapshot opens a snapshot context: a read-only view of the global
// store that never blocks on writers and is never invalidated by them.
// The first read pins a publish epoch at each page's home; every
// subsequent read observes the newest version committed at or before
// that cut, served from the home's version chain without touching the
// lock table. Close releases the pinned page frames.
//
//	snap := node.Snapshot("alice")
//	defer snap.Close()
//	view, _ := snap.View(ctx, start, 64) // zero-copy, valid until Close
//	data, _ := snap.Read(ctx, start, 64) // private copy
func (n *Node) Snapshot(p Principal) *Snapshot {
	return &Snapshot{node: n, sc: n.core.Snapshot(p)}
}

// Snapshot is an open snapshot context.
type Snapshot struct {
	node *Node
	sc   *core.SnapshotContext
}

// View returns count bytes starting at addr as a zero-copy view aliasing
// the snapshot's pinned page frame. The view must be treated as
// read-only and stays valid until Close; requests spanning a page
// boundary fall back to the copying path.
func (s *Snapshot) View(ctx context.Context, addr Addr, count uint64) ([]byte, error) {
	return s.sc.View(ctx, addr, count)
}

// Read copies count bytes starting at addr out of the snapshot. The
// result stays valid after Close.
func (s *Snapshot) Read(ctx context.Context, addr Addr, count uint64) ([]byte, error) {
	return s.sc.Read(ctx, addr, count)
}

// Close releases every page frame the snapshot pinned. Views handed out
// by View are invalid once Close returns.
func (s *Snapshot) Close() { s.sc.Close() }
