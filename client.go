package khazana

import (
	"context"
	"errors"
	"fmt"
	"time"

	"khazana/internal/ktypes"
	"khazana/internal/telemetry"
	"khazana/internal/transport"
	"khazana/internal/wire"
)

// Client is a remote Khazana client: it drives a daemon over the wire
// protocol instead of linking the library in-process. This is how
// application processes interact with a standalone khazanad (§2:
// "typically an application process (client) interacts with Khazana
// through library routines").
type Client struct {
	tr        transport.Transport
	target    NodeID
	principal Principal
	own       bool
}

// Dial connects to a daemon over TCP. selfID must be unique among all
// nodes and clients of the deployment (use high IDs for clients).
func Dial(selfID NodeID, daemonID NodeID, daemonAddr string, principal Principal) (*Client, error) {
	tcp, err := transport.NewTCP(selfID, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tcp.AddPeer(daemonID, daemonAddr)
	return &Client{tr: tcp, target: daemonID, principal: principal, own: true}, nil
}

// NewClient wraps an existing transport (e.g. an endpoint of an in-process
// cluster's network) as a client of the given daemon.
func NewClient(tr transport.Transport, daemonID NodeID, principal Principal) *Client {
	return &Client{tr: tr, target: daemonID, principal: principal}
}

// Close releases the client's transport when it owns it.
func (c *Client) Close() error {
	if c.own {
		return c.tr.Close()
	}
	return nil
}

func (c *Client) call(ctx context.Context, m wire.Msg) (wire.Msg, error) {
	return c.tr.Request(ctx, c.target, m)
}

func ackToErr(m wire.Msg, err error) error {
	if err != nil {
		return err
	}
	ack, ok := m.(*wire.Ack)
	if !ok {
		return fmt.Errorf("khazana: unexpected reply %T", m)
	}
	if ack.Err != "" {
		return errors.New(ack.Err)
	}
	return nil
}

// Reserve reserves a region.
func (c *Client) Reserve(ctx context.Context, size uint64, attrs Attrs) (Addr, error) {
	resp, err := c.call(ctx, &wire.CReserve{Size: size, Attrs: attrs, Principal: c.principal})
	if err != nil {
		return Addr{}, err
	}
	r, ok := resp.(*wire.CReserveResp)
	if !ok {
		return Addr{}, fmt.Errorf("khazana: unexpected reply %T", resp)
	}
	if r.Err != "" {
		return Addr{}, errors.New(r.Err)
	}
	return r.Start, nil
}

// Unreserve releases a region.
func (c *Client) Unreserve(ctx context.Context, start Addr) error {
	return ackToErr(c.call(ctx, &wire.CUnreserve{Start: start, Principal: c.principal}))
}

// Allocate attaches storage to a region.
func (c *Client) Allocate(ctx context.Context, start Addr) error {
	return ackToErr(c.call(ctx, &wire.CAllocate{Start: start, Principal: c.principal}))
}

// Free releases a region's storage.
func (c *Client) Free(ctx context.Context, start Addr) error {
	return ackToErr(c.call(ctx, &wire.CFree{Start: start, Principal: c.principal}))
}

// GetAttr fetches the descriptor of the region containing addr.
func (c *Client) GetAttr(ctx context.Context, addr Addr) (*Descriptor, error) {
	resp, err := c.call(ctx, &wire.CGetAttr{Addr: addr})
	if err != nil {
		return nil, err
	}
	info, ok := resp.(*wire.RegionInfo)
	if !ok {
		return nil, fmt.Errorf("khazana: unexpected reply %T", resp)
	}
	if !info.Found {
		if info.Err != "" {
			return nil, errors.New(info.Err)
		}
		return nil, errors.New("khazana: region not found")
	}
	return info.Desc, nil
}

// SetAttr updates a region's attributes.
func (c *Client) SetAttr(ctx context.Context, start Addr, attrs Attrs) error {
	return ackToErr(c.call(ctx, &wire.CSetAttr{Start: start, Attrs: attrs, Principal: c.principal}))
}

// Lock locks part of a region, returning a remote lock context.
func (c *Client) Lock(ctx context.Context, rng Range, mode LockMode) (*RemoteLock, error) {
	resp, err := c.call(ctx, &wire.CLock{Range: rng, Mode: mode, Principal: c.principal})
	if err != nil {
		return nil, err
	}
	r, ok := resp.(*wire.CLockResp)
	if !ok {
		return nil, fmt.Errorf("khazana: unexpected reply %T", resp)
	}
	if r.Err != "" {
		return nil, errors.New(r.Err)
	}
	return &RemoteLock{client: c, id: r.LockID, rng: rng, mode: mode}, nil
}

// RemoteLock is a lock context held on the daemon on the client's behalf.
type RemoteLock struct {
	client *Client
	id     uint64
	rng    Range
	mode   LockMode
}

// ID returns the daemon-side lock context identifier.
func (l *RemoteLock) ID() uint64 { return l.id }

// Range returns the locked range.
func (l *RemoteLock) Range() Range { return l.rng }

// Read copies count bytes starting at addr.
func (l *RemoteLock) Read(ctx context.Context, addr Addr, count uint64) ([]byte, error) {
	resp, err := l.client.call(ctx, &wire.CRead{LockID: l.id, Addr: addr, Len: count})
	if err != nil {
		return nil, err
	}
	d, ok := resp.(*wire.CData)
	if !ok {
		return nil, fmt.Errorf("khazana: unexpected reply %T", resp)
	}
	if d.Err != "" {
		return nil, errors.New(d.Err)
	}
	return d.Data, nil
}

// Write copies data into the locked range at addr.
func (l *RemoteLock) Write(ctx context.Context, addr Addr, data []byte) error {
	return ackToErr(l.client.call(ctx, &wire.CWrite{LockID: l.id, Addr: addr, Data: data}))
}

// Unlock releases the lock context.
func (l *RemoteLock) Unlock(ctx context.Context) error {
	return ackToErr(l.client.call(ctx, &wire.CUnlock{LockID: l.id}))
}

// Stats is a daemon's activity and resource snapshot.
type Stats struct {
	Node           NodeID
	Lookups        uint64
	DirHits        uint64
	RingHits       uint64
	TreeWalks      uint64
	LocksGranted   uint64
	ReleaseRetries uint64
	Promotions     uint64
	MemPages       uint64
	DiskPages      uint64
	HomedRegions   uint64
	Members        []NodeID
}

// Stats fetches the daemon's counters: the named ones of its telemetry
// snapshot.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	m, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	st := &Stats{Node: m.Node, Members: m.Members}
	fields := map[string]*uint64{
		telemetry.MetricLookups:           &st.Lookups,
		telemetry.MetricLookupDirHits:     &st.DirHits,
		telemetry.MetricRingLookups:       &st.RingHits,
		telemetry.MetricRingFallbackWalks: &st.TreeWalks,
		telemetry.MetricLocksGranted:      &st.LocksGranted,
		telemetry.MetricReleaseRetries:    &st.ReleaseRetries,
		telemetry.MetricPromotions:        &st.Promotions,
		telemetry.MetricMemPages:          &st.MemPages,
		telemetry.MetricDiskPages:         &st.DiskPages,
		telemetry.MetricHomedRegions:      &st.HomedRegions,
	}
	for _, v := range append(m.Counters, m.Gauges...) {
		if p, ok := fields[v.Name]; ok {
			*p = uint64(v.Value)
		}
	}
	return st, nil
}

// MetricValue is one named counter or gauge from a daemon's registry.
type MetricValue struct {
	Name  string
	Value int64
}

// HistogramValue summarizes one latency/size histogram from a daemon's
// registry. Buckets[i] counts observations in [2^(i-1), 2^i); see
// telemetry.BucketBound.
type HistogramValue struct {
	Name    string
	Count   uint64
	Sum     uint64
	Buckets []uint64
}

// Metrics is a daemon's full telemetry snapshot: every registered
// counter, gauge, and histogram, by name, and its membership view.
type Metrics struct {
	Node       NodeID
	Members    []NodeID
	Counters   []MetricValue
	Gauges     []MetricValue
	Histograms []HistogramValue
}

// Span is one recorded trace span from a daemon's ring buffer.
type Span struct {
	Trace         uint64
	Span          uint64
	Parent        uint64
	Node          NodeID
	Name          string
	StartUnixNano int64
	DurationNs    int64
}

func (c *Client) statsQuery(ctx context.Context, includeSpans bool) (*wire.StatsReply, error) {
	resp, err := c.call(ctx, &wire.StatsQuery{IncludeSpans: includeSpans})
	if err != nil {
		return nil, err
	}
	sr, ok := resp.(*wire.StatsReply)
	if !ok {
		return nil, fmt.Errorf("khazana: unexpected reply %T", resp)
	}
	return sr, nil
}

// Metrics fetches the daemon's full telemetry snapshot.
func (c *Client) Metrics(ctx context.Context) (*Metrics, error) {
	sr, err := c.statsQuery(ctx, false)
	if err != nil {
		return nil, err
	}
	m := &Metrics{Node: sr.Node, Members: sr.Members}
	for _, cc := range sr.Counters {
		m.Counters = append(m.Counters, MetricValue{Name: cc.Name, Value: int64(cc.Value)})
	}
	for _, g := range sr.Gauges {
		m.Gauges = append(m.Gauges, MetricValue{Name: g.Name, Value: g.Value})
	}
	for _, h := range sr.Hists {
		m.Histograms = append(m.Histograms, HistogramValue{
			Name: h.Name, Count: h.Count, Sum: h.Sum, Buckets: h.Buckets,
		})
	}
	return m, nil
}

// Traces fetches the daemon's recorded trace spans, oldest first.
func (c *Client) Traces(ctx context.Context) ([]Span, error) {
	sr, err := c.statsQuery(ctx, true)
	if err != nil {
		return nil, err
	}
	spans := make([]Span, 0, len(sr.Spans))
	for _, s := range sr.Spans {
		spans = append(spans, Span{
			Trace:         s.Trace,
			Span:          s.Span,
			Parent:        s.Parent,
			Node:          s.Node,
			Name:          s.Name,
			StartUnixNano: s.StartUnixNano,
			DurationNs:    s.DurationNs,
		})
	}
	return spans, nil
}

// Ping measures one round trip to the daemon with a timestamped ping.
func (c *Client) Ping(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	resp, err := c.call(ctx, &wire.Ping{From: c.tr.Self(), SentUnixNano: start.UnixNano()})
	if err != nil {
		return 0, err
	}
	pong, ok := resp.(*wire.Pong)
	if !ok {
		return 0, fmt.Errorf("khazana: unexpected reply %T", resp)
	}
	if pong.EchoUnixNano != start.UnixNano() {
		return 0, fmt.Errorf("khazana: ping echo mismatch")
	}
	return time.Since(start), nil
}

// Migrate moves a region's primary home to another node (§7 migration
// policies drive this mechanism).
func (c *Client) Migrate(ctx context.Context, start Addr, newHome NodeID) error {
	return ackToErr(c.call(ctx, &wire.Migrate{Start: start, NewHome: newHome, Principal: c.principal}))
}

// clientIDBase is a convention for client node IDs, far above daemon IDs.
const clientIDBase ktypes.NodeID = 1 << 20

// ClientID returns a conventional unique client node ID for index i.
func ClientID(i int) NodeID { return clientIDBase + ktypes.NodeID(i) }
