package bench

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"khazana/internal/frame"
	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
	"khazana/internal/region"
	"khazana/internal/replog"
	"khazana/internal/ring"
	"khazana/internal/store"
	"khazana/internal/transport"
	"khazana/internal/wire"
)

// Probes time direct calls into one layer's exported functions, a fixed
// number of times each, so a layer's floor is known apart from any
// workload. They run after the traced window, with the cluster idle.

// probeChunks is how many equal chunks a probe's calls are timed in; the
// reported mean is the median chunk's, so one descheduled chunk drops out.
const probeChunks = 5

// timeN runs fn n times and returns the mean duration in ns and the mean
// heap bytes allocated per call.
func timeN(n int, fn func()) (ns, allocBytes float64) {
	var before, after runtime.MemStats
	var means []float64
	runtime.ReadMemStats(&before)
	for c := 0; c < probeChunks; c++ {
		calls := n*(c+1)/probeChunks - n*c/probeChunks
		if calls == 0 {
			continue
		}
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		means = append(means, float64(time.Since(t0))/float64(calls))
	}
	runtime.ReadMemStats(&after)
	return median(means), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

const probeBatch = 16

func pageAddr(i int) gaddr.Addr { return gaddr.FromUint64(uint64(i+1) * pageSize) }

// grantBatch builds a 16-page grant whose items alias frames, the way a
// home answers a batched lock request. The message holds its own frame
// references; the caller keeps frames alive.
func grantBatch(frames []*frame.Frame) *wire.PageGrantBatch {
	m := &wire.PageGrantBatch{Grants: make([]wire.PageGrantItem, len(frames))}
	for i, f := range frames {
		g := &m.Grants[i]
		g.OK, g.Version, g.Owner = true, 1, 1
		g.SetFrame(f)
	}
	return m
}

func reqBatch() *wire.PageReqBatch {
	m := &wire.PageReqBatch{Requester: 2}
	for i := 0; i < probeBatch; i++ {
		m.Pages = append(m.Pages, pageAddr(i))
		m.Modes = append(m.Modes, ktypes.LockRead)
	}
	return m
}

func probes(res *Result) error {
	frames := make([]*frame.Frame, probeBatch)
	for i := range frames {
		frames[i] = frame.AllocZero(pageSize)
	}
	defer func() {
		for _, f := range frames {
			f.Release()
		}
	}()
	if err := probeWire(res, frames); err != nil {
		return err
	}
	if err := probeTransport(res, frames); err != nil {
		return err
	}
	probeFrame(res)
	if err := probeStore(res); err != nil {
		return err
	}
	if err := probeReplog(res); err != nil {
		return err
	}
	probeRing(res)
	return nil
}

func probeWire(res *Result, frames []*frame.Frame) error {
	const n = 2000
	grant := grantBatch(frames)
	defer wire.Recycle(grant)
	var encoded []byte
	ns, alloc := timeN(n, func() { encoded = wire.Marshal(grant) })
	res.add("wire.marshal_ns_per_page", ns/probeBatch, n)
	res.add("wire.marshal_alloc_bytes_per_page", alloc/probeBatch, n)

	var uerr error
	ns, alloc = timeN(n, func() {
		m, err := wire.Unmarshal(encoded)
		if err != nil {
			uerr = err
		}
		wire.Recycle(m)
	})
	if uerr != nil {
		return fmt.Errorf("bench: wire probe: %w", uerr)
	}
	res.add("wire.unmarshal_ns_per_page", ns/probeBatch, n)
	res.add("wire.unmarshal_alloc_bytes_per_page", alloc/probeBatch, n)

	req := reqBatch()
	ns, _ = timeN(10*n, func() {
		if _, err := wire.Unmarshal(wire.Marshal(req)); err != nil {
			uerr = err
		}
	})
	if uerr != nil {
		return fmt.Errorf("bench: wire probe: %w", uerr)
	}
	res.add("wire.small_msg_ns", ns, 10*n)
	return nil
}

// echoHandler answers a Ping with a Pong and a batched page request with a
// 16-page grant aliasing frames.
func echoHandler(frames []*frame.Frame) transport.Handler {
	return func(_ context.Context, _ ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		switch m := m.(type) {
		case *wire.Ping:
			return &wire.Pong{From: 1, EchoUnixNano: m.SentUnixNano}, nil
		case *wire.PageReqBatch:
			return grantBatch(frames), nil
		default: //khazana:wire-default the echo probe sends only the two kinds above
			return nil, fmt.Errorf("echo: unexpected %T", m)
		}
	}
}

// probeEcho times a Ping and a 16-page grant round trip from client to
// server, two bare endpoints with nothing but an echo handler behind them.
func probeEcho(res *Result, prefix string, client transport.Transport, server ktypes.NodeID) error {
	const n = 2000
	ctx := context.Background()
	var rerr error
	ping := &wire.Ping{From: client.Self()}
	roundTrip := func(m wire.Msg) func() {
		return func() {
			resp, err := client.Request(ctx, server, m)
			if err != nil {
				rerr = err
			}
			wire.Recycle(resp)
		}
	}
	timeN(n/10, roundTrip(ping)) // dial and fill the buffer pools
	ns, _ := timeN(n, roundTrip(ping))
	res.add(prefix+"_echo_us", ns/1e3, n)
	ns, alloc := timeN(n, roundTrip(reqBatch()))
	res.add(prefix+"_echo_64k_us", ns/1e3, n)
	res.add(prefix+"_echo_64k_alloc_bytes", alloc, n)
	if rerr != nil {
		return fmt.Errorf("bench: %s echo probe: %w", prefix, rerr)
	}
	return nil
}

func probeTransport(res *Result, frames []*frame.Frame) error {
	net := transport.NewNetwork()
	server, err := net.Attach(1)
	if err != nil {
		return err
	}
	defer server.Close()
	client, err := net.Attach(2)
	if err != nil {
		return err
	}
	defer client.Close()
	server.SetHandler(echoHandler(frames))
	if err := probeEcho(res, "transport.inproc", client, 1); err != nil {
		return err
	}

	tserver, err := transport.NewTCP(1, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer tserver.Close()
	tclient, err := transport.NewTCP(2, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer tclient.Close()
	tserver.SetHandler(echoHandler(frames))
	tclient.AddPeer(1, tserver.Addr())
	return probeEcho(res, "transport.tcp", tclient, 1)
}

func probeFrame(res *Result) {
	const n = 200000
	ns, _ := timeN(n, func() { frame.Alloc(pageSize).Release() })
	res.add("frame.alloc_release_ns", ns, n)
	f := frame.Alloc(pageSize)
	defer f.Release()
	ns, _ = timeN(n, func() { f.Retain().Release() })
	res.add("frame.retain_release_ns", ns, n)
}

func probeStore(res *Result) error {
	const resident = 1024
	f := frame.AllocZero(pageSize)
	defer f.Release()
	var perr error
	put := func(put func(gaddr.Addr, *frame.Frame) error, first int) func() {
		i := first
		return func() {
			if err := put(pageAddr(i), f); err != nil {
				perr = err
			}
			i++
		}
	}

	mem := store.NewMemStore(resident, nil)
	ns, _ := timeN(resident, put(mem.Put, 0))
	res.add("store.mem_put_ns", ns, resident)
	i := 0
	ns, _ = timeN(100*resident, func() {
		if g, ok := mem.Get(pageAddr(i % resident)); ok {
			g.Release()
		}
		i++
	})
	res.add("store.mem_get_ns", ns, 100*resident)

	// The one larger-than-cache measurement: a RAM tier of 64 pages in
	// front of a disk tier in the sandbox's page cache, so these are the
	// sandbox's file-system speeds, not a device's.
	const ram, spilled = 64, 256
	dir, err := os.MkdirTemp("", "khazbench-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tiered, err := store.NewTiered(store.Config{MemPages: ram, Dir: dir})
	if err != nil {
		return err
	}
	timeN(ram, put(tiered.Put, 0)) // fill the RAM tier
	ns, _ = timeN(spilled, put(tiered.Put, ram))
	res.add("store.spill_put_us", ns/1e3, spilled)
	// Pages 0..spilled-1 were the first evicted; each Get promotes one from
	// disk and evicts another to it.
	i = 0
	ns, _ = timeN(spilled, func() {
		g, ok := tiered.Get(pageAddr(i))
		if !ok {
			perr = fmt.Errorf("page %d lost", i)
		} else {
			g.Release()
		}
		i++
	})
	res.add("store.disk_get_us", ns/1e3, spilled)
	if perr != nil {
		return fmt.Errorf("bench: store probe: %w", perr)
	}
	return nil
}

// probeReplog times a quorum append on a three-member log whose followers
// live in this process: Config.Send calls the follower's HandleAppend
// directly, so the number is the log's own work with no transport under it.
func probeReplog(res *Result) error {
	const n = 5000
	logs := make(map[ktypes.NodeID]*replog.Log)
	send := func(_ context.Context, to ktypes.NodeID, m wire.Msg) (wire.Msg, error) {
		app, ok := m.(*wire.ReplAppend)
		if !ok {
			return nil, fmt.Errorf("replog probe: unexpected %T", m)
		}
		return logs[to].HandleAppend(app), nil
	}
	homes := []ktypes.NodeID{1, 2, 3}
	for _, id := range homes {
		logs[id] = replog.New(replog.Config{Self: id, Send: send})
	}
	desc := &region.Descriptor{
		Range: gaddr.Range{Start: pageAddr(0), Size: probeBatch * pageSize},
		Attrs: region.DefaultAttrs(), Home: homes, Epoch: 1, Allocated: true,
	}
	ctx := context.Background()
	var aerr error
	ver := uint64(0)
	ns, _ := timeN(n, func() {
		ver++
		if err := logs[1].Append(ctx, desc, wire.ReplEntry{
			Op: wire.ReplOpRelease, Page: desc.Range.Start, Node: 1, Nodes: homes[:1], Val: ver, Aux: ver,
		}); err != nil {
			aerr = err
		}
	})
	if aerr != nil {
		return fmt.Errorf("bench: replog probe: %w", aerr)
	}
	res.add("replog.append_us", ns/1e3, n)
	return nil
}

func probeRing(res *Result) {
	const members, descs = 64, 1024
	ids := make([]ktypes.NodeID, members)
	for i := range ids {
		ids[i] = ktypes.NodeID(i + 1)
	}
	var r *ring.Ring
	ns, _ := timeN(50, func() { r = ring.Build(ids, ring.Options{}) })
	res.add("ring.build_us", ns/1e3, 50)

	const span = 1 << 20 // one region per MiB of address space
	i := 0
	ns, _ = timeN(200000, func() {
		r.Owners(ring.BucketOf(gaddr.FromUint64(uint64(i%descs) * span)))
		i++
	})
	res.add("ring.owners_ns", ns, 200000)

	table := ring.NewTable()
	for d := 0; d < descs; d++ {
		table.Insert(&region.Descriptor{
			Range: gaddr.Range{Start: gaddr.FromUint64(uint64(d+1) * span), Size: probeBatch * pageSize},
			Attrs: region.DefaultAttrs(), Home: ids[:1], Epoch: 1, Allocated: true,
		})
	}
	i = 0
	ns, _ = timeN(200000, func() {
		table.Lookup(gaddr.FromUint64(uint64(i%descs+1) * span))
		i++
	})
	res.add("ring.table_lookup_ns", ns, 200000)
}
