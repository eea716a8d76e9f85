// khazctl is a command-line client for a running khazanad.
//
//	khazctl -daemon 127.0.0.1:7451 reserve 8192
//	khazctl -daemon 127.0.0.1:7451 alloc <addr>
//	khazctl -daemon 127.0.0.1:7451 put <addr> 0 "hello"
//	khazctl -daemon 127.0.0.1:7451 get <addr> 0 5
//	khazctl -daemon 127.0.0.1:7451 attr <addr>
//	khazctl -daemon 127.0.0.1:7451 stats
//	khazctl -daemon 127.0.0.1:7451 trace
//	khazctl -daemon 127.0.0.1:7451 ping [count]
//	khazctl -daemon 127.0.0.1:7451 migrate <addr> <node-id>
//	khazctl -daemon 127.0.0.1:7451 free <addr>
//	khazctl -daemon 127.0.0.1:7451 unreserve <addr>
//
// put and get wrap each access in a lock/unlock pair, presenting the
// paper's full operation sequence.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"khazana"
	"khazana/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "khazctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("khazctl", flag.ContinueOnError)
	daemon := fs.String("daemon", "127.0.0.1:7450", "daemon TCP address")
	daemonID := fs.Uint("daemon-id", 1, "daemon node ID")
	clientID := fs.Uint("client-id", 0, "this client's node ID (default: derived from pid)")
	principal := fs.String("principal", "", "principal for access control")
	timeout := fs.Duration("timeout", 10*time.Second, "operation timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: khazctl [flags] <reserve|alloc|free|unreserve|put|get|attr|stats|trace|ping|migrate> ...")
	}
	cid := khazana.NodeID(*clientID)
	if cid == 0 {
		cid = khazana.ClientID(os.Getpid())
	}
	cli, err := khazana.Dial(cid, khazana.NodeID(*daemonID), *daemon, khazana.Principal(*principal))
	if err != nil {
		return err
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "reserve":
		if len(rest) != 1 {
			return fmt.Errorf("usage: reserve <size>")
		}
		size, err := strconv.ParseUint(rest[0], 10, 64)
		if err != nil {
			return err
		}
		start, err := cli.Reserve(ctx, size, khazana.Attrs{})
		if err != nil {
			return err
		}
		fmt.Println(start)
		return nil
	case "alloc", "free", "unreserve":
		if len(rest) != 1 {
			return fmt.Errorf("usage: %s <addr>", cmd)
		}
		addr, err := khazana.ParseAddr(rest[0])
		if err != nil {
			return err
		}
		switch cmd {
		case "alloc":
			err = cli.Allocate(ctx, addr)
		case "free":
			err = cli.Free(ctx, addr)
		case "unreserve":
			err = cli.Unreserve(ctx, addr)
		}
		if err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	case "put":
		if len(rest) != 3 {
			return fmt.Errorf("usage: put <addr> <offset> <data>")
		}
		addr, err := khazana.ParseAddr(rest[0])
		if err != nil {
			return err
		}
		off, err := strconv.ParseUint(rest[1], 10, 64)
		if err != nil {
			return err
		}
		data := []byte(rest[2])
		target := addr.MustAdd(off)
		lk, err := cli.Lock(ctx, khazana.Range{Start: target, Size: uint64(len(data))}, khazana.LockWrite)
		if err != nil {
			return err
		}
		defer lk.Unlock(ctx)
		if err := lk.Write(ctx, target, data); err != nil {
			return err
		}
		fmt.Printf("wrote %d bytes at %v\n", len(data), target)
		return nil
	case "get":
		if len(rest) != 3 {
			return fmt.Errorf("usage: get <addr> <offset> <len>")
		}
		addr, err := khazana.ParseAddr(rest[0])
		if err != nil {
			return err
		}
		off, err := strconv.ParseUint(rest[1], 10, 64)
		if err != nil {
			return err
		}
		n, err := strconv.ParseUint(rest[2], 10, 64)
		if err != nil {
			return err
		}
		target := addr.MustAdd(off)
		lk, err := cli.Lock(ctx, khazana.Range{Start: target, Size: n}, khazana.LockRead)
		if err != nil {
			return err
		}
		defer lk.Unlock(ctx)
		data, err := lk.Read(ctx, target, n)
		if err != nil {
			return err
		}
		fmt.Printf("%q\n", data)
		return nil
	case "attr":
		if len(rest) != 1 {
			return fmt.Errorf("usage: attr <addr>")
		}
		addr, err := khazana.ParseAddr(rest[0])
		if err != nil {
			return err
		}
		d, err := cli.GetAttr(ctx, addr)
		if err != nil {
			return err
		}
		fmt.Printf("region    %v (+%d bytes)\n", d.Range.Start, d.Range.Size)
		fmt.Printf("pagesize  %d\n", d.Attrs.PageSize)
		fmt.Printf("protocol  %v (level %v)\n", d.Attrs.Protocol, d.Attrs.Level)
		fmt.Printf("replicas  min %d, homes %v\n", d.Attrs.MinReplicas, d.Home)
		fmt.Printf("owner     %q (world %v)\n", d.Attrs.ACL.Owner, d.Attrs.ACL.World)
		fmt.Printf("allocated %v, epoch %d\n", d.Allocated, d.Epoch)
		return nil
	case "stats":
		st, err := cli.Stats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("node        %v (members %v)\n", st.Node, st.Members)
		fmt.Printf("regions     %d homed here\n", st.HomedRegions)
		fmt.Printf("pages       %d in RAM, %d on disk\n", st.MemPages, st.DiskPages)
		fmt.Printf("lookups     %d (%d dir hits, %d ring, %d tree walks)\n",
			st.Lookups, st.DirHits, st.RingHits, st.TreeWalks)
		fmt.Printf("locks       %d granted\n", st.LocksGranted)
		fmt.Printf("recovery    %d release retries, %d promotions\n",
			st.ReleaseRetries, st.Promotions)
		m, err := cli.Metrics(ctx)
		if err != nil {
			return err
		}
		counter := func(name string) int64 {
			for _, c := range m.Counters {
				if c.Name == name {
					return c.Value
				}
			}
			return 0
		}
		chains := "no version chains observed"
		for _, h := range m.Histograms {
			if h.Name == telemetry.MetricSnapshotChainLen && h.Count > 0 {
				chains = fmt.Sprintf("mean chain len %d over %d publishes", h.Sum/h.Count, h.Count)
			}
		}
		fmt.Printf("snapshots   %d reads, %d old frames reclaimed, %s\n",
			counter(telemetry.MetricSnapshotReads), counter(telemetry.MetricSnapshotReclaimed), chains)
		fmt.Printf("ring        %d one-hop lookups, %d rebalance moves, %d fallback walks\n",
			counter(telemetry.MetricRingLookups), counter(telemetry.MetricRingRebalanceMoves),
			counter(telemetry.MetricRingFallbackWalks))
		gauge := func(name string) int64 {
			for _, g := range m.Gauges {
				if g.Name == name {
					return g.Value
				}
			}
			return 0
		}
		fmt.Printf("transport   %d conns open, %d requests in flight, %d bytes in, %d bytes out\n",
			gauge(telemetry.MetricTransportConnsOpen), gauge(telemetry.MetricTransportInflight),
			counter(telemetry.MetricTransportBytesIn), counter(telemetry.MetricTransportBytesOut))
		commit := "no commits observed"
		for _, h := range m.Histograms {
			if h.Name == telemetry.MetricReplCommitLatency && h.Count > 0 {
				commit = fmt.Sprintf("mean commit %v over %d appends", time.Duration(h.Sum/h.Count), h.Count)
			}
		}
		fmt.Printf("replog      %d entries tailed, %d elections, %d failovers, %d degraded commits, %s\n",
			gauge(telemetry.MetricReplLogLen), counter(telemetry.MetricReplElections),
			counter(telemetry.MetricReplFailovers), counter(telemetry.MetricReplDegradedCommits), commit)
		fmt.Printf("failover    %d ad-hoc home takeovers, %d replica repairs\n",
			counter(telemetry.MetricHomePromotions), counter(telemetry.MetricReplicaRepairs))
		fmt.Println("metrics")
		for _, c := range m.Counters {
			fmt.Printf("  %-40s %d\n", c.Name, c.Value)
		}
		for _, g := range m.Gauges {
			fmt.Printf("  %-40s %d\n", g.Name, g.Value)
		}
		for _, h := range m.Histograms {
			mean := uint64(0)
			if h.Count > 0 {
				mean = h.Sum / h.Count
			}
			fmt.Printf("  %-40s count=%d mean=%d\n", h.Name, h.Count, mean)
		}
		return nil
	case "trace":
		spans, err := cli.Traces(ctx)
		if err != nil {
			return err
		}
		if len(spans) == 0 {
			fmt.Println("no spans recorded")
			return nil
		}
		fmt.Printf("%-16s %-8s %-8s %-5s %-10s %s\n", "TRACE", "SPAN", "PARENT", "NODE", "DURATION", "NAME")
		for _, s := range spans {
			parent := "-"
			if s.Parent != 0 {
				parent = fmt.Sprintf("%08x", s.Parent)
			}
			fmt.Printf("%016x %08x %-8s %-5d %-10v %s\n",
				s.Trace, s.Span, parent, s.Node, time.Duration(s.DurationNs), s.Name)
		}
		return nil
	case "ping":
		count := 3
		if len(rest) == 1 {
			c, err := strconv.Atoi(rest[0])
			if err != nil || c < 1 {
				return fmt.Errorf("usage: ping [count]")
			}
			count = c
		} else if len(rest) > 1 {
			return fmt.Errorf("usage: ping [count]")
		}
		fmt.Printf("%-5s %-6s %s\n", "SEQ", "NODE", "RTT")
		var total time.Duration
		for i := 0; i < count; i++ {
			rtt, err := cli.Ping(ctx)
			if err != nil {
				return err
			}
			total += rtt
			fmt.Printf("%-5d %-6d %v\n", i+1, *daemonID, rtt)
		}
		fmt.Printf("avg %v over %d pings\n", total/time.Duration(count), count)
		return nil
	case "migrate":
		if len(rest) != 2 {
			return fmt.Errorf("usage: migrate <addr> <node-id>")
		}
		addr, err := khazana.ParseAddr(rest[0])
		if err != nil {
			return err
		}
		target, err := strconv.ParseUint(rest[1], 10, 32)
		if err != nil {
			return err
		}
		if err := cli.Migrate(ctx, addr, khazana.NodeID(target)); err != nil {
			return err
		}
		fmt.Printf("region %v migrated to node %d\n", addr, target)
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}
