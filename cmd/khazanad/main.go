// khazanad is a standalone Khazana daemon over TCP.
//
// A three-node deployment on one machine:
//
//	khazanad -id 1 -listen 127.0.0.1:7451 -store /tmp/kz1 -genesis
//	khazanad -id 2 -listen 127.0.0.1:7452 -store /tmp/kz2 \
//	         -manager 1 -peers 1=127.0.0.1:7451
//	khazanad -id 3 -listen 127.0.0.1:7453 -store /tmp/kz3 \
//	         -manager 1 -peers 1=127.0.0.1:7451,2=127.0.0.1:7452
//
// Then drive it with khazctl.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"khazana"
	"khazana/internal/ktypes"
	"khazana/internal/telemetry"
	"khazana/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("khazanad", flag.ContinueOnError)
	id := fs.Uint("id", 0, "node ID (>= 1, required)")
	listen := fs.String("listen", "127.0.0.1:7450", "TCP listen address")
	store := fs.String("store", "", "disk-tier directory (required)")
	manager := fs.Uint("manager", 0, "cluster manager node ID (default: self)")
	mapHome := fs.Uint("map-home", 0, "address map home node ID (default: manager)")
	genesis := fs.Bool("genesis", false, "initialize the address map (exactly one node)")
	peers := fs.String("peers", "", "comma-separated peer addresses: id=host:port,...")
	memPages := fs.Int("mem-pages", 0, "RAM page-cache bound (0 = default)")
	heartbeat := fs.Duration("heartbeat", time.Second, "heartbeat interval (0 disables)")
	retry := fs.Duration("retry", time.Second, "release retry interval (0 disables)")
	replica := fs.Duration("replica", 2*time.Second, "replica maintenance interval (0 disables)")
	debugAddr := fs.String("debug-addr", "", "HTTP debug listener (/metrics, /traces, /debug/pprof); empty disables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == 0 {
		return fmt.Errorf("-id is required")
	}
	if *store == "" {
		return fmt.Errorf("-store is required")
	}

	tcp, err := transport.NewTCP(ktypes.NodeID(*id), *listen)
	if err != nil {
		return err
	}
	if *peers != "" {
		for _, spec := range strings.Split(*peers, ",") {
			idStr, addr, ok := strings.Cut(strings.TrimSpace(spec), "=")
			if !ok {
				return fmt.Errorf("bad peer spec %q (want id=host:port)", spec)
			}
			pid, err := strconv.ParseUint(idStr, 10, 32)
			if err != nil {
				return fmt.Errorf("bad peer id %q: %v", idStr, err)
			}
			tcp.AddPeer(ktypes.NodeID(pid), addr)
		}
	}

	node, err := khazana.StartNode(context.Background(), khazana.NodeConfig{
		ID:                khazana.NodeID(*id),
		Transport:         tcp,
		StoreDir:          *store,
		MemPages:          *memPages,
		ClusterManager:    khazana.NodeID(*manager),
		MapHome:           khazana.NodeID(*mapHome),
		Genesis:           *genesis,
		HeartbeatInterval: *heartbeat,
		RetryInterval:     *retry,
		ReplicaInterval:   *replica,
	})
	if err != nil {
		_ = tcp.Close()
		return err
	}
	log.Printf("khazanad node %d listening on %s (store %s, genesis=%v)",
		*id, tcp.Addr(), *store, *genesis)

	var debugSrv *http.Server
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			_ = node.Close()
			_ = tcp.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		debugSrv = &http.Server{Handler: debugMux(node)}
		go func() {
			if serr := debugSrv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
				log.Printf("khazanad debug listener: %v", serr)
			}
		}()
		log.Printf("khazanad node %d debug listener on http://%s", *id, ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("khazanad node %d shutting down", *id)
	if debugSrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = debugSrv.Shutdown(shutCtx)
		cancel()
	}
	err = node.Close()
	if cerr := tcp.Close(); err == nil {
		err = cerr
	}
	return err
}

// debugMux builds the daemon's debug/export surface: metrics in Prometheus
// text (default) or JSON (?format=json), the trace-span ring, and pprof.
func debugMux(node *khazana.Node) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := node.Core().MetricsSnapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(snap); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := telemetry.WritePrometheus(w, snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		spans := node.Core().TraceSpans()
		if spans == nil {
			spans = []telemetry.SpanRecord{}
		}
		if err := json.NewEncoder(w).Encode(spans); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
