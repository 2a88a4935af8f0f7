// Command wocampd is the always-on campaign service: an HTTP/JSON front end
// over the internal/campaign engine that turns the simulator into a shared
// memory-model oracle.
//
// Usage:
//
//	wocampd [-addr HOST:PORT] [-dir DIR] [-cache PATH]
//
// Endpoints:
//
//	POST /v1/check              check one litmus program against machines
//	POST /v1/campaigns          submit a campaign spec (JSON); returns its id
//	GET  /v1/campaigns          list campaigns
//	GET  /v1/campaigns/{id}     one campaign's status (+report when done)
//	GET  /v1/campaigns/{id}/events   NDJSON per-seed progress (replay + live)
//	GET  /v1/stats              result-cache counters
//
// Single-program submissions are answered from the digest-keyed result cache
// when an identical (program, machines, budgets) combination was ever checked
// before — the response's "cached" flag and "explored_now" counter (zero on a
// hit) prove no re-exploration happened. Campaigns run in the background on
// the shared worker pool and checkpoint after every block, so killing the
// server loses nothing: on restart every incomplete campaign in -dir is
// resumed automatically. SIGINT/SIGTERM shut down gracefully — in-flight
// campaigns write a final checkpoint before the process exits.
//
// A request is refused before anything runs: 413 for a body over 1 MiB, 400
// for a malformed one, one with a field its endpoint does not take, or a
// "max_states" above 2 000 000. How a verdict explores is not a request
// field: every exploration runs serially with the partial-order reduction on,
// so a verdict depends only on what its cache key holds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"weakorder/internal/campaign"
)

func main() {
	addr := flag.String("addr", "localhost:8423", "listen address")
	dir := flag.String("dir", "wocampd-data", "campaign checkpoint root directory")
	cachePath := flag.String("cache", "", `result cache segment (default DIR/cache.wocs; "off" disables caching)`)
	flag.Parse()

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	var store *campaign.Store
	if *cachePath != "off" {
		path := *cachePath
		if path == "" {
			path = *dir + "/cache.wocs"
		}
		var err error
		if store, err = campaign.OpenStore(path); err != nil {
			fatal(err)
		}
		defer store.Close()
		if store.Discarded > 0 {
			fmt.Fprintf(os.Stderr, "wocampd: cache %s: %d stale/damaged byte(s) discarded, %d entrie(s) recovered\n",
				path, store.Discarded, store.Recovered)
		}
		fmt.Printf("wocampd: cache %s: %d entrie(s)\n", path, store.Len())
	}

	srv := campaign.NewServer(store, *dir)
	resumed, err := srv.Recover()
	if err != nil {
		fatal(err)
	}
	for _, id := range resumed {
		fmt.Printf("wocampd: resuming checkpointed campaign %s\n", id)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wocampd: serving on http://%s (data in %s)\n", ln.Addr(), *dir)

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-done:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting requests, interrupt every campaign
	// (each writes a final checkpoint), then exit cleanly — a restart resumes
	// exactly where this instance stopped.
	fmt.Fprintln(os.Stderr, "wocampd: shutting down; checkpointing campaigns")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "wocampd: %v\n", err)
	}
	srv.Shutdown()
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a connection that sends them slowly or never cannot hold a
// server goroutine indefinitely.
const readHeaderTimeout = 10 * time.Second

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wocampd: %v\n", err)
	os.Exit(1)
}
