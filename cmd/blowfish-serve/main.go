// Command blowfish-serve runs the Blowfish policy-release HTTP service: a
// JSON API for declaring domains and secret-graph policies, uploading
// datasets, streaming events into them, opening budgeted sessions and
// continual-release streams, and drawing histogram, cumulative and
// range-query releases (see internal/server and the README's curl
// walkthroughs).
//
// Usage:
//
//	blowfish-serve -addr :8080 -seed 1 -session-ttl 30m
//
// -seed is the base of every noise key: a session's or stream's key is
// derived from it and the resource's id, which the server never reuses.
// Clients cannot choose a key, and two servers with the same -seed and
// the same requests publish identical releases at any -shards count.
//
// With -data-dir the server is durable: every acknowledged operation —
// registry changes, budget charges, ingest batches, epoch closes — is
// written to a CRC-checked write-ahead log before the response is sent
// (-fsync controls when records hit stable storage), and snapshots bound
// recovery time (-snapshot-every, plus one at graceful shutdown and on
// POST /v1/admin/checkpoint). On restart the server loads the latest
// snapshot, replays the log tail, and refuses exactly the releases the
// pre-crash server would have refused: privacy budgets are monotone
// across crashes, stream cursors resume where clients left off.
//
// The server runs -shards N shard workers (default 1) behind one router,
// each a full service core with its own registries, WAL directory
// (<data-dir>/shard-<i>) and snapshot cycle; datasets are routed across
// them by rendezvous hashing and sessions/streams are colocated with
// their dataset (see internal/shard). One shard is the same router and
// the same layout with a single worker. The shard count is fixed per data
// directory. A data directory records its on-disk format and -seed in a
// FORMAT file; the server refuses a directory whose FORMAT is missing or
// names another version, rather than read it wrongly, and refuses another
// -seed, which would re-draw the noise of releases already served.
//
// Observability: the API mux serves a Prometheus text exposition at
// GET /metrics (request latencies, per-policy release latencies, budget
// gauges, ingest apply latency and cursors, WAL fsync latency, epoch
// lag). With -metrics-addr an admin mux additionally serves /metrics —
// and, when -pprof is also set, the net/http/pprof handlers — on a
// separate listener that can stay off the public network. -log-level
// selects the slog threshold (debug logs every request and epoch close).
//
// On SIGINT/SIGTERM the server shuts down in order: stop accepting
// connections, close the ones that never sent a request, and drain
// in-flight requests (http.Server.Shutdown with a deadline), stop the
// session-TTL reaper, then stop every stream epoch scheduler and — when
// durable — take the final checkpoint, so no goroutine outlives main. An
// event batch is journaled and applied before its 202, so no acknowledged
// event is lost.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"blowfish/internal/server"
	"blowfish/internal/service"
	"blowfish/internal/shard"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		seed        = flag.Int64("seed", 1, "base seed: every session's and stream's noise key derives from it and the resource id; a -data-dir keeps the seed it was created with")
		ttl         = flag.Duration("session-ttl", 30*time.Minute, "idle session lifetime (0 = never expire)")
		sweep       = flag.Duration("sweep", time.Minute, "session expiry sweep interval")
		drain       = flag.Duration("drain", 5*time.Second, "shutdown deadline for in-flight requests")
		dataDir     = flag.String("data-dir", "", "durable state directory (empty = in-memory)")
		fsync       = flag.String("fsync", "always", "WAL fsync policy: always, interval or never")
		fsyncIvl    = flag.Duration("fsync-interval", 100*time.Millisecond, "sync period for -fsync=interval")
		snapEvery   = flag.Int("snapshot-every", 50000, "WAL records between automatic snapshots (0 = only shutdown/manual)")
		metricsAddr = flag.String("metrics-addr", "", "admin listen address for /metrics (and /debug/pprof with -pprof); empty = API mux only")
		pprofOn     = flag.Bool("pprof", false, "serve net/http/pprof on the -metrics-addr admin mux")
		logLevel    = flag.String("log-level", "info", "slog threshold: debug, info, warn or error")
		shards      = flag.Int("shards", 1, "shard workers; datasets are routed across per-shard cores (fixed per data directory)")
	)
	flag.Parse()

	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blowfish-serve: %v\n", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	openStart := time.Now()
	cfg := service.Config{
		Seed:       *seed,
		SessionTTL: *ttl,
		Logger:     logger,
		Durability: service.DurabilityConfig{
			Dir:           *dataDir,
			Fsync:         *fsync,
			FsyncInterval: *fsyncIvl,
			SnapshotEvery: *snapEvery,
		},
	}
	// Each of the N cores keeps its WAL under <data-dir>/shard-<i>; the
	// count is fixed per data directory.
	router, err := shard.Open(cfg, *shards)
	if err != nil {
		logger.Error("recovery failed", "dir", *dataDir, "shards", *shards, "err", err)
		os.Exit(1)
	}
	srv := server.New(router)
	if *dataDir != "" {
		logger.Info("durable state ready", "dir", *dataDir, "fsync", *fsync,
			"snapshot_every", *snapEvery, "shards", *shards, "elapsed", time.Since(openStart))
	}

	var fresh, adminFresh newConns
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(logger, srv),
		ReadHeaderTimeout: 10 * time.Second,
		ConnState:         fresh.track,
	}

	// The admin mux carries the scrape target (and optionally pprof) on its
	// own listener so neither needs to be exposed where the API is.
	var adminSrv *http.Server
	if *metricsAddr != "" {
		admin := http.NewServeMux()
		admin.Handle("GET /metrics", srv.MetricsHandler())
		if *pprofOn {
			admin.HandleFunc("/debug/pprof/", pprof.Index)
			admin.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			admin.HandleFunc("/debug/pprof/profile", pprof.Profile)
			admin.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			admin.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		adminSrv = &http.Server{Addr: *metricsAddr, Handler: admin, ReadHeaderTimeout: 10 * time.Second, ConnState: adminFresh.track}
		go func() {
			logger.Info("admin listening", "addr", *metricsAddr, "pprof", *pprofOn)
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("admin listener failed", "err", err)
			}
			adminFresh.closeAll() // as for the API listener below
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reaperDone := make(chan struct{})
	if *ttl > 0 {
		go func() {
			defer close(reaperDone)
			t := time.NewTicker(*sweep)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if n := srv.ExpireSessions(); n > 0 {
						logger.Info("expired idle sessions", "count", n)
					}
				}
			}
		}()
	} else {
		close(reaperDone)
	}

	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		logger.Info("shutting down", "drain", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("http drain incomplete", "err", err)
		}
		if adminSrv != nil {
			if err := adminSrv.Shutdown(shutdownCtx); err != nil {
				logger.Warn("admin drain incomplete", "err", err)
			}
		}
	}()

	logger.Info("listening", "addr", *addr, "seed", *seed, "session_ttl", *ttl)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listen failed", "err", err)
		os.Exit(1)
	}
	// The listener is closed, so no connection can be accepted any more.
	// Shutdown counts one that has not sent a request as busy for up to
	// five seconds; close those now, so the drain waits only on requests.
	fresh.closeAll()
	// Order matters: drain HTTP first (no new work can arrive, and every
	// acked events batch is already applied), then the reaper, then the
	// streaming goroutines — srv.Close stops every stream epoch ticker.
	<-shutdownDone
	stop()
	<-reaperDone
	closeStart := time.Now()
	srv.Close()
	if n := srv.CloseLeaked(); n > 0 {
		logger.Error("close abandoned goroutines at drain deadline", "leaked", n)
	}
	logger.Info("stopped", "close_elapsed", time.Since(closeStart))
}

// parseLevel maps the -log-level flag onto a slog.Level.
func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", s)
}

// newConns tracks the server's connections in http.StateNew: accepted,
// with no request read from them yet.
type newConns struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// track is the server's ConnState hook.
func (n *newConns) track(c net.Conn, state http.ConnState) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if state != http.StateNew {
		delete(n.conns, c)
		return
	}
	if n.conns == nil {
		n.conns = make(map[net.Conn]struct{})
	}
	n.conns[c] = struct{}{}
}

// closeAll closes every connection still in http.StateNew.
func (n *newConns) closeAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for c := range n.conns {
		_ = c.Close()
	}
	clear(n.conns)
}

// logRequests is the access log: one debug record per request. The
// serious per-route accounting lives in the server's metrics; this exists
// for tailing a dev server. Below debug level it passes w straight
// through, so a quiet server pays no allocation for it.
func logRequests(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !logger.Enabled(r.Context(), slog.LevelDebug) {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		logger.Debug("request",
			"method", r.Method, "path", r.URL.Path, "status", rec.status,
			"elapsed", time.Since(start).Round(time.Microsecond))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}
