// Command mat2cd is the mat2c compile-and-simulate daemon: a long-lived
// HTTP/JSON service wrapping the compiler pipeline with a
// content-addressed compilation cache, a bounded worker pool, and
// per-stage metrics.
//
// Usage:
//
//	mat2cd [-addr :8723] [-workers N] [-cache 256] [-timeout 30s]
//	mat2cd -coordinator [-unitsize 4] [-cachedir DIR -artifactserve] ...
//	mat2cd -worker http://coordinator:8723 [-advertise URL] [-sweepslots N] ...
//
// With -cachedir the compilation cache is backed by a durable artifact
// store; -artifactserve additionally exposes that store at /artifact
// (the blob protocol in internal/artifact/remote) so the daemon doubles
// as a fleet's shared cache origin. -artifactremote URL attaches such
// an origin as a third cache tier; a -worker without it adopts the
// endpoint its coordinator advertises at registration. A remote outage
// degrades to local operation — it never fails a request.
//
// Endpoints (see docs/SERVER.md for schemas):
//
//	POST /compile   compile MATLAB source to C + stats
//	POST /run       compile and execute on the cycle-model simulator
//	GET  /targets   list built-in processor descriptions
//	GET  /healthz   liveness probe
//	GET  /metrics   JSON metrics (requests, cache, stage histograms)
//	GET  /fleet     fleet role, worker health, queue depth
//
// In a sweep fleet (docs/FLEET.md), -coordinator accepts /dse and /isx
// jobs as usual but shards them across registered workers, and
// -worker enrolls this daemon with a coordinator and executes the
// dispatched work units on a bounded sweep queue.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, cancels
// background DSE sweeps, and drains in-flight requests; work still
// running when -draintimeout expires is cancelled through its request
// context (the pipeline observes the cancellation and aborts) before
// the listener is closed. A worker deregisters from its coordinator
// before the drain so no new units land on it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"mat2c/internal/artifact"
	"mat2c/internal/artifact/remote"
	"mat2c/internal/fleet"
	"mat2c/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", ":8723", "listen address")
		workers      = flag.Int("workers", 0, "max concurrent compilations (0 = NumCPU)")
		cacheSize    = flag.Int("cache", 0, "compilation cache entries (0 = default)")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		drainTimeout = flag.Duration("draintimeout", 15*time.Second, "graceful shutdown drain bound")
		cacheDir     = flag.String("cachedir", "", "durable artifact store directory backing the compilation cache (empty = memory only)")
		cacheBytes   = flag.Int64("cachebytes", 0, "artifact store byte budget (0 = default 512 MiB; needs -cachedir)")
		artServe     = flag.Bool("artifactserve", false, "serve the artifact store over HTTP at /artifact so this daemon is the fleet's shared cache origin (needs -cachedir)")
		artRemote    = flag.String("artifactremote", "", "blob-protocol `URL` of a fleet-shared artifact cache (e.g. http://coordinator:8723/artifact); workers default to the endpoint their coordinator advertises")

		coordinator = flag.Bool("coordinator", false, "run as fleet coordinator: shard /dse and /isx jobs across registered workers")
		workerOf    = flag.String("worker", "", "run as fleet worker of the coordinator at this base `URL`")
		advertise   = flag.String("advertise", "", "base URL workers advertise to the coordinator (default http://127.0.0.1<addr> when -addr is :port)")
		sweepSlots  = flag.Int("sweepslots", 0, "concurrent fleet work units on a worker (0 = workers/2)")
		unitSize    = flag.Int("unitsize", 0, "variants per dispatched DSE work unit (0 = default)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: mat2cd [flags]  (see mat2cd -h)")
		os.Exit(2)
	}
	if *coordinator && *workerOf != "" {
		fmt.Fprintln(os.Stderr, "mat2cd: -coordinator and -worker are mutually exclusive")
		os.Exit(2)
	}

	cfg := service.Config{
		Workers:        *workers,
		CacheSize:      *cacheSize,
		RequestTimeout: *timeout,
		SweepSlots:     *sweepSlots,
	}
	if *cacheDir != "" {
		store, err := artifact.OpenDisk(*cacheDir, *cacheBytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mat2cd:", err)
			os.Exit(1)
		}
		defer store.Close()
		cfg.Store = store
		log.Printf("mat2cd: artifact store at %s", *cacheDir)
	}
	if *artServe {
		if cfg.Store == nil {
			fmt.Fprintln(os.Stderr, "mat2cd: -artifactserve needs -cachedir (the served store)")
			os.Exit(2)
		}
		cfg.ArtifactServe = true
		log.Printf("mat2cd: serving artifacts at /artifact")
	}
	if *artRemote != "" {
		cfg.Remote = remote.New(*artRemote, remote.Options{})
		log.Printf("mat2cd: remote artifact cache at %s", *artRemote)
	}
	switch {
	case *coordinator:
		cfg.Role = service.RoleCoordinator
		cfg.Fleet = fleet.Config{UnitSize: *unitSize, Logf: log.Printf}
	case *workerOf != "":
		cfg.Role = service.RoleWorker
	}

	svc := service.New(cfg)
	// baseCtx parents every request context; cancelling it is the hard
	// stop that aborts in-flight pipeline work when the drain runs out.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// A worker keeps itself registered with its coordinator for as long
	// as it runs; cancelling agentCtx (first thing on shutdown, before
	// the drain) deregisters it so no further units are dispatched here.
	agentCtx, agentCancel := context.WithCancel(context.Background())
	agentDone := make(chan struct{})
	close(agentDone)
	if *workerOf != "" {
		self := *advertise
		if self == "" {
			if !strings.HasPrefix(*addr, ":") {
				fmt.Fprintln(os.Stderr, "mat2cd: -advertise is required when -addr is not a bare :port")
				os.Exit(2)
			}
			self = "http://127.0.0.1" + *addr
		}
		agent := &fleet.Agent{
			Coordinator: strings.TrimRight(*workerOf, "/"),
			Self:        strings.TrimRight(self, "/"),
			Slots:       svc.Config().SweepSlots,
			Logf:        log.Printf,
		}
		if *artRemote == "" {
			// No explicit remote: adopt the shared cache the coordinator
			// advertises, the first time it does. Attaching mid-traffic is
			// safe — every cache store access is mutex-guarded.
			var attach sync.Once
			agent.OnArtifactURL = func(url string) {
				attach.Do(func() {
					svc.Cache().SetRemoteStore(remote.New(url, remote.Options{}))
					log.Printf("mat2cd: remote artifact cache at %s (advertised by coordinator)", url)
				})
			}
		}
		agentDone = make(chan struct{})
		go func() {
			defer close(agentDone)
			agent.Run(agentCtx)
		}()
		log.Printf("mat2cd: worker of %s, advertising %s", agent.Coordinator, agent.Self)
	}
	defer agentCancel()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("mat2cd: listening on %s (%s)", *addr, cfg.Role)

	select {
	case err := <-errc:
		log.Fatalf("mat2cd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("mat2cd: signal received, draining (up to %s)", *drainTimeout)
	// Deregister from the coordinator first so no new units arrive while
	// the drain runs.
	agentCancel()
	<-agentDone
	// Cancel background work (async DSE sweeps) immediately — nobody is
	// coming back for those reports — and, in coordinator mode, wait for
	// dispatched-but-unacked work units to settle.
	svc.Shutdown()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		// The grace period expired with requests still in flight: cancel
		// their contexts so compile/simulate work aborts at its next
		// cancellation check, then close the listener.
		log.Printf("mat2cd: drain incomplete (%v), cancelling in-flight work", err)
		baseCancel()
		srv.Close()
	}
	// Flush again after the drain: svc.Shutdown flushed before it, but
	// requests that completed during the drain window spawn their own
	// asynchronous store write-throughs, and exiting without waiting
	// would strand those just-compiled artifacts.
	svc.Cache().Flush()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("mat2cd: %v", err)
	}
	log.Printf("mat2cd: stopped")
}
