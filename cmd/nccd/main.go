// Command nccd is the NCC scenario-execution daemon: a long-running HTTP
// service that accepts scenario submissions (the same JSON files nccrun
// consumes), executes them on a bounded-concurrency scheduler with a global
// engine-worker budget, streams results back as NDJSON records, and serves
// identical re-submissions from a content-addressed result cache.
//
// One binary, three roles:
//
//	nccd -addr :9876 -cache-dir /var/lib/nccd        # standalone daemon
//	nccd -coordinator -addr :9876                    # cluster coordinator
//	nccd -addr :0 -join http://coord:9876            # cluster worker
//
// A coordinator executes nothing itself: workers register with it
// (POST /v1/workers, heartbeated), it shards submitted jobs across them by
// free capacity, proxies each job's record stream back byte-identical to a
// local run, and re-dispatches jobs whose worker dies mid-run. A worker is an
// ordinary standalone daemon plus a registration loop; its own HTTP API keeps
// serving direct clients.
//
// Endpoints (see internal/service):
//
//	POST   /v1/jobs              submit a scenario JSON
//	GET    /v1/jobs              list jobs (?state=, ?limit=)
//	GET    /v1/jobs/{id}         job status
//	GET    /v1/jobs/{id}/records NDJSON record stream (live)
//	POST   /v1/jobs/{id}/cancel  cancel a job
//	DELETE /v1/jobs/{id}         cancel a job
//	POST   /v1/campaigns         submit a campaign spec (inline scenarios)
//	GET    /v1/campaigns         list campaigns
//	GET    /v1/campaigns/{id}    campaign status and unit→job map
//	GET    /v1/campaigns/{id}/report  comparative report (JSON; ?format=text)
//	GET    /healthz              liveness
//	GET    /metrics              Prometheus text metrics
//	POST   /v1/workers           (coordinator) register/heartbeat a worker
//	GET    /v1/workers           (coordinator) list workers
//	DELETE /v1/workers/{name}    (coordinator) deregister a worker
//
// SIGTERM/SIGINT drain gracefully: a worker first deregisters (so the
// coordinator re-dispatches its jobs), then submissions are refused, running
// jobs get -drain-timeout to finish, stragglers are canceled through the
// engine's abort path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"ncc/internal/graphio"
	"ncc/internal/service"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sigs))
}

// run is the testable entry point: it serves until a signal arrives on sigs
// or the listener fails, and returns a process exit code.
func run(args []string, stdout, stderr io.Writer, sigs <-chan os.Signal) int {
	fs := flag.NewFlagSet("nccd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:9876", "listen address (host:port; port 0 picks a free port)")
	cacheDir := fs.String("cache-dir", "", "persist completed sweeps here as content-addressed NDJSON (empty: in-memory cache only)")
	budget := fs.Int("budget", 0, "global engine-worker budget shared across jobs (0 = GOMAXPROCS)")
	jobs := fs.Int("jobs", 2, "jobs executing concurrently (runs within a job are always sequential)")
	queue := fs.Int("queue", 256, "queued-job limit (jobs waiting for an executor or a worker slot); submissions beyond it get 429 with Retry-After: 1")
	retain := fs.Int("retain", 1024, "jobs remembered before the oldest terminal ones are forgotten (results stay cached)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for running jobs on shutdown before they are canceled")
	coordinator := fs.Bool("coordinator", false, "run as a cluster coordinator: execute nothing locally, shard jobs across registered workers")
	workerTTL := fs.Duration("worker-ttl", 10*time.Second, "coordinator: drop workers whose last heartbeat is older than this")
	attempts := fs.Int("attempts", 3, "coordinator: dispatch attempts per job before it is failed")
	graphDir := fs.String("graph-dir", graphio.DefaultDir(), "content-addressed graph store served at /v1/graphs and used by file-family scenarios (empty: disable the graph API)")
	join := fs.String("join", "", "worker: register with the coordinator at this base URL and heartbeat")
	advertise := fs.String("advertise", "", "worker: base URL the coordinator should dial back (default: derived from the bound listen address)")
	name := fs.String("name", "", "worker: stable name to register under (default: advertised host:port)")
	heartbeat := fs.Duration("heartbeat", 2*time.Second, "worker: registration heartbeat period (keep well under the coordinator's -worker-ttl)")
	clusterToken := fs.String("cluster-token", "", "require this bearer token on every /v1/ route and present it to the coordinator/workers (empty: no auth)")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log encoding on stderr: text or json")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (token-exempt like /healthz and /metrics; leave off beyond a trusted network)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger, err := buildLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(stderr, "nccd:", err)
		return 2
	}
	if *coordinator && *join != "" {
		fmt.Fprintln(stderr, "nccd: -coordinator and -join are mutually exclusive (a coordinator does not execute jobs)")
		return 2
	}

	cfg := service.Config{
		WorkerBudget: *budget,
		Executors:    *jobs,
		QueueLimit:   *queue,
		CacheDir:     *cacheDir,
		RetainJobs:   *retain,
		WorkerTTL:    *workerTTL,
		JobAttempts:  *attempts,
		GraphDir:     *graphDir,
		ClusterToken: *clusterToken,
		Pprof:        *pprofOn,
		Logger:       logger,
	}
	if *graphDir != "" {
		// The daemon's own file-family resolver and its /v1/graphs API share
		// one store, so a graph uploaded here is immediately runnable here.
		graphio.SetStoreDir(*graphDir)
	}
	if *join != "" {
		// Worker role: graphs referenced by dispatched jobs but missing from
		// the local store are fetched from the coordinator on demand.
		graphio.SetFetcher(service.NewClusterClient(*join, *clusterToken).Graph)
	}
	var svc *service.Server
	if *coordinator {
		svc, err = service.NewCoordinator(cfg)
	} else {
		svc, err = service.New(cfg)
	}
	if err != nil {
		logger.Error("startup failed", "err", err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		return 1
	}
	role := "standalone"
	if *coordinator {
		role = "coordinator"
	} else if *join != "" {
		role = "worker"
	}
	// The stdout announcement is a stable machine-readable contract (scripts
	// sed the bound address out of it); everything else logs structured.
	fmt.Fprintf(stdout, "nccd listening on %s\n", ln.Addr())
	logger.Info("listening", "addr", ln.Addr().String(), "role", role, "pprof", *pprofOn)

	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Worker role: maintain cluster membership alongside serving.
	joinCtx, stopJoin := context.WithCancel(context.Background())
	defer stopJoin()
	var joinWG sync.WaitGroup
	if *join != "" {
		self := *advertise
		if self == "" {
			self = "http://" + dialableAddr(ln.Addr())
		}
		workerLog := logger.With("role", "worker", "self", self)
		jn := &service.Joiner{
			Coordinator: *join,
			Self:        self,
			Name:        *name,
			Capacity:    *jobs,
			Interval:    *heartbeat,
			Token:       *clusterToken,
			Logf: func(format string, args ...any) {
				workerLog.Info(fmt.Sprintf(format, args...))
			},
		}
		joinWG.Add(1)
		go func() {
			defer joinWG.Done()
			jn.Run(joinCtx)
		}()
	}

	select {
	case err := <-serveErr:
		logger.Error("serve failed", "err", err)
		return 1
	case sig := <-sigs:
		logger.Info("draining", "signal", sig.String(), "timeout", *drainTimeout)
		// Deregister first so the coordinator stops dispatching here and
		// re-dispatches whatever this drain is about to cancel.
		stopJoin()
		joinWG.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			logger.Warn("drain timeout exceeded, jobs canceled", "err", err)
		}
		// Streams of now-terminal jobs close on their own; give connections a
		// moment to finish, then cut whatever is left.
		shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shCancel()
		if err := srv.Shutdown(shCtx); err != nil {
			srv.Close()
		}
		fmt.Fprintln(stdout, "nccd: drained, bye")
		return 0
	}
}

// buildLogger assembles the daemon's structured stderr logger from the
// -log-level and -log-format flags. Stdout stays reserved for the two stable
// announcement lines ("nccd listening on ..." and "nccd: drained, bye").
func buildLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn, or error", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

// dialableAddr turns the bound listen address into something another process
// can dial: an unspecified host (0.0.0.0, [::]) becomes the loopback address.
// Multi-host deployments should pass -advertise explicitly.
func dialableAddr(a net.Addr) string {
	tcp, ok := a.(*net.TCPAddr)
	if !ok {
		return a.String()
	}
	if tcp.IP == nil || tcp.IP.IsUnspecified() {
		return fmt.Sprintf("127.0.0.1:%d", tcp.Port)
	}
	return tcp.String()
}
