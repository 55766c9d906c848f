// geoserve serves a compiled geolocation dataset over HTTP.
//
// It either loads a dataset artifact (-dataset) or compiles one from a
// fresh deterministic campaign (-scale), optionally writing the dataset
// out as a GEODSET1 artifact (-write) instead of serving. A GEODSET1
// artifact is decoded into RAM and answered by binary search; a
// block-indexed GEODSET2 is served straight out of a read-only mapping
// of the file, where truncating the live file in place costs 503s, not
// the process. Each format has exactly one lookup path
// and no cache to tune. The -faults profile injects deterministic per-IP
// lookup failures and stalls for chaos runs.
//
// The serving core (internal/serve) is production-shaped: artifacts
// hot-swap atomically under live traffic (SIGHUP, or POST /admin/reload
// guarded by -admin-token), overload is shed with 429 + Retry-After
// instead of collapse, every request has a deadline, and shutdown drains
// — /readyz flips to 503, in-flight requests finish, then the listener
// closes.
//
// With -router, geoserve instead runs an in-process fleet of -replicas
// servers behind the prefix-sharded router (internal/router): lookups
// shard by IP range, dead replicas fail over or degrade only their own
// range, and -hedge races slow primaries against their fallback.
//
//	geoserve -scale tiny -write dataset.bin
//	geoserve -dataset stream.geodset2 -write dataset.bin   # GEODSET2 → GEODSET1
//	geoserve -dataset dataset.bin -addr :8080 -admin-token s3cret -metrics
//	curl 'localhost:8080/lookup?ip=10.0.0.7'
//	curl -X POST -H 'X-Admin-Token: s3cret' \
//	    -d '{"path":"dataset-v2.bin"}' localhost:8080/admin/reload
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/faults"
	"geoloc/internal/obs"
	"geoloc/internal/router"
	"geoloc/internal/serve"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

// options is the parsed flag set; one struct so run stays testable and
// main stays a thin exit-code shim.
type options struct {
	addr        string
	dsPath      string
	scale       string
	writePath   string
	faultName   string
	unsanitized bool
	maxBatch    int

	maxInflight    int
	maxQueue       int
	queueTimeout   time.Duration
	requestTimeout time.Duration
	retryAfter     time.Duration
	adminToken     string
	drainWait      time.Duration

	readTimeout       time.Duration
	readHeaderTimeout time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration

	routerMode    bool
	replicas      int
	replication   int
	hedge         bool
	hedgeMin      time.Duration
	hedgeMax      time.Duration
	probeInterval time.Duration
	probeTimeout  time.Duration
	downAfter     int
	upAfter       int
	upstreamTmo   time.Duration

	logSample        int
	traceSample      int
	sloAvailability  float64
	sloLatencyP99    float64
	sloLatencyBudget time.Duration
	sloBurnThreshold float64

	accessLog *slog.Logger
	reg       *telemetry.Registry
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("geoserve: ")

	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.dsPath, "dataset", "", "serve this dataset artifact instead of compiling one")
	flag.StringVar(&o.scale, "scale", "tiny", "campaign scale to compile when -dataset is unset: tiny, medium, paper")
	flag.StringVar(&o.writePath, "write", "",
		"write the dataset (compiled, or loaded from -dataset of either format) here as a GEODSET1 artifact and exit instead of serving")
	flag.StringVar(&o.faultName, "faults", "none", "serving fault profile: none, realistic, degraded, hostile")
	flag.BoolVar(&o.unsanitized, "unsanitized", false, "include removed anchors as unsanitized reported-location records")
	flag.IntVar(&o.maxBatch, "max-batch", serve.DefaultMaxBatch, "maximum IPs accepted in one /batch request")

	flag.IntVar(&o.maxInflight, "max-inflight", serve.DefaultMaxInflight,
		"maximum concurrently executing data-plane requests (negative = unlimited)")
	flag.IntVar(&o.maxQueue, "max-queue", serve.DefaultMaxQueue,
		"maximum requests queued for an inflight slot before shedding with 429")
	flag.DurationVar(&o.queueTimeout, "queue-timeout", serve.DefaultQueueTimeout,
		"maximum time a request may wait for an inflight slot before shedding with 429")
	flag.DurationVar(&o.requestTimeout, "request-timeout", serve.DefaultRequestTimeout,
		"per-request deadline; expired requests answer 504 (negative = none)")
	flag.DurationVar(&o.retryAfter, "retry-after", serve.DefaultRetryAfter,
		"Retry-After hint attached to every shed 429")
	flag.StringVar(&o.adminToken, "admin-token", "",
		"token guarding POST /admin/reload (empty disables the endpoint)")
	flag.DurationVar(&o.drainWait, "drain-wait", 1*time.Second,
		"pause between flipping /readyz to 503 and closing the listener on shutdown")

	flag.DurationVar(&o.readTimeout, "read-timeout", 30*time.Second,
		"http.Server ReadTimeout (whole request including body)")
	flag.DurationVar(&o.readHeaderTimeout, "read-header-timeout", 5*time.Second,
		"http.Server ReadHeaderTimeout (slowloris guard)")
	flag.DurationVar(&o.writeTimeout, "write-timeout", 30*time.Second,
		"http.Server WriteTimeout")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 120*time.Second,
		"http.Server IdleTimeout for keep-alive connections")

	flag.BoolVar(&o.routerMode, "router", false,
		"serve through the replicated front tier: an in-process fleet of -replicas servers behind a prefix-sharded router")
	flag.IntVar(&o.replicas, "replicas", 4, "replica count for -router mode")
	flag.IntVar(&o.replication, "replication", router.DefaultReplication,
		"replicas that may answer for each prefix range (1 disables failover)")
	flag.BoolVar(&o.hedge, "hedge", false,
		"hedge slow lookups: duplicate to the fallback after the primary's p99 and take the first answer")
	flag.DurationVar(&o.hedgeMin, "hedge-min", router.DefaultHedgeMin, "lower clamp on the hedge delay")
	flag.DurationVar(&o.hedgeMax, "hedge-max", router.DefaultHedgeMax, "upper clamp on the hedge delay")
	flag.DurationVar(&o.probeInterval, "probe-interval", router.DefaultProbeInterval,
		"interval between active /readyz probes of each replica")
	flag.DurationVar(&o.probeTimeout, "probe-timeout", router.DefaultProbeTimeout, "budget for one probe")
	flag.IntVar(&o.downAfter, "down-after", router.DefaultDownAfter,
		"consecutive failures (passive or probe) that mark a replica down")
	flag.IntVar(&o.upAfter, "up-after", router.DefaultUpAfter,
		"consecutive probe successes that re-admit a down replica")
	flag.DurationVar(&o.upstreamTmo, "upstream-timeout", router.DefaultUpstreamTimeout,
		"budget for one router attempt against one replica")

	flag.IntVar(&o.logSample, "log-sample", 0,
		"log 1 in N successful requests to the access log (0 = errors only)")
	flag.IntVar(&o.traceSample, "trace-sample", 0,
		"record per-request stage spans for 1 in N requests (0 = off; export with -trace)")
	flag.Float64Var(&o.sloAvailability, "slo-availability", 0.999,
		"availability SLO objective: target fraction of data-plane requests answered without a 5xx")
	flag.Float64Var(&o.sloLatencyP99, "slo-latency-objective", 0.99,
		"latency SLO objective: target fraction of data-plane requests within -slo-latency-budget")
	flag.DurationVar(&o.sloLatencyBudget, "slo-latency-budget", 100*time.Millisecond,
		"latency budget the latency SLO objective applies to")
	flag.Float64Var(&o.sloBurnThreshold, "slo-burn-threshold", 0,
		"fast-window burn rate above which admission tightens the effective queue bound (0 = observe only)")

	tele := telemetry.NewCLI()
	flag.Parse()
	tele.Start()
	o.accessLog = tele.Logger()
	// The serving registry is always enabled — GET /metrics is part of
	// the serving contract, not an opt-in diagnostic like the global
	// default registry (which stays gated behind the telemetry flags).
	o.reg = telemetry.New()
	tele.Attach("geoserve", o.reg)

	err := run(o)
	// One Finish on every exit path: it is idempotent, but the log.Fatal
	// paths bypass deferred calls, so the explicit call must come first.
	tele.Finish()
	if err != nil {
		log.Fatal(err)
	}
}

func run(o options) error {
	var prof *faults.Profile
	switch o.faultName {
	case "none":
		prof = nil
	case "realistic":
		prof = faults.Realistic()
	case "degraded":
		prof = faults.Degraded()
	case "hostile":
		prof = faults.Hostile()
	default:
		return fmt.Errorf("unknown fault profile %q (want none, realistic, degraded, hostile)", o.faultName)
	}

	// A numeric -scale (e.g. 1e6) selects the streaming pipeline: the
	// artifact is external-merge compiled to disk as a block-indexed
	// GEODSET2 and served through a mapping, never decoded whole.
	if n, ok := streamScale(o.scale); ok && o.dsPath == "" {
		path, cleanup, err := streamCompile(n, o.writePath)
		if err != nil {
			return err
		}
		if o.writePath != "" {
			log.Printf("wrote streaming artifact to %s", o.writePath)
			return nil
		}
		defer cleanup()
		o.dsPath = path
	}

	if o.writePath != "" {
		ds, err := obtainDataset(o.dsPath, o.scale, o.unsanitized)
		if err != nil {
			return err
		}
		if err := ds.Write(o.writePath); err != nil {
			return fmt.Errorf("write dataset: %w", err)
		}
		log.Printf("wrote %d records to %s", len(ds.Records), o.writePath)
		return nil
	}

	var ds *dataset.Dataset
	serveBlockIndexed := o.dsPath != "" && isBlockIndexed(o.dsPath)
	if !serveBlockIndexed {
		var err error
		ds, err = obtainDataset(o.dsPath, o.scale, o.unsanitized)
		if err != nil {
			return err
		}
	}

	source := o.dsPath
	if source == "" {
		source = "compiled:" + o.scale
	}
	if o.routerMode {
		if serveBlockIndexed {
			return fmt.Errorf("-router serves decoded GEODSET1 replicas; convert the artifact or serve it single-node")
		}
		return runRouter(o, prof, ds, source)
	}

	srv := serve.New(serve.Config{
		Prof:           prof,
		MaxBatch:       o.maxBatch,
		MaxInflight:    o.maxInflight,
		MaxQueue:       o.maxQueue,
		QueueTimeout:   o.queueTimeout,
		RequestTimeout: o.requestTimeout,
		RetryAfter:     o.retryAfter,
		AdminToken:     o.adminToken,

		AccessLog:   o.accessLog,
		LogSample:   o.logSample,
		TraceSample: o.traceSample,
		SLO: &obs.SLOConfig{
			AvailabilityObjective: o.sloAvailability,
			LatencyObjective:      o.sloLatencyP99,
			LatencyBudgetMs:       float64(o.sloLatencyBudget) / float64(time.Millisecond),
		},
		BurnThreshold: o.sloBurnThreshold,
		MetricsLabel:  "geoserve",
	}, o.reg)
	if serveBlockIndexed {
		art, err := srv.Reload(o.dsPath)
		if err != nil {
			return fmt.Errorf("open block-indexed dataset: %w", err)
		}
		log.Printf("serving block-indexed artifact: %d records from %s", art.Records, o.dsPath)
	} else {
		srv.Publish(ds, source)
	}

	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           srv.Handler(),
		ReadTimeout:       o.readTimeout,
		ReadHeaderTimeout: o.readHeaderTimeout,
		WriteTimeout:      o.writeTimeout,
		IdleTimeout:       o.idleTimeout,
	}

	// SIGHUP hot-swaps the artifact from its source file under live
	// traffic; a failed reload keeps the old artifact serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if o.dsPath == "" {
				log.Printf("SIGHUP ignored: serving a compiled dataset, nothing to reload (use /admin/reload)")
				continue
			}
			art, err := srv.Reload(o.dsPath)
			if err != nil {
				log.Printf("SIGHUP reload failed: %v", err)
				continue
			}
			log.Printf("SIGHUP swap: generation %d, %d records from %s", art.Gen, art.Records, art.Source)
		}
	}()

	// Graceful drain: flip readiness so load balancers stop routing
	// here, give them drainWait to notice, then close the listener and
	// let Shutdown finish the in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		srv.StartDrain()
		log.Printf("draining: /readyz now 503, closing listener in %s", o.drainWait)
		time.Sleep(o.drainWait)
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("serving %d records on %s (faults=%s, generation %d)",
		srv.Current().Records, o.addr, o.faultName, srv.Current().Gen)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-drained
	log.Printf("drained, exiting")
	return nil
}

// obtainDataset loads an artifact of either format into RAM or compiles
// one from a fresh deterministic campaign at the requested scale.
func obtainDataset(path, scale string, unsanitized bool) (*dataset.Dataset, error) {
	if path != "" {
		ds, err := dataset.LoadAny(path)
		if err != nil {
			return nil, fmt.Errorf("load dataset: %w", err)
		}
		return ds, nil
	}
	var cfg world.Config
	switch scale {
	case "tiny":
		cfg = world.TinyConfig()
	case "medium":
		cfg = world.MediumConfig()
	case "paper":
		cfg = world.DefaultConfig()
	default:
		return nil, fmt.Errorf("unknown scale %q (want tiny, medium, paper)", scale)
	}
	log.Printf("compiling %s-scale dataset (no -dataset given)...", scale)
	c := core.NewCampaign(cfg)
	return dataset.Compile(c, dataset.Options{IncludeUnsanitized: unsanitized}), nil
}
