// Router mode (-router): instead of one server, geoserve runs an
// in-process fleet of -replicas serve.Servers — each with its own
// listener and registry — behind the prefix-sharded front tier in
// internal/router. One binary, one -addr, N failure domains: the chaos
// proof (geobench -chaos) kills and revives fleet members through the
// router's /admin/replica surface while traffic keeps flowing.
package main

import (
	"context"
	"errors"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"geoloc/internal/dataset"
	"geoloc/internal/faults"
	"geoloc/internal/obs"
	"geoloc/internal/router"
	"geoloc/internal/serve"
)

// replicaServeConfig is the per-replica serving config in router mode:
// the same knobs as single-server mode, minus the admin token (fleet
// control goes through the router, not individual replicas).
func replicaServeConfig(o options, prof *faults.Profile) serve.Config {
	return serve.Config{
		Prof:           prof,
		MaxBatch:       o.maxBatch,
		MaxInflight:    o.maxInflight,
		MaxQueue:       o.maxQueue,
		QueueTimeout:   o.queueTimeout,
		RequestTimeout: o.requestTimeout,
		RetryAfter:     o.retryAfter,

		AccessLog:   o.accessLog,
		LogSample:   o.logSample,
		TraceSample: o.traceSample,
		SLO: &obs.SLOConfig{
			AvailabilityObjective: o.sloAvailability,
			LatencyObjective:      o.sloLatencyP99,
			LatencyBudgetMs:       float64(o.sloLatencyBudget) / float64(time.Millisecond),
		},
		BurnThreshold: o.sloBurnThreshold,
	}
}

// runRouter is run()'s -router branch: fleet up, router in front,
// the same SIGHUP/drain lifecycle as single-server mode.
func runRouter(o options, prof *faults.Profile, ds *dataset.Dataset, source string) error {
	fleet, err := router.NewLocalFleet(o.replicas, ds, source, replicaServeConfig(o, prof))
	if err != nil {
		return err
	}
	defer fleet.Close()

	rt, err := router.New(router.Config{
		ReplicaURLs:     fleet.Addrs(),
		Replication:     o.replication,
		MaxBatch:        o.maxBatch,
		UpstreamTimeout: o.upstreamTmo,
		RequestTimeout:  o.requestTimeout,
		Hedge:           o.hedge,
		HedgeMin:        o.hedgeMin,
		HedgeMax:        o.hedgeMax,
		ProbeInterval:   o.probeInterval,
		ProbeTimeout:    o.probeTimeout,
		DownAfter:       o.downAfter,
		UpAfter:         o.upAfter,
		RetryAfter:      o.retryAfter,
		Seed:            ds.Hdr.Seed,
		Prof:            prof,
		AdminToken:      o.adminToken,
		Controller:      fleet,
		MetricsLabel:    "georouter",
	}, o.reg)
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Close()

	// Deterministic replica chaos: when the fault profile carries
	// replica-lifecycle knobs, a driver loop flaps fleet members on the
	// profile's schedule (same seed → same outage windows).
	chaosStop := make(chan struct{})
	defer close(chaosStop)
	if prof != nil && (prof.ReplicaCrashProb > 0 || prof.ReplicaFlapPeriodSec > 0) {
		go replicaChaosLoop(fleet, prof, ds.Hdr.Seed, o.replicas, chaosStop)
	}

	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           rt.Handler(),
		ReadTimeout:       o.readTimeout,
		ReadHeaderTimeout: o.readHeaderTimeout,
		WriteTimeout:      o.writeTimeout,
		IdleTimeout:       o.idleTimeout,
	}

	// SIGHUP reloads the artifact and republishes it to every replica —
	// the fleet swaps member by member, each one atomically.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if o.dsPath == "" {
				log.Printf("SIGHUP ignored: serving a compiled dataset, nothing to reload")
				continue
			}
			nds, err := dataset.Load(o.dsPath)
			if err != nil {
				log.Printf("SIGHUP reload failed: %v", err)
				continue
			}
			for i, s := range fleet.Servers() {
				art := s.Publish(nds, o.dsPath)
				log.Printf("SIGHUP swap: replica %d now generation %d (%d records)", i, art.Gen, art.Records)
			}
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		rt.StartDrain()
		log.Printf("draining: router /readyz now 503, closing listener in %s", o.drainWait)
		time.Sleep(o.drainWait)
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("routing %d records across %d replicas on %s (replication=%d, hedge=%v, faults=%s)",
		len(ds.Records), o.replicas, o.addr, o.replication, o.hedge, o.faultName)
	for i, r := range rt.Ranges() {
		log.Printf("  replica %d: %s-%s", i, r.Lo, r.Hi)
	}
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-drained
	log.Printf("drained, exiting")
	return nil
}

// replicaChaosLoop applies the fault profile's replica-lifecycle
// schedule to the fleet: once a second each replica's desired state is
// recomputed from the deterministic flap windows and per-epoch crash
// draws, and the fleet is steered toward it. The loop never touches
// replica 0 when every other replica is down — a fully dead fleet
// proves nothing.
func replicaChaosLoop(fleet *router.LocalFleet, prof *faults.Profile, seed uint64, n int, stop <-chan struct{}) {
	start := time.Now()
	period := prof.ReplicaFlapPeriodSec
	if period <= 0 {
		period = 60
	}
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		elapsed := time.Since(start).Seconds()
		epoch := uint64(elapsed / period)
		downCount := 0
		for i := 0; i < n; i++ {
			if !fleet.Running(i) {
				downCount++
			}
		}
		for i := 0; i < n; i++ {
			wantDown := prof.ReplicaFlapDown(seed, uint64(i), elapsed) ||
				prof.ReplicaCrashed(seed, uint64(i), epoch)
			running := fleet.Running(i)
			switch {
			case wantDown && running && downCount < n-1:
				if err := fleet.StopReplica(i); err == nil {
					downCount++
					log.Printf("chaos: crashed replica %d (t=%.0fs)", i, elapsed)
				}
			case !wantDown && !running:
				if err := fleet.StartReplica(i); err == nil {
					downCount--
					log.Printf("chaos: revived replica %d (t=%.0fs)", i, elapsed)
				}
			}
		}
	}
}
