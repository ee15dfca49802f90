package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/filter"
	"repro/internal/ivfpq"
	"repro/internal/mutable"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tier"
	"repro/internal/vecmath"
	"repro/internal/workload"
)

// cmd/upanns-serve and cmd/upanns-router keep their wiring in package
// main, which cannot be imported, so the deployment below replicates
// their buildBackend and flag defaults. Keep these constants in step
// with the flag defaults there; a workload that departs from one says so
// in BENCHMARK.json and in deployOpts.
const (
	defN        = 50000 // -n
	defNList    = 64    // -ivf
	defNProbe   = 8     // -nprobe
	defK        = 10    // -k
	defDPUs     = 64    // -dpus
	defTrainSub = 16384 // buildBackend's ivfpq.Params.TrainSub
	defSeed     = 1     // -seed: the corpus and training; the workload seed varies the traffic

	defMaxBatch = 32                     // -max-batch
	defLinger   = 200 * time.Microsecond // -linger
	defQueue    = 1024                   // -queue
	defTimeout  = time.Second            // -timeout
	defCache    = 4096                   // -cache

	defTraceSlow  = 50 * time.Millisecond // -trace-slow (-trace-sample 1)
	defSLOAvail   = 0.999                 // -slo-availability
	defSLOLatency = 0.99                  // -slo-latency
	defSLOLatThr  = 50 * time.Millisecond // -slo-latency-threshold
	defCostTop    = 32                    // -cost-top

	defWriteBatch   = 64                    // -write-batch
	defWriteLinger  = time.Millisecond      // -write-linger
	defCompactEvery = 25 * time.Millisecond // -compact-interval

	defTierPrefetch  = 2           // -tier-prefetch
	defTierRebalance = time.Second // -tier-rebalance
)

// deployOpts are the per-workload departures from the defaults above.
type deployOpts struct {
	seed uint64
	// schema and attrs tag the base at boot (nil = unfiltered
	// deployment); attrs is parallel to the shard's ids.
	schema *filter.Schema
	attrs  func(id int64) filter.Attrs
	// tierDir, when set, serves the epoch base out of core from image
	// files in this directory, with the hot budget at tierHotFrac of the
	// epoch image (the flag default, 64 MiB, would pin everything).
	tierDir     string
	tierHotFrac float64
	shardID     string
	// rec, when set, installs the benchmark's span-recording wrappers.
	rec *recorder
}

// shardStack is one upanns-serve process: the updatable index, the
// micro-batching server, the write batcher and the HTTP handler.
type shardStack struct {
	id      string
	u       *mutable.UpdatableIndex
	srv     *serve.Server
	writer  *serve.WriteBatcher
	handler *serve.Handler
	// ix (its quantizers, shared by every epoch) and clusterOf (base id ->
	// IVF list at boot) let the checker reason about answers.
	ix        *ivfpq.Index
	clusterOf []int32
}

func (s *shardStack) close() {
	s.srv.Close()
	s.writer.Close()
	s.u.Close()
}

// deployShard trains and deploys one shard over base rows carrying the
// given global ids, the way buildBackend does for a single host.
func deployShard(base *vecmath.Matrix, ids []int64, o deployOpts) (*shardStack, error) {
	ix := ivfpq.Train(base, ivfpq.Params{NList: defNList, M: base.Dim / 8, Seed: o.seed, TrainSub: defTrainSub})
	ix.AddWithIDs(base, ids)
	var maxID int64
	for _, id := range ids {
		maxID = max(maxID, id)
	}
	clusterOf := make([]int32, maxID+1)
	for c, l := range ix.Lists {
		for _, id := range l.IDs {
			clusterOf[id] = int32(c)
		}
	}
	// buildBackend bootstraps placement frequencies from a self-sample of
	// the base set.
	ns := min(512, base.Rows)
	sample := vecmath.WrapMatrix(base.Data[:ns*base.Dim], ns, base.Dim)
	freqs := workload.ClusterFrequencies(ix.Coarse, sample, defNProbe)

	mcfg := mutable.ServingConfig(defNProbe, defK, defDPUs, o.seed)
	mcfg.CheckInterval = defCompactEvery
	mcfg.Schema = o.schema
	if o.tierDir != "" {
		n, err := ix.WriteImage(io.Discard)
		if err != nil {
			return nil, fmt.Errorf("sizing epoch image: %w", err)
		}
		hotB := int64(float64(n) * o.tierHotFrac)
		logf("tier: hot budget %d of %d epoch image bytes", hotB, n)
		mcfg.Tier = &mutable.TierConfig{
			Dir: o.tierDir,
			Store: tier.Config{
				ShardID:         o.shardID,
				HotBytes:        hotB,
				PrefetchWorkers: defTierPrefetch,
				RebalanceEvery:  defTierRebalance,
			},
		}
	}
	u, err := mutable.New(ix, freqs, mcfg)
	if err != nil {
		return nil, err
	}
	if o.schema != nil {
		attrs := make([]filter.Attrs, len(ids))
		for i, id := range ids {
			attrs[i] = o.attrs(id)
		}
		if err := u.LoadAttrs(ids, attrs); err != nil {
			u.Close()
			return nil, err
		}
	}

	costs := obs.NewCostTracker(defCostTop)
	slo := obs.NewSLOTracker(obs.SLOConfig{
		Name:               o.shardID,
		AvailabilityTarget: defSLOAvail,
		LatencyTarget:      defSLOLatency,
		LatencyThreshold:   defSLOLatThr,
	})
	var backend serve.Backend = u
	var wbackend serve.WriteBackend = u
	if o.rec != nil {
		backend = &tracedBackend{u: u, rec: o.rec, shard: o.shardID}
		wbackend = &tracedWriter{u: u, rec: o.rec}
	}
	srv, err := serve.NewServer(serve.Config{
		K:              defK,
		MaxBatch:       defMaxBatch,
		MaxLinger:      defLinger,
		QueueDepth:     defQueue,
		DefaultTimeout: defTimeout,
		CacheSize:      defCache,
		Costs:          costs,
	}, backend)
	if err != nil {
		u.Close()
		return nil, err
	}
	writer := serve.NewWriteBatcher(serve.WriteConfig{
		MaxBatch:       defWriteBatch,
		MaxLinger:      defWriteLinger,
		DefaultTimeout: defTimeout,
		OnApplied:      srv.InvalidateCache,
	}, wbackend)
	hcfg := serve.HandlerConfig{
		ShardID:    o.shardID,
		Writer:     writer,
		Costs:      costs,
		SLO:        slo,
		IndexStats: func() any { return u.Stats() },
		Metrics:    u.WriteMetrics,
		Tracer:     obs.NewTracer(obs.TracerConfig{SampleEvery: 1, SlowThreshold: defTraceSlow}),
	}
	if o.schema != nil {
		hcfg.FilterStats = u.FilterStats
	}
	return &shardStack{
		id: o.shardID, u: u, srv: srv, writer: writer,
		handler: serve.NewHandler(srv, hcfg),
		ix:      ix, clusterOf: clusterOf,
	}, nil
}

// deployment is what the generator drives: one entry handler (a shard
// handler, or the router's) over one or more shard stacks.
type deployment struct {
	entry  http.Handler
	shards []*shardStack
	router *cluster.Router
	hs     []*httptest.Server
}

func (d *deployment) close() {
	if d.router != nil {
		d.router.Close()
	}
	for _, s := range d.hs {
		s.Close()
	}
	for _, s := range d.shards {
		s.close()
	}
}

// deploySingle is a single-host upanns-serve over base with ids 0..n-1.
func deploySingle(base *vecmath.Matrix, o deployOpts) (*deployment, error) {
	ids := make([]int64, base.Rows)
	for i := range ids {
		ids[i] = int64(i)
	}
	s, err := deployShard(base, ids, o)
	if err != nil {
		return nil, err
	}
	return &deployment{entry: s.handler, shards: []*shardStack{s}}, nil
}

// deployFanout splits base over n shards by cluster.Owner (so the
// router's ownership filter and write routing hold), serves each shard
// on a loopback listener, and fronts them with a router at
// upanns-router's defaults.
func deployFanout(base *vecmath.Matrix, n int, o deployOpts) (*deployment, error) {
	d := &deployment{shards: make([]*shardStack, n)}
	errs := make([]error, n)
	// Shard processes boot side by side, so their set-up overlaps.
	var wg sync.WaitGroup
	for sh := 0; sh < n; sh++ {
		var ids []int64
		var rows []int
		for i := 0; i < base.Rows; i++ {
			if cluster.Owner(int64(i), n) == sh {
				ids = append(ids, int64(i))
				rows = append(rows, i)
			}
		}
		part := vecmath.NewMatrix(len(rows), base.Dim)
		for ri, row := range rows {
			part.SetRow(ri, base.Row(row))
		}
		so := o
		so.shardID = fmt.Sprintf("s%d", sh)
		so.seed = o.seed + uint64(sh)
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			d.shards[sh], errs[sh] = deployShard(part, ids, so)
		}(sh)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, s := range d.shards {
			if s != nil {
				s.close()
			}
		}
		return nil, err
	}
	for _, s := range d.shards {
		var h http.Handler = s.handler
		if o.rec != nil {
			h = &shardMiddleware{next: h, rec: o.rec, shard: s.id}
		}
		d.hs = append(d.hs, httptest.NewServer(h))
	}
	urls := make([]string, n)
	for i, s := range d.hs {
		urls[i] = s.URL
	}
	r, err := cluster.New(urls, cluster.Config{
		K:      defK,
		Tracer: obs.NewTracer(obs.TracerConfig{SampleEvery: 1, SlowThreshold: defTraceSlow}),
		SLO: obs.NewSLOTracker(obs.SLOConfig{
			Name:               "router",
			AvailabilityTarget: defSLOAvail,
			IntegrityTarget:    0.99,
			LatencyTarget:      defSLOLatency,
			LatencyThreshold:   defSLOLatThr,
		}),
	})
	if err != nil {
		d.close()
		return nil, err
	}
	d.router = r
	d.entry = cluster.NewHandler(r)
	return d, nil
}
