package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/mutable"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// The benchmark's own tracing: spans recorded around the calls into each
// layer from wrappers in this package (the program's internal tracer is
// left at its shipped default and not read). Spans are kept in memory and
// written out when the run ends.

// vecKey identifies a query vector across layers: the batch wrapper sees
// the rows the server copied from the request, and JSON round-trips
// float32 exactly, so equal vectors hash equal everywhere.
func vecKey(v []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

type stageSpan struct {
	Name       string
	Start, End int64
}

// batchSpan is one backend dispatch, linked to its requests by the
// query rows it carried.
type batchSpan struct {
	Shard      string
	Start, End int64
	Rows       []uint64
	Stages     []stageSpan
}

// shardSpan is one shard handler call behind the router.
type shardSpan struct {
	Shard      string
	Key        uint64
	Start, End int64
}

// writeSpan is one write-backend application.
type writeSpan struct {
	Op         string
	N          int
	Start, End int64
}

// reqSpan is one generator search request: send to done, with the entry
// handler's ServeHTTP inside it.
type reqSpan struct {
	Key                uint64
	Class              int
	Send, HStart, HEnd int64
	Done               int64
}

// recorder holds every span of a traced run. Times are nanoseconds since
// the recorder's epoch.
type recorder struct {
	epoch time.Time
	on    atomic.Bool

	// openWins are the open-loop slices, [start, end] each; their
	// batches give the dispatch-time metrics.
	openWins [][2]int64

	mu      sync.Mutex
	batches []batchSpan
	shards  []shardSpan
	writes  []writeSpan
	reqs    []reqSpan
}

// spanMark is the number of spans of each kind at one moment.
type spanMark struct{ batches, shards, writes, reqs int }

func (r *recorder) mark() spanMark {
	r.mu.Lock()
	defer r.mu.Unlock()
	return spanMark{len(r.batches), len(r.shards), len(r.writes), len(r.reqs)}
}

// truncate drops every span recorded since m.
func (r *recorder) truncate(m spanMark) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.batches, r.shards = r.batches[:m.batches], r.shards[:m.shards]
	r.writes, r.reqs = r.writes[:m.writes], r.reqs[:m.reqs]
}

// beginOpen and endOpen bracket one open-loop slice.
func (r *recorder) beginOpen() int64 { return r.ns(time.Now()) }

func (r *recorder) endOpen(start int64) {
	r.on.Store(false)
	r.openWins = append(r.openWins, [2]int64{start, r.ns(time.Now())})
}

// openSeconds is the length of the open-loop slices together.
func (r *recorder) openSeconds() float64 {
	t := int64(0)
	for _, w := range r.openWins {
		t += w[1] - w[0]
	}
	return float64(t) / 1e9
}

// openBatches returns the dispatches of the open-loop slices.
func (r *recorder) openBatches() []batchSpan {
	var out []batchSpan
	for _, b := range r.batches {
		for _, w := range r.openWins {
			if b.Start >= w[0] && b.End <= w[1] {
				out = append(out, b)
				break
			}
		}
	}
	return out
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.on.Store(true)
	return r
}

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// active reports whether spans are being recorded; nil-safe so untraced
// runs pass a nil recorder everywhere.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

func (r *recorder) addReq(s reqSpan) {
	r.mu.Lock()
	r.reqs = append(r.reqs, s)
	r.mu.Unlock()
}

// tracedBackend times every dispatch into the updatable index and keeps
// the stage records the index already emits.
type tracedBackend struct {
	u     *mutable.UpdatableIndex
	rec   *recorder
	shard string
}

func (b *tracedBackend) Dim() int { return b.u.Dim() }

func (b *tracedBackend) Search(q *vecmath.Matrix, o mutable.SearchOpts) ([][]topk.Candidate, error) {
	if !b.rec.active() {
		return b.u.Search(q, o)
	}
	if o.Stages == nil {
		o.Stages = &obs.StageLog{}
	}
	n0 := len(o.Stages.Records())
	start := time.Now()
	res, err := b.u.Search(q, o)
	end := time.Now()
	sp := batchSpan{Shard: b.shard, Start: b.rec.ns(start), End: b.rec.ns(end), Rows: make([]uint64, q.Rows)}
	for i := range sp.Rows {
		sp.Rows[i] = vecKey(q.Row(i))
	}
	for _, s := range o.Stages.Records()[n0:] {
		sp.Stages = append(sp.Stages, stageSpan{Name: s.Name, Start: b.rec.ns(s.Start), End: b.rec.ns(s.Start.Add(s.Dur))})
	}
	b.rec.mu.Lock()
	b.rec.batches = append(b.rec.batches, sp)
	b.rec.mu.Unlock()
	return res, err
}

// tracedWriter times every write-batch application. It forwards the
// tagged-upsert surface so the write batcher sees the same capabilities
// as on the bare index.
type tracedWriter struct {
	u   *mutable.UpdatableIndex
	rec *recorder
}

func (w *tracedWriter) Dim() int                   { return w.u.Dim() }
func (w *tracedWriter) AttrSchema() *filter.Schema { return w.u.AttrSchema() }

func (w *tracedWriter) timed(op string, n int, f func() error) error {
	if !w.rec.active() {
		return f()
	}
	start := time.Now()
	err := f()
	end := time.Now()
	w.rec.mu.Lock()
	w.rec.writes = append(w.rec.writes, writeSpan{Op: op, N: n, Start: w.rec.ns(start), End: w.rec.ns(end)})
	w.rec.mu.Unlock()
	return err
}

func (w *tracedWriter) Upsert(ids []int64, vecs *vecmath.Matrix) error {
	return w.timed("upsert", len(ids), func() error { return w.u.Upsert(ids, vecs) })
}

func (w *tracedWriter) UpsertWithAttrs(ids []int64, vecs *vecmath.Matrix, attrs []filter.Attrs) error {
	return w.timed("upsert", len(ids), func() error { return w.u.UpsertWithAttrs(ids, vecs, attrs) })
}

func (w *tracedWriter) Remove(ids []int64) error {
	return w.timed("delete", len(ids), func() error { return w.u.Remove(ids) })
}

// shardMiddleware times each /search a router sends to one shard.
type shardMiddleware struct {
	next  http.Handler
	rec   *recorder
	shard string
}

func (m *shardMiddleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/search" || !m.rec.active() {
		m.next.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req serve.SearchRequest
	_ = json.Unmarshal(body, &req) // a bad body is the handler's to reject
	r.Body = io.NopCloser(bytes.NewReader(body))
	// The body read and key hash above are tracing cost, not shard
	// work: the span starts after them.
	hStart := time.Now()
	m.next.ServeHTTP(w, r)
	end := time.Now()
	m.rec.mu.Lock()
	m.rec.shards = append(m.rec.shards, shardSpan{Shard: m.shard, Key: vecKey(req.Vector), Start: m.rec.ns(hStart), End: m.rec.ns(end)})
	m.rec.mu.Unlock()
}

// breakdown is the per-request attribution of wall time to layers,
// summed over attributed requests.
type breakdown struct {
	n        int
	wall     float64            // request wall time (send to done), ms
	parts    map[string]float64 // layer self times, ms
	waits    []float64          // serve.wait per request that rode a batch, ms
	shardMs  []float64          // slowest shard span per fanout request, ms
	unlinked int                // requests answered without a backend batch (cache hits)
}

// stageLayer maps the index's stage names onto the reported layers.
var stageLayer = map[string]string{
	"mutable.probe":      "mutable.probe_ms",
	"mutable.engine":     "mutable.engine_ms",
	"mutable.epoch_wait": "mutable.epoch_wait_ms",
	"mutable.overlay":    "mutable.overlay_ms",
	"mutable.merge":      "mutable.merge_ms",
	"mutable.base":       "mutable.base_ms",
	"filter.plan":        "filter.plan_ms",
}

// layerParts lists every attributed component; together they add up to
// the request wall time.
var layerParts = []string{
	"bench.gen_self_ms", "cluster.fanout_self_ms", "serve.handler_self_ms", "serve.wait_ms",
	"mutable.probe_ms", "mutable.engine_ms", "mutable.epoch_wait_ms", "mutable.overlay_ms",
	"mutable.merge_ms", "mutable.base_ms", "filter.plan_ms", "bench.unattributed_ms",
}

// attribute links every recorded request to the shard calls and batches
// that served it and splits its wall time into layer self times:
//
//	wall = gen self + router self + handler self + queue wait
//	       + Σ stage records + unattributed batch time
//
// where "router self" is the router span minus the slowest shard span it
// waited on, and "unattributed" is batch time no stage record covers.
func (r *recorder) attribute() breakdown {
	bd := breakdown{parts: map[string]float64{}}
	byKey := map[string]map[uint64][]int{} // shard -> row key -> batch indexes (start order)
	sort.Slice(r.batches, func(i, j int) bool { return r.batches[i].Start < r.batches[j].Start })
	for i, b := range r.batches {
		m := byKey[b.Shard]
		if m == nil {
			m = map[uint64][]int{}
			byKey[b.Shard] = m
		}
		for _, k := range b.Rows {
			if l := m[k]; len(l) == 0 || l[len(l)-1] != i {
				m[k] = append(l, i)
			}
		}
	}
	shardByKey := map[uint64][]int{}
	for i, s := range r.shards {
		shardByKey[s.Key] = append(shardByKey[s.Key], i)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	// serveSide attributes one shard-handler interval [hs, he] on shard.
	serveSide := func(shard string, key uint64, hs, he int64) {
		for _, bi := range byKey[shard][key] {
			b := r.batches[bi]
			if b.Start < hs || b.End > he {
				continue
			}
			wait := b.Start - hs
			bd.waits = append(bd.waits, ms(wait))
			bd.parts["serve.wait_ms"] += ms(wait)
			bd.parts["serve.handler_self_ms"] += ms(he - hs - (b.End - b.Start) - wait)
			covered := int64(0)
			for _, s := range b.Stages {
				if layer, ok := stageLayer[s.Name]; ok {
					bd.parts[layer] += ms(s.End - s.Start)
					covered += s.End - s.Start
				}
			}
			bd.parts["bench.unattributed_ms"] += ms(b.End - b.Start - covered)
			return
		}
		bd.unlinked++
		bd.parts["serve.handler_self_ms"] += ms(he - hs)
	}

	for _, q := range r.reqs {
		bd.n++
		bd.wall += ms(q.Done - q.Send)
		bd.parts["bench.gen_self_ms"] += ms(q.Done - q.Send - (q.HEnd - q.HStart))
		if len(r.shards) == 0 {
			serveSide("", q.Key, q.HStart, q.HEnd) // a single shard has no id
			continue
		}
		// Fanout: per shard the first answer the router took, then the
		// slowest of those.
		win := map[string]shardSpan{}
		for _, si := range shardByKey[q.Key] {
			s := r.shards[si]
			if s.Start < q.HStart || s.End > q.HEnd {
				continue
			}
			if w, ok := win[s.Shard]; !ok || s.End < w.End {
				win[s.Shard] = s
			}
		}
		var slow shardSpan
		found := false
		for _, s := range win {
			if !found || s.End > slow.End {
				slow, found = s, true
			}
		}
		if !found {
			bd.unlinked++
			bd.parts["cluster.fanout_self_ms"] += ms(q.HEnd - q.HStart)
			continue
		}
		bd.shardMs = append(bd.shardMs, ms(slow.End-slow.Start))
		bd.parts["cluster.fanout_self_ms"] += ms(q.HEnd - q.HStart - (slow.End - slow.Start))
		serveSide(slow.Shard, q.Key, slow.Start, slow.End)
	}
	return bd
}

// dump writes every span as JSON to path.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{
		"epoch":    r.epoch,
		"requests": r.reqs,
		"batches":  r.batches,
		"shards":   r.shards,
		"writes":   r.writes,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
