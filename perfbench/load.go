package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/vecmath"
	"repro/internal/workload"
)

// query is one entry of a workload's query table.
type query struct {
	vec    []float32
	filter string // predicate expression ("" = unfiltered)
	class  int    // 0 unfiltered; 1.. filter band
	// want is the answer size: k, or for a filtered query the number of
	// matching vectors in its probed lists when that is smaller.
	want int
	// post marks a band above filter.PreThreshold: the planner
	// post-filters it.
	post bool
}

type opKind uint8

const (
	opSearch opKind = iota
	opUpsert
	opDelete
)

// op is one scheduled operation of an open-loop phase.
type op struct {
	due  time.Duration
	kind opKind
	q    int       // search: query table index
	id   int64     // write: target id
	vec  []float32 // upsert: the new vector
	own  bool      // upsert: follow the ack with an own-vector search
}

// phaseStats is what one phase measured.
type phaseStats struct {
	name     string
	wall     float64   // seconds
	searchMs []float64 // open-loop search latency from due time (+Inf = failed)
	writeMs  []float64 // write latency from due time (+Inf = failed)
	lateMs   []float64 // generator lateness: send minus due
	okCap    int64     // closed loop: searches answered inside the window
	capRates []float64 // closed loop: answers per second, one per slice
	capS     float64   // closed loop: window length, seconds
	counters counterDelta
}

// runner drives one deployment through the entry handler and checks
// every answer.
type runner struct {
	d       *deployment
	rec     *recorder
	queries []query
	k       int
	chk     *checker

	attempted atomic.Int64
	failed    atomic.Int64
	ownN      atomic.Int64 // own-vector searches
	ownRanked atomic.Int64 // of which missed the id because k others ranked closer
}

// call sends one request through the entry handler in memory: no
// socket, so in-flight requests are not capped by a connection count.
func (r *runner) call(path string, body any) (*httptest.ResponseRecorder, time.Time, time.Time) {
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // the generator's own types always marshal
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	w := httptest.NewRecorder()
	hs := time.Now()
	r.d.entry.ServeHTTP(w, req)
	return w, hs, time.Now()
}

// search sends query qi and checks the answer; it reports success.
func (r *runner) search(qi int, sent time.Time) bool {
	q := r.queries[qi]
	r.attempted.Add(1)
	w, hs, he := r.call("/search", serve.SearchRequest{Vector: q.vec, Filter: q.filter})
	var resp serve.SearchResponse
	ok := w.Code == http.StatusOK && json.Unmarshal(w.Body.Bytes(), &resp) == nil
	if ok {
		ok = r.chk.answer(qi, q, sent, resp.IDs, resp.Distances)
	}
	done := time.Now()
	if !ok {
		r.failed.Add(1)
	} else if r.rec.active() {
		r.rec.addReq(reqSpan{Key: vecKey(q.vec), Class: q.class, Send: r.rec.ns(sent),
			HStart: r.rec.ns(hs), HEnd: r.rec.ns(he), Done: r.rec.ns(done)})
	}
	return ok
}

// write applies one upsert or delete and records its acknowledgement
// for the checker.
func (r *runner) write(o op) bool {
	r.attempted.Add(1)
	var w *httptest.ResponseRecorder
	if o.kind == opUpsert {
		w, _, _ = r.call("/upsert", serve.WriteRequest{ID: o.id, Vector: o.vec})
	} else {
		w, _, _ = r.call("/delete", serve.WriteRequest{ID: o.id})
	}
	if w.Code != http.StatusOK {
		r.failed.Add(1)
		r.chk.fail("write id %d: status %d: %s", o.id, w.Code, w.Body.String())
		return false
	}
	r.chk.acked(o, time.Now())
	return true
}

// ownSearch checks read-your-write for an acknowledged upsert.
func (r *runner) ownSearch(o op) {
	r.attempted.Add(1)
	r.ownN.Add(1)
	sent := time.Now()
	w, _, _ := r.call("/search", serve.SearchRequest{Vector: o.vec})
	var resp serve.SearchResponse
	if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil {
		r.failed.Add(1)
		r.chk.fail("own-vector search for id %d: status %d", o.id, w.Code)
		return
	}
	if !r.chk.shape(resp.IDs, resp.Distances, sent, r.k, false) {
		r.failed.Add(1)
		return
	}
	for _, id := range resp.IDs {
		if id == o.id {
			return
		}
	}
	// The search ranks by approximate (ADC) distance, so the own entry
	// may rank below k others: its distance to the query is its own PQ
	// reconstruction error, large for a vector far from its centroid.
	// It must come back only when that distance is below the k-th
	// returned one, allowing 1% for the uint16 LUT's rounding and
	// saturation (ties go to the smaller, older id).
	self := r.selfDistance(o)
	if kth := resp.Distances[len(resp.Distances)-1]; self >= kth*0.99 {
		r.ownRanked.Add(1)
		return
	}
	r.failed.Add(1)
	r.chk.fail("upsert of id %d acknowledged but missing from its own-vector search: own ADC distance %.4f, answer distances %v",
		o.id, self, resp.Distances)
}

// selfDistance is the ADC distance between an upserted vector and its own
// stored code: the squared PQ reconstruction error of its residual. It
// uses the quantizers of the shard that owns the id.
func (r *runner) selfDistance(o op) float32 {
	sh := r.d.shards[0]
	if n := len(r.d.shards); n > 1 {
		sh = r.d.shards[cluster.Owner(o.id, n)]
	}
	ix := sh.ix
	code := make([]uint8, ix.PQ.M)
	cl := ix.EncodeVector(code, o.vec)
	resid := make([]float32, ix.Dim)
	ix.Coarse.Residual(resid, o.vec, cl)
	return vecmath.L2Squared(resid, ix.PQ.Decode(nil, code))
}

// openLoop runs a schedule of operations at their due times, each on its
// own goroutine, and times each from its due time.
func (r *runner) openLoop(ps *phaseStats, sched []op) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, o := range sched {
		if d := time.Until(t0.Add(o.due)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(o op) {
			defer wg.Done()
			due := t0.Add(o.due)
			sent := time.Now()
			late := float64(sent.Sub(due)) / 1e6
			var ok bool
			if o.kind == opSearch {
				ok = r.search(o.q, sent)
			} else {
				ok = r.write(o)
			}
			lat := float64(time.Since(due)) / 1e6
			if !ok {
				lat = math.Inf(1)
			}
			mu.Lock()
			ps.lateMs = append(ps.lateMs, late)
			if o.kind == opSearch {
				ps.searchMs = append(ps.searchMs, lat)
			} else {
				ps.writeMs = append(ps.writeMs, lat)
			}
			mu.Unlock()
			if ok && o.own {
				r.ownSearch(o)
			}
		}(o)
	}
	wg.Wait()
	ps.wall += time.Since(t0).Seconds()
}

// capRamp is how long a closed-loop slice runs before its window opens:
// the window fills and the batches reach their steady size first.
const capRamp = 200 * time.Millisecond

// capacity keeps window searches in flight for capRamp + dur (closed
// loop) and counts the answers that land in the last dur: one rate per
// call. next yields query indexes and must be safe for concurrent use.
func (r *runner) capacity(ps *phaseStats, window int, dur time.Duration, next func() int) {
	var ok atomic.Int64
	var wg sync.WaitGroup
	from := time.Now().Add(capRamp)
	end := from.Add(dur)
	for c := 0; c < window; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				good := r.search(next(), time.Now())
				if at := time.Now(); good && at.After(from) && at.Before(end) {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	ps.okCap += ok.Load()
	ps.capRates = append(ps.capRates, float64(ok.Load())/dur.Seconds())
	ps.capS += dur.Seconds()
}

// poissonSearches schedules n searches at rate qps, drawing query
// indexes from pick.
func poissonSearches(qps float64, dur time.Duration, seed uint64, pick func(i int) int) []op {
	n := int(qps * dur.Seconds())
	at := workload.PoissonArrivals(qps, n, seed)
	out := make([]op, 0, n)
	for i, t := range at {
		if t > dur {
			break
		}
		out = append(out, op{due: t, kind: opSearch, q: pick(i)})
	}
	return out
}

// mergeSchedules interleaves schedules by due time.
func mergeSchedules(ss ...[]op) []op {
	var out []op
	for _, s := range ss {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// percentile is the nearest-rank percentile of xs; failed operations
// sit at +Inf.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func describe(ps *phaseStats) string {
	s := fmt.Sprintf("phase %-9s wall %.2fs", ps.name, ps.wall+ps.capS)
	if n := len(ps.searchMs); n > 0 {
		s += fmt.Sprintf(" searches %d", n)
	}
	if n := len(ps.writeMs); n > 0 {
		s += fmt.Sprintf(" writes %d", n)
	}
	if ps.capS > 0 {
		s += fmt.Sprintf(" closed-loop %d ok in %.1fs", ps.okCap, ps.capS)
	}
	if len(ps.lateMs) > 0 {
		s += fmt.Sprintf(" gen-late p99 %.3fms", percentile(ps.lateMs, 99))
	}
	return s
}

// tailWindow is the number of consecutive samples each p99 of tailP99
// is taken over.
const tailWindow = 100

// tailP99 is the median, over consecutive windows of tailWindow samples
// of xs (in completion order), of each window's p99. A slow spell of the
// host raises the windows it lands in; unless it covers half of them,
// it does not move the median.
func tailP99(xs []float64) float64 {
	n := max(1, len(xs)/tailWindow)
	p := make([]float64, n)
	for c := range p {
		p[c] = percentile(xs[c*len(xs)/n:(c+1)*len(xs)/n], 99)
	}
	return median(p)
}

// median is the middle of xs, or the mean of the middle two.
func median(xs []float64) float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}
