package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// checker holds what the benchmark knows about the corpus and checks
// every answer against it:
//
//   - an answer has k results in ascending distance;
//   - no id whose delete was acknowledged before the request was sent
//     comes back;
//   - a filtered answer holds only ids whose tags match the filter;
//   - recall@k against exact ground truth the benchmark computes itself.
type checker struct {
	k       int
	matches func(class int, id int64) bool // nil = no filtered queries

	mu       sync.Mutex
	deleted  map[int64]time.Time // id -> delete ack time
	upserted map[int64][]float32 // id -> acknowledged vector
	truth    map[int][]int64     // query index -> exact top-k ids
	answers  map[int][][]int64   // query index -> answers seen while recording
	nViol    int
	firstErr []string

	recording atomic.Bool  // keep answers for recall (recall phase)
	short     atomic.Int64 // post-filtered answers shorter than k
}

func newChecker(k int) *checker {
	return &checker{
		k:        k,
		deleted:  map[int64]time.Time{},
		upserted: map[int64][]float32{},
		answers:  map[int][][]int64{},
	}
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nViol++
	if len(c.firstErr) < 10 {
		c.firstErr = append(c.firstErr, fmt.Sprintf(format, args...))
	}
}

// shape checks result count, order, and acknowledged deletes. A
// post-filtered answer (mayShort) may come back short: its fetch depth
// is k/selectivity x filter.PostInflation, which a locally sparse probe
// can underfill; short answers are counted and lower recall.
func (c *checker) shape(ids []int64, dists []float32, sent time.Time, want int, mayShort bool) bool {
	if len(ids) != len(dists) || len(ids) > want || (len(ids) < want && !mayShort) {
		c.fail("answer has %d ids / %d distances, want %d", len(ids), len(dists), want)
		return false
	}
	if len(ids) < want {
		c.short.Add(1)
	}
	for i := 1; i < len(dists); i++ {
		if dists[i] < dists[i-1] {
			c.fail("distances not ascending at rank %d: %v", i, dists)
			return false
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		if t, ok := c.deleted[id]; ok && t.Before(sent) {
			c.nViol++
			if len(c.firstErr) < 10 {
				c.firstErr = append(c.firstErr, fmt.Sprintf("id %d returned after its delete was acknowledged", id))
			}
			return false
		}
	}
	return true
}

// answer checks one search answer for query qi sent at sent.
func (c *checker) answer(qi int, q query, sent time.Time, ids []int64, dists []float32) bool {
	if !c.shape(ids, dists, sent, q.want, q.post) {
		return false
	}
	if q.class > 0 {
		for _, id := range ids {
			if !c.matches(q.class, id) {
				c.fail("filter %q answered id %d, whose tags do not match", q.filter, id)
				return false
			}
		}
	}
	if c.recording.Load() {
		c.mu.Lock()
		c.answers[qi] = append(c.answers[qi], ids)
		c.mu.Unlock()
	}
	return true
}

func (c *checker) isDeleted(id int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.deleted[id]
	return ok
}

// acked records an acknowledged write.
func (c *checker) acked(o op, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if o.kind == opDelete {
		c.deleted[o.id] = at
		delete(c.upserted, o.id)
		return
	}
	c.upserted[o.id] = o.vec
}

// liveCorpus is the corpus as the benchmark knows it after every write
// was acknowledged: base rows not deleted or overwritten, plus the
// acknowledged upserts. ids is parallel to the rows.
func (c *checker) liveCorpus(base *vecmath.Matrix) (*vecmath.Matrix, []int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ids []int64
	var rows [][]float32
	for i := 0; i < base.Rows; i++ {
		id := int64(i)
		if _, gone := c.deleted[id]; gone {
			continue
		}
		if _, over := c.upserted[id]; over {
			continue
		}
		ids = append(ids, id)
		rows = append(rows, base.Row(i))
	}
	for id, v := range c.upserted {
		ids = append(ids, id)
		rows = append(rows, v)
	}
	m := vecmath.NewMatrix(len(rows), base.Dim)
	for i, r := range rows {
		m.SetRow(i, r)
	}
	return m, ids
}

// groundTruth computes exact top-k ids of queries qis over corpus rows
// (with their ids), restricted to rows keep admits (nil = all).
func (c *checker) groundTruth(corpus *vecmath.Matrix, ids []int64, queries []query, qis []int, keep func(id int64) bool) {
	sub, subIDs := corpus, ids
	if keep != nil {
		var rows []int
		for i, id := range ids {
			if keep(id) {
				rows = append(rows, i)
			}
		}
		sub = vecmath.NewMatrix(len(rows), corpus.Dim)
		subIDs = make([]int64, len(rows))
		for j, i := range rows {
			sub.SetRow(j, corpus.Row(i))
			subIDs[j] = ids[i]
		}
	}
	qm := vecmath.NewMatrix(len(qis), corpus.Dim)
	for j, qi := range qis {
		qm.SetRow(j, queries[qi].vec)
	}
	gt := dataset.GroundTruth(sub, qm, c.k)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.truth == nil {
		c.truth = map[int][]int64{}
	}
	for j, qi := range qis {
		t := make([]int64, len(gt[j]))
		for i, cand := range gt[j] {
			t[i] = subIDs[cand.ID]
		}
		c.truth[qi] = t
	}
}

// recall returns mean recall@k over every recorded answer that has
// ground truth, overall and per query class, with the answer counts.
func (c *checker) recall(queries []query) (all float64, n int, byClass map[int]float64, nClass map[int]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	byClass, nClass = map[int]float64{}, map[int]int{}
	sum := 0.0
	for qi, t := range c.truth {
		set := make(map[int64]bool, len(t))
		for _, id := range t {
			set[id] = true
		}
		for _, ans := range c.answers[qi] {
			hit := 0
			for _, id := range ans {
				if set[id] {
					hit++
				}
			}
			r := float64(hit) / float64(len(t))
			sum += r
			n++
			byClass[queries[qi].class] += r
			nClass[queries[qi].class]++
		}
	}
	for cl := range byClass {
		byClass[cl] /= float64(nClass[cl])
	}
	if n == 0 {
		return 0, 0, byClass, nClass
	}
	return sum / float64(n), n, byClass, nClass
}

func (c *checker) report() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.firstErr {
		fmt.Fprintln(os.Stderr, "VIOLATION:", e)
	}
	if c.nViol > len(c.firstErr) {
		fmt.Fprintf(os.Stderr, "... %d violations in total\n", c.nViol)
	}
}
