package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"mrclone/internal/runner"
	"mrclone/internal/service"
	"mrclone/internal/service/spec"
)

// artifacts are the three renderings of one matrix result.
type artifacts struct {
	json, csv, agg []byte
}

func fromCached(c *service.CachedResult) artifacts {
	return artifacts{json: c.JSON, csv: c.CSV, agg: c.AggregateCSV}
}

func (a artifacts) format(f string) []byte {
	if f == "aggregate" {
		return a.agg
	}
	return a.json
}

func (a artifacts) equal(b artifacts) bool {
	return bytes.Equal(a.json, b.json) && bytes.Equal(a.csv, b.csv) && bytes.Equal(a.agg, b.agg)
}

// digest is the pinned identity of a matrix's artifacts: the SHA-256 of the
// three files' SHA-256 sums in the order JSON, per-cell CSV, aggregate CSV.
func (a artifacts) digest() string {
	h := sha256.New()
	for _, b := range [][]byte{a.json, a.csv, a.agg} {
		s := sha256.Sum256(b)
		h.Write(s[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sum(b []byte) [32]byte { return sha256.Sum256(b) }

func encode(res *runner.Result) (artifacts, error) {
	var j, c, a bytes.Buffer
	if err := res.WriteJSON(&j); err != nil {
		return artifacts{}, err
	}
	if err := res.WriteCSV(&c); err != nil {
		return artifacts{}, err
	}
	if err := res.WriteAggregateCSV(&a); err != nil {
		return artifacts{}, err
	}
	return artifacts{json: j.Bytes(), csv: c.Bytes(), agg: a.Bytes()}, nil
}

// decodeCells reads the cells of a JSON artifact.
func decodeCells(jsonArtifact []byte) ([]runner.CellResult, []string, error) {
	var doc struct {
		Schedulers []string            `json:"schedulers"`
		Cells      []runner.CellResult `json:"cells"`
	}
	if err := json.Unmarshal(jsonArtifact, &doc); err != nil {
		return nil, nil, err
	}
	return doc.Cells, doc.Schedulers, nil
}

// reference computes the expected artifacts of a spec with runner.Run at
// parallelism 1, independent of the service, its caches and its store.
// Cells it has already simulated for an earlier spec are reused through its
// own memo, keyed by cell content hash, so recombinations cost no new
// simulation; the memo only ever holds cells this type computed itself.
type reference struct {
	mu    sync.Mutex
	cells map[string]runner.CellPayload
}

func newReference() *reference { return &reference{cells: map[string]runner.CellPayload{}} }

// memo adapts the reference memo to runner.CellCache for one spec.
type memo struct {
	ref *reference
	h   *spec.CellHasher
}

func (m memo) Lookup(si, pi, run int) (runner.CellPayload, bool) {
	hash, err := m.h.Hash(si, pi, run)
	if err != nil {
		return runner.CellPayload{}, false
	}
	m.ref.mu.Lock()
	defer m.ref.mu.Unlock()
	p, ok := m.ref.cells[hash]
	return p, ok
}

func (m memo) Publish(si, pi, run int, p runner.CellPayload) {
	hash, err := m.h.Hash(si, pi, run)
	if err != nil {
		return
	}
	m.ref.mu.Lock()
	m.ref.cells[hash] = p
	m.ref.mu.Unlock()
}

func (r *reference) compute(body []byte) (artifacts, error) {
	sp, err := spec.Parse(body)
	if err != nil {
		return artifacts{}, err
	}
	rs, err := sp.Runner()
	if err != nil {
		return artifacts{}, err
	}
	h, err := sp.CellHasher()
	if err != nil {
		return artifacts{}, err
	}
	res, err := runner.Run(context.Background(), rs, runner.Options{
		Parallelism: 1,
		CellCache:   memo{ref: r, h: h},
	})
	if err != nil {
		return artifacts{}, err
	}
	return encode(res)
}

// distinct is one distinct spec a run delivered, with its expected bytes.
type distinct struct {
	hash string
	body []byte
	pin  string // pin key of the request that introduced it
	ref  artifacts
	err  error // reference failure
}

// distinctSpecs groups request bodies by spec hash, keeping the first
// appearance, and computes every reference on two goroutines (each at
// parallelism 1, matching the load cap of two processors).
func distinctSpecs(ref *reference, reqs []request) (map[string]*distinct, []*distinct, error) {
	byHash := map[string]*distinct{}
	var order []*distinct
	for _, q := range reqs {
		hash, err := spec.HashSubmission(q.body)
		if err != nil {
			return nil, nil, fmt.Errorf("benchmark produced an invalid spec: %w", err)
		}
		if _, ok := byHash[hash]; ok {
			continue
		}
		d := &distinct{hash: hash, body: q.body, pin: pinKey(q)}
		byHash[hash] = d
		order = append(order, d)
	}
	var wg sync.WaitGroup
	next := make(chan *distinct)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range next {
				d.ref, d.err = ref.compute(d.body)
			}
		}()
	}
	for _, d := range order {
		next <- d
	}
	close(next)
	wg.Wait()
	return byHash, order, nil
}

// checkPins compares each distinct spec's expected digest with the pinned one
// for the default seed. It returns the hashes that disagree and how many
// specs had a pin.
func checkPins(pins *workloadPins, order []*distinct) (map[string]bool, int) {
	bad := map[string]bool{}
	if pins == nil {
		return bad, 0
	}
	checked := 0
	for _, d := range order {
		want, ok := pins.Digests[d.pin]
		if !ok {
			continue
		}
		checked++
		if d.err == nil && want != d.ref.digest() {
			bad[d.hash] = true
		}
	}
	return bad, checked
}

// tally judges every outcome and returns the latencies of the correct ones.
// A request is correct when it succeeded, the service named its spec's hash,
// its bytes equal runner.Run's at parallelism 1 — all three renderings
// in-process, the fetched one over HTTP — and no whole-spec check (pin, warm
// resubmit, owner's in-process bytes) failed for its spec. Anything else
// counts once in failed.
func tally(rep *report, outs []outcome, byHash map[string]*distinct, bad map[string]bool) []sample {
	var samples []sample
	for _, o := range outs {
		d := byHash[mustHash(o.req.body)]
		ok := o.err == nil && d != nil && d.err == nil && o.got.hash == d.hash && !bad[d.hash]
		if ok && o.got.all != nil {
			ok = o.got.all.equal(d.ref)
		} else if ok {
			ok = o.got.digest == sum(d.ref.format(o.req.format))
		}
		samples = append(samples, sample{done: o.done, lat: ms(o.lat), ok: ok})
		if ok {
			continue
		}
		rep.failed++
		if rep.failed <= 20 {
			rep.notes = append(rep.notes, failNote(o, d))
		}
	}
	return samples
}

func failNote(o outcome, d *distinct) string {
	key := pinKey(o.req)
	switch {
	case o.err != nil:
		return fmt.Sprintf("request %s failed: %v", key, o.err)
	case d == nil || d.err != nil:
		return fmt.Sprintf("request %s: no reference for its spec", key)
	default:
		return fmt.Sprintf("request %s (%s): bytes differ from runner.Run at parallelism 1, "+
			"from the pin or between tiers", key, describe(o.req.body))
	}
}
