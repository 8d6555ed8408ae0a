package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// workloadPins are one workload's default-seed expectations: the artifact
// digest (artifacts.digest) of every spec the pinned prefix of the request
// sequence introduces, keyed "<client>/<index>" (client -1 is the warm
// corpus), and the per-scheduler copy counts of the traced run's cell
// replays.
type workloadPins struct {
	Requests int               `json:"requests"` // pinned requests per client
	Digests  map[string]string `json:"digests"`
	Copies   map[string]int64  `json:"copies"`
}

type pinFile struct {
	Seed      int64                    `json:"seed"`
	Workloads map[string]*workloadPins `json:"workloads"`
}

//go:embed pins.json
var pinsJSON []byte

func loadPins() (*pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	if p.Seed != DefaultSeed {
		return nil, fmt.Errorf("pins.json is for seed %d, want %d", p.Seed, DefaultSeed)
	}
	return &p, nil
}

// pinnedRequests is how much of each default-seed sequence is pinned: well
// past what one run completes at the time of pinning.
var pinnedRequests = map[string]int{
	"event-sweep":           224,
	"speculation-baselines": 160,
	"warm-gateway-mix":      20000,
}

// writePins recomputes every pinned digest and copy count with runner.Run
// at parallelism 1 and the cell replays, and writes them to path.
func writePins(path string) error {
	out := pinFile{Seed: DefaultSeed, Workloads: map[string]*workloadPins{}}
	for _, name := range workloadNames() {
		n := pinnedRequests[name]
		var reqs []request
		var clients [][]request // the warm clients' sequences
		var prefix int
		switch name {
		case "warm-gateway-mix":
			corpus, _ := warmCorpus(DefaultSeed)
			for i := range corpus {
				corpus[i].client = -1
			}
			reqs = append(reqs, corpus...)
			prefix = len(corpus)
			for c := range benchTokens {
				next := newWarmStream(DefaultSeed, c)
				var seq []request
				for i := 0; i < n; i++ {
					seq = append(seq, next())
				}
				reqs = append(reqs, seq...)
				clients = append(clients, seq)
			}
		default:
			w := coldWorkloads[name]
			next := w.stream(DefaultSeed)
			for i := 0; i < n; i++ {
				reqs = append(reqs, next())
			}
			prefix = w.minReqs
		}
		byHash, order, err := distinctSpecs(newReference(), reqs)
		if err != nil {
			return err
		}
		wp := &workloadPins{Requests: n, Digests: map[string]string{}}
		for _, d := range order {
			if d.err != nil {
				return fmt.Errorf("%s: %s: %w", name, d.pin, d.err)
			}
			wp.Digests[d.pin] = d.ref.digest()
		}
		// A run keys a spec by its first delivery, and how far each client
		// gets depends on timing, so a spec both clients introduce is pinned
		// under each client's first request for it.
		for _, seq := range clients {
			seen := map[string]bool{}
			for _, q := range seq {
				h := mustHash(q.body)
				if d := byHash[h]; d != nil && d.pin != pinKey(q) && !seen[h] && d.ref.json != nil &&
					!strings.HasPrefix(d.pin, "-1/") {
					wp.Digests[pinKey(q)] = d.ref.digest()
				}
				seen[h] = true
			}
		}
		r := &runCtx{opts: options{workload: name, seed: DefaultSeed}}
		rep := &report{layers: map[string]metric{}}
		if err := r.replayCells(rep, order[:prefix]); err != nil {
			return err
		}
		if len(rep.problems) > 0 {
			return fmt.Errorf("%s: %v", name, rep.problems)
		}
		wp.Copies = r.copies
		out.Workloads[name] = wp
		fmt.Fprintf(os.Stderr, "%s: %d digests\n", name, len(wp.Digests))
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
