package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"

	"tapas"
	"tapas/internal/cluster"
	"tapas/internal/sim"
	"tapas/service"
)

// wireResponse is the part of a v1 SearchResponse the checks read.
type wireResponse struct {
	CostSeconds float64 `json:"cost_seconds"`
	CacheHit    bool    `json:"cache_hit"`
	StoreHit    bool    `json:"store_hit"`
	Report      struct {
		IterationSeconds float64 `json:"iteration_seconds"`
	} `json:"report"`
	Plan    json.RawMessage `json:"plan"`
	Devices struct {
		MemBytesPerDevice int64 `json:"mem_bytes_per_device"`
		Collectives       int   `json:"collectives"`
	} `json:"devices"`
}

// timingKey opens the one block of a response that legitimately differs
// between two answers to the same request: the cold computation's
// timings. It is flat, so its first closing brace ends it.
var timingKey = []byte(`"timing": {`)

// splitTiming returns the response around its timing block.
func splitTiming(b []byte) (head, tail []byte) {
	i := bytes.Index(b, timingKey)
	if i < 0 {
		return b, nil
	}
	j := bytes.IndexByte(b[i:], '}')
	if j < 0 {
		return b, nil
	}
	return b[:i], b[i+j:]
}

// sameAnswer reports whether two responses are byte-identical outside
// their timing blocks.
func sameAnswer(a, b []byte) bool {
	ah, at := splitTiming(a)
	bh, bt := splitTiming(b)
	return bytes.Equal(ah, bh) && bytes.Equal(at, bt)
}

// answers holds, per request, the first response seen in a phase (the
// one the deep checks examine) and counts the cheap-check outcomes of
// every response. Safe for concurrent clients.
type answers struct {
	first []atomic.Pointer[[]byte]
	seen  []atomic.Int64
	// badStatus counts non-200 answers; cheapFailed counts 200 answers
	// whose bytes differ from the first outside the timing block;
	// unshipped counts scatter answers that shipped no task to the
	// executor or had a task batch fail over.
	badStatus   []atomic.Int64
	cheapFailed []atomic.Int64
	unshipped   []atomic.Int64
	// failedAny counts answers failing at least one of the above.
	failedAny []atomic.Int64
	// remote sums the prefix tasks the answers shipped (scatter only).
	remote []atomic.Int64
}

func newAnswers() *answers {
	n := len(requests)
	return &answers{
		first:       make([]atomic.Pointer[[]byte], n),
		seen:        make([]atomic.Int64, n),
		badStatus:   make([]atomic.Int64, n),
		cheapFailed: make([]atomic.Int64, n),
		unshipped:   make([]atomic.Int64, n),
		failedAny:   make([]atomic.Int64, n),
		remote:      make([]atomic.Int64, n),
	}
}

// check runs the cheap checks on one response to request i. shipped is
// the coordinator's counters' movement over the request on scatter,
// nil elsewhere.
func (a *answers) check(i, status int, body []byte, shipped *fleetCounts) {
	a.seen[i].Add(1)
	failed := false
	if shipped != nil {
		a.remote[i].Add(int64(shipped.remote))
		if shipped.remote == 0 || shipped.failover > 0 {
			a.unshipped[i].Add(1)
			failed = true
		}
	}
	switch {
	case status != http.StatusOK:
		a.badStatus[i].Add(1)
		failed = true
	case !a.sameAsFirst(i, body):
		a.cheapFailed[i].Add(1)
		failed = true
	}
	if failed {
		a.failedAny[i].Add(1)
	}
}

// sameAsFirst keeps body as request i's first answer if there is none
// yet, and reports whether body matches the first answer.
func (a *answers) sameAsFirst(i int, body []byte) bool {
	if ref := a.first[i].Load(); ref != nil {
		return sameAnswer(*ref, body)
	}
	cp := append([]byte(nil), body...)
	return a.first[i].CompareAndSwap(nil, &cp) || sameAnswer(*a.first[i].Load(), body)
}

// reference is what a request's answer must agree with, computed in
// process apart from the serving stack.
type reference struct {
	// res is the Result of a WithWorkers(1) search and plan its compact
	// PlanJSON.
	res  *tapas.Result
	plan []byte
	// anyBaselineFits: an ffn-only, megatron or dp plan fits device
	// memory, so the searched plan must fit too.
	anyBaselineFits bool
	megatronFits    bool
	megatronIter    float64
	memLimit        int64
}

// references computes every request's reference. The searches run
// serially, with the result cache off.
func references(ctx context.Context) ([]reference, error) {
	serial := tapas.NewEngine(tapas.WithWorkers(1), tapas.WithCache(0))
	base := tapas.NewEngine(tapas.WithCache(0))
	out := make([]reference, len(requests))
	for i, r := range requests {
		res, err := serial.Search(ctx, r.Model, r.GPUs)
		if err != nil {
			return nil, fmt.Errorf("%s: reference search: %w", r, err)
		}
		out[i].res = res
		plan, err := service.NewPlan(res.Strategy)
		if err != nil {
			return nil, err
		}
		if out[i].plan, err = compactJSON(plan); err != nil {
			return nil, err
		}
		out[i].memLimit = cluster.V100GPUs(r.GPUs).MemoryPerGP
		for _, b := range []string{"ffn-only", "megatron", "dp"} {
			br, err := base.Baseline(ctx, b, r.Model, r.GPUs)
			if err != nil {
				return nil, fmt.Errorf("%s: %s baseline: %w", r, b, err)
			}
			fits := br.Strategy.MemPerDev <= out[i].memLimit
			out[i].anyBaselineFits = out[i].anyBaselineFits || fits
			if b == "megatron" {
				out[i].megatronFits = fits
				out[i].megatronIter = br.Report.IterationTime
			}
		}
	}
	return out, nil
}

func compactJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	err = json.Compact(&out, b)
	return out.Bytes(), err
}

// pathCheck names the flags a workload's answers must carry.
func pathCheck(w workload, resp *wireResponse) error {
	switch {
	case w.cache > 0 && !resp.CacheHit:
		return fmt.Errorf("cache_hit is false")
	case w.cache == 0 && resp.CacheHit:
		return fmt.Errorf("cache_hit is true with the cache off")
	case w.store && !resp.StoreHit:
		return fmt.Errorf("store_hit is false")
	case !w.store && resp.StoreHit:
		return fmt.Errorf("store_hit is true with no store")
	}
	return nil
}

// deepCheck runs the checks against computations made apart from the
// search on request i's answer body, and returns the failed checks by
// name with their reasons, and the answer's simulated iteration time.
func deepCheck(w workload, i int, body []byte, ref reference) (map[string]string, float64, error) {
	r := requests[i]
	fails := map[string]string{}
	var resp wireResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, 0, fmt.Errorf("%s: decoding the answer: %w", r, err)
	}
	if mem := resp.Devices.MemBytesPerDevice; ref.anyBaselineFits && mem > ref.memLimit {
		fails["memory_fit"] = fmt.Sprintf("plan needs %.1f GiB per device, the limit is %.1f GiB and a baseline plan fits",
			float64(mem)/(1<<30), float64(ref.memLimit)/(1<<30))
	}
	if ref.megatronFits && resp.Report.IterationSeconds > ref.megatronIter {
		fails["megatron_bound"] = fmt.Sprintf("iteration %.6g s is slower than megatron's %.6g s", resp.Report.IterationSeconds, ref.megatronIter)
	}
	if msg := reproduce(r, &resp); msg != "" {
		fails["wire_reproduces"] = msg
	}
	var plan bytes.Buffer
	if err := json.Compact(&plan, resp.Plan); err != nil || !bytes.Equal(plan.Bytes(), ref.plan) {
		fails["bit_identical"] = "plan differs from the in-process WithWorkers(1) search"
	}
	if err := pathCheck(w, &resp); err != nil {
		fails["path_flags"] = err.Error()
	}
	return fails, resp.Report.IterationSeconds, nil
}

// reproduce re-hydrates the wire plan against a freshly built graph,
// re-prices it under cost.Default and re-simulates it; the figures must
// equal the reported ones.
func reproduce(r request, resp *wireResponse) string {
	plan, err := service.ReadPlan(bytes.NewReader(resp.Plan))
	if err != nil {
		return "plan does not parse: " + err.Error()
	}
	g, err := tapas.BuildModel(r.Model)
	if err != nil {
		return err.Error()
	}
	s, err := service.RehydratePlan(plan, g)
	if err != nil {
		return "plan does not rehydrate: " + err.Error()
	}
	if c := s.Cost.Total(); c != resp.CostSeconds {
		return fmt.Sprintf("re-priced cost %.17g s, reported %.17g s", c, resp.CostSeconds)
	}
	if it := sim.Run(s, sim.DefaultConfig(cluster.V100GPUs(r.GPUs))).IterationTime; it != resp.Report.IterationSeconds {
		return fmt.Sprintf("re-simulated iteration %.17g s, reported %.17g s", it, resp.Report.IterationSeconds)
	}
	return ""
}

// planIterExcluded is left out of plan_iter_ms by name, whatever its
// checks say: its plan does not fit device memory (the known fault), so
// its iteration time means nothing, and a fix of that fault must not
// move the metric.
var planIterExcluded = request{"t5-770M", 32}

// verdict is the outcome of checking one phase's answers.
type verdict struct {
	attempted int
	failed    int
	// unexpected is set when a check failed that knownFaults does not
	// name: the run is then not correct.
	unexpected bool
	// failures counts failed responses by "request/check".
	failures map[string]int
	reasons  map[string]string
	// notes are lines for the run record.
	notes []string
	// iterMS are the simulated iteration times of every request but
	// planIterExcluded and those failing memory_fit.
	iterMS []float64
}

// fail charges count responses to request r's failing check.
func (v *verdict) fail(r request, check, reason string, count int) {
	key := r.String() + "/" + check
	v.failures[key] += count
	v.reasons[key] = reason
	if _, known := knownFaults[key]; !known {
		v.unexpected = true
	}
}

// judge deep-checks the first answer of every request and charges each
// failing deep check to all of that request's responses, and each
// failing cheap check to the responses that failed it.
func judge(w workload, a *answers, refs []reference) (*verdict, error) {
	v := &verdict{failures: map[string]int{}, reasons: map[string]string{}}
	for i, r := range requests {
		n := int(a.seen[i].Load())
		v.attempted += n
		ok := n - int(a.badStatus[i].Load())
		if c := int(a.badStatus[i].Load()); c > 0 {
			v.fail(r, "status", "non-200 answer", c)
		}
		if c := int(a.cheapFailed[i].Load()); c > 0 {
			v.fail(r, "same_bytes", "answer differs from the first answer to this request", c)
		}
		if c := int(a.unshipped[i].Load()); c > 0 {
			v.fail(r, "path_flags", "answer shipped no task to the executor or had a task batch fail over", c)
		}
		first := a.first[i].Load()
		if first == nil {
			if n == 0 {
				return nil, fmt.Errorf("%s was never sent", r)
			}
			v.failed += int(a.failedAny[i].Load())
			continue
		}
		fails, iter, err := deepCheck(w, i, *first, refs[i])
		if err != nil {
			return nil, err
		}
		for _, check := range sortedKeys(fails) {
			v.fail(r, check, fails[check], ok)
		}
		if len(fails) > 0 {
			v.failed += n
		} else {
			v.failed += int(a.failedAny[i].Load())
		}
		if _, oom := fails["memory_fit"]; r != planIterExcluded && !oom {
			v.iterMS = append(v.iterMS, iter*1000)
		}
	}
	if w.scatter {
		var per []string
		for i, r := range requests {
			per = append(per, fmt.Sprintf("%s=%d", r, a.remote[i].Load()))
		}
		v.notes = append(v.notes, "remote tasks by request: "+strings.Join(per, " "))
	}
	return v, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
