package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"time"

	"tapas"
	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/mining"
	"tapas/internal/reconstruct"
	"tapas/internal/sim"
	"tapas/internal/strategy"
	"tapas/service"
	"tapas/store"
)

// layerMetric is one per-layer figure of the traced run.
type layerMetric struct {
	name, unit string
}

// layerMetrics are the traced run's figures, in report order. Time and
// size figures are means per request; a layer off the workload's path
// reads 0.
var layerMetrics = []layerMetric{
	{"ir.build_ms", "ms"}, {"ir.group_ms", "ms"}, {"ir.graph_nodes", "count"},
	{"mining.mine_ms", "ms"}, {"mining.fold_ms", "ms"}, {"mining.levels", "count"},
	{"mining.classes", "count"}, {"mining.fold_ratio", "nodes/class"},
	{"strategy.enum_ms", "ms"}, {"strategy.assemble_ms", "ms"},
	{"strategy.examined", "count"}, {"strategy.pruned", "count"},
	{"reconstruct.ms", "ms"}, {"reconstruct.collectives", "count"}, {"sim.ms", "ms"},
	{"store.open_ms", "ms"}, {"store.lookup_ms", "ms"}, {"store.get_ms", "ms"}, {"store.record_kb", "KB"},
	{"export.rehydrate_ms", "ms"}, {"cost.reprice_ms", "ms"},
	{"service.render_ms", "ms"}, {"service.encode_ms", "ms"},
	{"service.resp_kb", "KB"}, {"service.http_ms", "ms"},
	{"engine.cache_hits", "count/req"}, {"engine.cache_misses", "count/req"},
	{"dispatch.batches", "count/req"}, {"dispatch.tasks_remote", "count/req"},
	{"dispatch.tasks_local", "count/req"}, {"dispatch.failed_over", "count/req"},
	{"dispatch.ship_ms", "ms"}, {"dispatch.wire_kb", "KB"}, {"tasks.execute_ms", "ms"},
	{"runtime.allocs_per_req", "count"}, {"runtime.alloc_mb_per_req", "MB"},
	{"runtime.gc_cpu_ms_per_req", "ms"},
	{"trace.unattributed_ms", "ms"}, {"trace.overhead_ms", "ms"},
}

// layerSpans name the figure each of the served request's own spans
// gives. They run one after another inside engine.search, or alone on
// a store or cache hit, so their sum is the time the request's layers
// account for. "mine" covers mining.Mine and mining.Fold; "store.lookup"
// covers the whole store hit; "cache" is the result-cache lookup.
var layerSpans = map[string]string{
	"group":        "ir.group_ms",
	"mine":         "mining.mine_ms",
	"enum":         "strategy.enum_ms",
	"assemble":     "strategy.assemble_ms",
	"reconstruct":  "reconstruct.ms",
	"simulate":     "sim.ms",
	"store.lookup": "store.lookup_ms",
	"cache":        "",
}

// rootSpan is the server's root span of a search request.
const rootSpan = "POST /v1/search"

// minTracedPasses bounds the traced run from below, so its medians
// are over at least three passes.
const minTracedPasses = 3

// span is one timed call of the traced run. Spans of one request share
// Request; Parent 0 marks a request's root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Request string  `json:"request"`
	Name    string  `json:"name"`
	Process string  `json:"process"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

// add records a finished span and returns its ID.
func (t *tracer) add(name, req, process string, parent int, start time.Time, d time.Duration) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: req, Name: name, Process: process,
		StartUS: t.us(start), EndUS: t.us(start.Add(d))})
	return id
}

// requestTrace collects one request's spans and figures.
type requestTrace struct {
	tr   *tracer
	req  string
	root int
	ms   map[string]float64
}

// call times f as one span under the request's root and, unless key is
// empty, adds its milliseconds to the figure key.
func (rt *requestTrace) call(name, key string, f func() error) error {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	rt.tr.add(name, rt.req, "perfbench", rt.root, t0, d)
	if key != "" {
		rt.ms[key] += msOf(d)
	}
	return err
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serverSpans copies the server's spans of the traced request id under
// parent and takes the layer figures from them. It returns the time the
// layer spans account for and the root span's duration.
func (rt *requestTrace) serverSpans(s *stack, id string, parent int) (attributed, root time.Duration, err error) {
	doc, ok := s.rec.Trace(id)
	if !ok {
		return 0, 0, fmt.Errorf("the server recorded no spans for trace %s", id)
	}
	for _, sd := range doc.Spans {
		d := time.Duration(sd.Duration) * time.Microsecond
		rt.tr.add(sd.Name, rt.req, "server", parent, time.Unix(0, sd.Start), d)
		if key, ok := layerSpans[sd.Name]; ok {
			attributed += d
			if key != "" {
				rt.ms[key] += msOf(d)
			}
		}
		switch sd.Name {
		case rootSpan:
			root = d
		case "mine":
			rt.ms["mining.levels"] += atof(sd.Attrs["levels"])
			rt.ms["mining.classes"] += atof(sd.Attrs["classes"])
		case "enum":
			rt.ms["strategy.examined"] += atof(sd.Attrs["examined"])
			rt.ms["strategy.pruned"] += atof(sd.Attrs["pruned"])
		}
	}
	return attributed, root, nil
}

func atof(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// outsideCalls calls, from outside and each inside a span, the public
// functions of the layers the served request's spans do not time:
// building the model graph, and the grouped graph's size, on every
// path that builds one; mining.Fold on its own (the server's "mine"
// span covers Mine and Fold together); the store hit's get, rehydrate,
// re-price, reconstruct and simulate (the server times them as one
// "store.lookup" span); and rendering and encoding the response, on the
// reference search's Result.
func outsideCalls(ctx context.Context, s *stack, i int, ref *tapas.Result, rt *requestTrace) error {
	r := requests[i]
	if s.w.cache == 0 {
		var (
			g  *graph.Graph
			gg *ir.GNGraph
		)
		if err := rt.call("ir.build", "ir.build_ms", func() (err error) { g, err = tapas.BuildModel(r.Model); return err }); err != nil {
			return err
		}
		groupKey := ""
		if s.w.store {
			groupKey = "ir.group_ms"
		}
		if err := rt.call("ir.group", groupKey, func() (err error) { gg, err = ir.Group(g); return err }); err != nil {
			return err
		}
		rt.ms["ir.graph_nodes"] += float64(len(gg.Nodes))
		if s.w.store {
			if err := restoreCalls(s, r, gg, rt); err != nil {
				return err
			}
		} else {
			var mres *mining.Result
			rt.call("mining.mine", "", func() error { mres = mining.Mine(ctx, gg, mining.DefaultOptions()); return nil })
			rt.call("mining.fold", "mining.fold_ms", func() error { mining.Fold(gg, mres); return nil })
		}
	}
	var resp *service.SearchResponse
	if err := rt.call("service.render", "service.render_ms", func() (err error) { resp, err = service.NewSearchResponse(ref); return err }); err != nil {
		return err
	}
	var body bytes.Buffer
	rt.call("service.encode", "service.encode_ms", func() error {
		enc := json.NewEncoder(&body)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	})
	rt.ms["service.resp_kb"] += float64(body.Len()) / 1024
	return nil
}

// restoreCalls are the store hit's layers: get the record, rehydrate
// its plan against the fresh grouping, re-price, reconstruct and
// simulate it.
func restoreCalls(s *stack, r request, gg *ir.GNGraph, rt *requestTrace) error {
	key, ok := s.keys[r]
	if !ok {
		return fmt.Errorf("%s: no record in the corpus", r)
	}
	var rec *store.Record
	rt.call("store.get", "store.get_ms", func() error { rec, ok = s.st.Get(key); return nil })
	if !ok {
		return fmt.Errorf("%s: store miss", r)
	}
	rt.ms["store.record_kb"] += float64(s.recordBytes[r]) / 1024
	var st *strategy.Strategy
	if err := rt.call("export.rehydrate", "export.rehydrate_ms", func() (err error) { st, err = rec.Plan.Rehydrate(gg); return err }); err != nil {
		return err
	}
	cl := cluster.V100GPUs(r.GPUs)
	rt.call("cost.reprice", "cost.reprice_ms", func() error {
		st.Cost = cost.Default(cl).StrategyCost(st.Patterns(), st.Reshard)
		return nil
	})
	if err := rt.call("reconstruct", "reconstruct.ms", func() error { _, err := reconstruct.Reconstruct(st); return err }); err != nil {
		return err
	}
	rt.call("sim", "sim.ms", func() error { sim.Run(st, sim.DefaultConfig(cl)); return nil })
	return nil
}

// counters are the serving stack's cumulative counters the traced run
// differences around each untraced request.
type counters struct {
	hits, misses               uint64
	fleet                      fleetCounts
	batches, shipNS            int64
	execNS, wireIn, wireOut    int64
	allocs, allocBytes, gcCPUs float64
}

var runtimeSamples = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func (s *stack) counters() counters {
	var c counters
	cs := s.front.svc.Engine().CacheStats()
	c.hits, c.misses = cs.Hits, cs.Misses
	if s.coord != nil {
		c.fleet = s.fleet()
		c.batches, c.shipNS = s.ship.batches.Load(), s.ship.nanos.Load()
		m := s.exec.meter
		c.execNS, c.wireIn, c.wireOut = m.nanos.Load(), m.wireIn.Load(), m.wireOut.Load()
	}
	ms := make([]metrics.Sample, len(runtimeSamples))
	for k, n := range runtimeSamples {
		ms[k].Name = n
	}
	metrics.Read(ms)
	c.allocs = float64(ms[0].Value.Uint64())
	c.allocBytes = float64(ms[1].Value.Uint64())
	c.gcCPUs = ms[2].Value.Float64()
	return c
}

// addDelta charges the counters' movement over one request to ms.
func addDelta(ms map[string]float64, a, b counters) {
	ms["engine.cache_hits"] += float64(b.hits - a.hits)
	ms["engine.cache_misses"] += float64(b.misses - a.misses)
	ms["dispatch.batches"] += float64(b.batches - a.batches)
	ms["dispatch.tasks_remote"] += float64(b.fleet.remote - a.fleet.remote)
	ms["dispatch.tasks_local"] += float64(b.fleet.local - a.fleet.local)
	ms["dispatch.failed_over"] += float64(b.fleet.failover - a.fleet.failover)
	ms["dispatch.ship_ms"] += float64(b.shipNS-a.shipNS) / float64(time.Millisecond)
	ms["dispatch.wire_kb"] += float64(b.wireIn-a.wireIn+b.wireOut-a.wireOut) / 1024
	ms["tasks.execute_ms"] += float64(b.execNS-a.execNS) / float64(time.Millisecond)
	ms["runtime.allocs_per_req"] += b.allocs - a.allocs
	ms["runtime.alloc_mb_per_req"] += (b.allocBytes - a.allocBytes) / (1 << 20)
	ms["runtime.gc_cpu_ms_per_req"] += (b.gcCPUs - a.gcCPUs) * 1000
}

// tracedRun is the --trace 1 run: for every request of each pass it
// sends the request over HTTP untraced and then traced (or the other
// way round), takes the layer figures from the server's own spans of
// the traced request, calls from outside the layers those spans do not
// time, and checks that both answers carry one plan.
func tracedRun(ctx context.Context, w workload, env runEnv) (*result, error) {
	ord := newOrders(env.seed)
	corpus := filepath.Join(env.scratch, "corpus")
	if w.store {
		if err := writeCorpus(corpus); err != nil {
			return nil, fmt.Errorf("writing the corpus: %w", err)
		}
	}
	refs, err := references(ctx)
	if err != nil {
		return nil, err
	}
	s, _, _, err := setUp(w, corpus, ord.next())
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	if w.store {
		if err := s.indexCorpus(corpus); err != nil {
			return nil, err
		}
	}

	tr := &tracer{t0: time.Now()}
	ans := newAnswers()
	mismatch := map[string]int{}
	unaccounted := map[string]int{}
	var perPass []map[string]float64
	start := time.Now()
	for p := 0; p < minTracedPasses || time.Since(start) < time.Duration(env.seconds)*time.Second; p++ {
		ms := map[string]float64{}
		if w.store {
			t0 := time.Now()
			st, err := store.Open(store.Options{Dir: corpus})
			if err != nil {
				return nil, err
			}
			d := time.Since(t0)
			st.Close()
			tr.add("store.open", fmt.Sprintf("p%d", p), "perfbench", 0, t0, d)
			ms["store.open_ms"] = msOf(d)
		}
		var buf, tbuf bytes.Buffer
		for _, i := range ord.next() {
			req := fmt.Sprintf("p%d/%s", p, requests[i])
			root := tr.add("request", req, "perfbench", 0, time.Now(), 0)
			rt := &requestTrace{tr: tr, req: req, root: root, ms: ms}
			untraced := func() error {
				c0 := s.counters()
				code, d, err := s.search(i, &buf, "")
				if err != nil {
					return err
				}
				c1 := s.counters()
				addDelta(ms, c0, c1)
				var shipped *fleetCounts
				if s.coord != nil {
					delta := c1.fleet.minus(c0.fleet)
					shipped = &delta
				}
				tr.add("http.untraced", req, "perfbench", root, time.Now().Add(-d), d)
				ms["service.http_ms"] += msOf(d)
				ms["trace.overhead_ms"] -= msOf(d)
				ans.check(i, code, buf.Bytes(), shipped)
				return nil
			}
			traced := func() error {
				id := newTraceID()
				_, d, err := s.search(i, &tbuf, id)
				if err != nil {
					return err
				}
				parent := tr.add("http.traced", req, "perfbench", root, time.Now().Add(-d), d)
				ms["trace.overhead_ms"] += msOf(d)
				attributed, rootD, err := rt.serverSpans(s, id, parent)
				if err != nil {
					return err
				}
				// The layer spans lie inside the server's root span, and
				// that inside the client's request.
				if attributed > rootD || rootD > d {
					unaccounted[requests[i].String()]++
				}
				ms["trace.unattributed_ms"] += msOf(d - attributed)
				return nil
			}
			first, second := untraced, traced
			if p%2 == 1 {
				first, second = traced, untraced
			}
			if err := first(); err != nil {
				return nil, fmt.Errorf("%s: %w", requests[i], err)
			}
			if err := second(); err != nil {
				return nil, fmt.Errorf("%s: %w", requests[i], err)
			}
			if w.cache == 0 {
				var resp wireResponse
				if err := json.Unmarshal(buf.Bytes(), &resp); err == nil {
					ms["reconstruct.collectives"] += float64(resp.Devices.Collectives)
				}
			}
			if err := outsideCalls(ctx, s, i, refs[i].res, rt); err != nil {
				return nil, fmt.Errorf("%s: outside calls: %w", requests[i], err)
			}
			tr.spans[root-1].EndUS = tr.us(time.Now())
			if !samePlan(buf.Bytes(), tbuf.Bytes()) {
				mismatch[requests[i].String()]++
			}
		}
		perPass = append(perPass, ms)
	}

	spansPath := filepath.Join(env.outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, env.seed))
	if err := writeSpans(spansPath, tr.spans); err != nil {
		return nil, err
	}
	env.log("traced run: %d passes, %d spans written to %s", len(perPass), len(tr.spans), spansPath)

	v, err := judge(w, ans, refs)
	if err != nil {
		return nil, err
	}
	for _, extra := range []struct {
		check, reason string
		counts        map[string]int
	}{
		{"traced_plan", "the traced and the untraced answer disagree on the plan", mismatch},
		{"trace_accounting", "the layer spans outlast the server's root span, or it the client's request", unaccounted},
	} {
		for _, k := range sortedKeys(extra.counts) {
			key := k + "/" + extra.check
			v.failures[key] = extra.counts[k]
			v.reasons[key] = extra.reason
			v.unexpected = true
			v.failed += extra.counts[k]
		}
	}
	reportVerdict(env, w, v)

	res := &result{Correct: !v.unexpected, Attempted: v.attempted, Failed: v.failed, Metrics: map[string]metric{}}
	n := float64(len(requests))
	for _, m := range layerMetrics {
		vals := make([]float64, len(perPass))
		for p, ms := range perPass {
			switch m.name {
			case "mining.fold_ratio":
				if ms["mining.classes"] > 0 {
					vals[p] = ms["ir.graph_nodes"] / ms["mining.classes"]
				}
			case "store.open_ms": // once per pass, not per request
				vals[p] = ms[m.name]
			default:
				vals[p] = ms[m.name] / n
			}
		}
		res.Metrics[m.name] = metric{median(vals), m.unit}
	}
	return res, nil
}

// samePlan reports whether every answer carries the same plan.
func samePlan(answers ...[]byte) bool {
	var first []byte
	for k, a := range answers {
		var resp struct {
			Plan json.RawMessage `json:"plan"`
		}
		if err := json.Unmarshal(a, &resp); err != nil {
			return false
		}
		var plan bytes.Buffer
		if err := json.Compact(&plan, resp.Plan); err != nil {
			return false
		}
		if k == 0 {
			first = plan.Bytes()
		} else if !bytes.Equal(plan.Bytes(), first) {
			return false
		}
	}
	return true
}

func newTraceID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
