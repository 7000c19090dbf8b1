package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// minRounds makes every timed phase long enough that the pooled
	// p90 leaves ten samples beyond it: 20 rounds of 5 requests.
	minRounds = 20
	// setups is how many times a run sets its stack up; setup_s is the
	// median.
	setups = 5
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runEnv holds what a run needs besides its workload.
type runEnv struct {
	seed    int64
	seconds int
	// scratch is the run's private directory for its plan corpus,
	// removed when the run ends; outDir keeps the span files.
	scratch string
	outDir  string
	log     func(format string, args ...any)
}

// orders draws the per-client request orders of every round from the
// seed, so the same seed replays the same inputs.
type orders struct{ rng *rand.Rand }

func newOrders(seed int64) *orders { return &orders{rng: rand.New(rand.NewSource(seed))} }

func (o *orders) next() []int { return o.rng.Perm(len(requests)) }

// setUp builds the workload's stack the way a user pays for it: for
// cold and scatter, construction plus one warm-up pass; for warm,
// construction plus the cache fill; for restore, store.Open,
// construction and one warm-up pass. It returns the stack, and the
// wall-clock and CPU seconds the set-up took.
func setUp(w workload, corpus string, order []int) (s *stack, wallS, cpuS float64, err error) {
	runtime.GC()
	c0 := rusage()
	t0 := time.Now()
	if s, err = startStack(w, corpus); err != nil {
		return nil, 0, 0, err
	}
	if err := s.pass(order); err != nil {
		s.close()
		return nil, 0, 0, fmt.Errorf("warm-up pass: %w", err)
	}
	return s, time.Since(t0).Seconds(), (rusage() - c0).Seconds(), nil
}

// writeCorpus fills corpus with one untimed cold pass through a stack
// that persists its plans, then closes it so the writes land.
func writeCorpus(corpus string) error {
	s, err := startStack(workload{name: "corpus", store: true}, corpus)
	if err != nil {
		return err
	}
	err = s.pass(allRequests())
	s.close()
	return err
}

func allRequests() []int {
	out := make([]int, len(requests))
	for i := range out {
		out[i] = i
	}
	return out
}

// timedRun is one --trace 0 run: set up several times, replay whole
// rounds for at least env.seconds, check every answer.
func timedRun(ctx context.Context, w workload, env runEnv) (*result, error) {
	ord := newOrders(env.seed)
	corpus := filepath.Join(env.scratch, "corpus")
	if w.store {
		if err := writeCorpus(corpus); err != nil {
			return nil, fmt.Errorf("writing the corpus: %w", err)
		}
	}
	var setupWall, setupCPU []float64
	var s *stack
	for k := 0; k < setups; k++ {
		if s != nil {
			s.close()
		}
		var wall, cpu float64
		var err error
		if s, wall, cpu, err = setUp(w, corpus, ord.next()); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupWall = append(setupWall, wall)
		setupCPU = append(setupCPU, cpu)
	}
	env.log("set-up CPU s: median %.4f of %.4v", median(setupCPU), setupCPU)
	env.log("set-up wall s: median %.4f of %.4v", median(setupWall), setupWall)

	clients := 1
	if w.clientsPerCore {
		clients = runtime.GOMAXPROCS(0)
	}
	ans := newAnswers()
	byReq := make([][]float64, len(requests)) // latencies in ms
	var latMu sync.Mutex

	runtime.GC()
	heap := startHeapSampler()
	heap.cut()
	var roundPeakMB, roundMS, blockCPU []float64
	cpu0 := rusage()
	start := time.Now()
	block := blockStart{at: start, cpu: cpu0}
	rounds := 0
	for rounds < minRounds || time.Since(start) < time.Duration(env.seconds)*time.Second {
		roundStart := time.Now()
		var wg sync.WaitGroup
		var firstErr error
		var errMu sync.Mutex
		for c := 0; c < clients; c++ {
			order := ord.next()
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				mine := make([]float64, len(requests))
				for _, i := range order {
					var f0 fleetCounts
					if s.coord != nil {
						f0 = s.fleet()
					}
					code, d, err := s.search(i, &buf, "")
					if err != nil {
						errMu.Lock()
						firstErr = err
						errMu.Unlock()
						return
					}
					var shipped *fleetCounts
					if s.coord != nil {
						delta := s.fleet().minus(f0)
						shipped = &delta
					}
					ans.check(i, code, buf.Bytes(), shipped)
					mine[i] = float64(d) / float64(time.Millisecond)
				}
				latMu.Lock()
				for _, i := range order {
					byReq[i] = append(byReq[i], mine[i])
				}
				latMu.Unlock()
			}()
		}
		wg.Wait()
		roundPeakMB = append(roundPeakMB, float64(heap.cut())/(1<<20))
		roundMS = append(roundMS, float64(time.Since(roundStart))/float64(time.Millisecond))
		if firstErr != nil {
			heap.close()
			s.close()
			return nil, firstErr
		}
		rounds++
		block.requests += clients * len(requests)
		if time.Since(block.at) >= cpuBlock {
			now := rusage()
			blockCPU = append(blockCPU, cpuMSPerReq(now-block.cpu, block.requests))
			block = blockStart{at: time.Now(), cpu: now}
		}
	}
	elapsed := time.Since(start)
	cpu1 := rusage()
	if block.requests > 0 && len(blockCPU) == 0 {
		blockCPU = append(blockCPU, cpuMSPerReq(cpu1-block.cpu, block.requests))
	}
	heap.close()
	s.close()

	refs, err := references(ctx)
	if err != nil {
		return nil, err
	}
	v, err := judge(w, ans, refs)
	if err != nil {
		return nil, err
	}
	var lat []float64
	for _, xs := range byReq {
		lat = append(lat, xs...)
	}
	completed := len(lat)
	p50, n50, err := checkedPercentile(lat, 0.5)
	if err != nil {
		return nil, err
	}
	p90, n90, err := checkedPercentile(lat, 0.9)
	if err != nil {
		return nil, err
	}
	env.log("timed phase: %d rounds x %d client(s), %d requests in %.3f s, %d CPU blocks",
		rounds, clients, completed, elapsed.Seconds(), len(blockCPU))
	q1, q2, q3 := quartiles(roundMS)
	env.log("round ms: q1 %.1f median %.1f q3 %.1f", q1, q2, q3)
	// Wall-clock figures move with the CPU the machine steals from this
	// VM, so they are recorded here but are not end-to-end metrics; see
	// README.md.
	env.log("wall clock: throughput_rps %.4f 1/s, latency_p50_ms %.3f ms (%d samples, %d beyond), latency_p90_ms %.3f ms (%d beyond), mean cpu_ms_per_req %.3f ms",
		float64(completed)/elapsed.Seconds(), p50, len(lat), n50, p90, n90, cpuMSPerReq(cpu1-cpu0, completed))
	for i, xs := range byReq {
		q1, q2, q3 := quartiles(xs)
		env.log("  %-18s %4d samples, ms q1 %.2f median %.2f q3 %.2f", requests[i], len(xs), q1, q2, q3)
	}
	reportVerdict(env, w, v)
	return &result{
		Correct:   !v.unexpected,
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics: map[string]metric{
			"cpu_ms_per_req": {median(blockCPU), "ms"},
			"heap_peak_mb":   {median(roundPeakMB), "MB"},
			"setup_s":        {median(setupCPU), "s"},
			"plan_iter_ms":   {geomean(v.iterMS), "ms_sim"},
		},
	}, nil
}

// cpuBlock is the least wall time of one block of rounds whose CPU
// time per request is a sample of cpu_ms_per_req.
const cpuBlock = 500 * time.Millisecond

// blockStart marks where the current block of rounds began.
type blockStart struct {
	at       time.Time
	cpu      time.Duration
	requests int
}

func reportVerdict(env runEnv, w workload, v *verdict) {
	env.log("requests: workload %s attempted %d failed %d", w.name, v.attempted, v.failed)
	for _, n := range v.notes {
		env.log("  %s", n)
	}
	for _, k := range sortedKeys(v.failures) {
		tag := "UNEXPECTED"
		if _, known := knownFaults[k]; known {
			tag = "known fault"
		}
		env.log("  failed check %s: %d responses (%s): %s", k, v.failures[k], tag, v.reasons[k])
	}
}

// fleetCounts is the slice of the coordinator's counters the checks use.
type fleetCounts struct{ remote, failover, local uint64 }

func (s *stack) fleet() fleetCounts {
	fs := s.coord.FleetStats()
	return fleetCounts{remote: fs.TasksScattered, failover: fs.TasksFailedOver, local: fs.TasksLocal}
}

// minus is the counters' movement since a.
func (b fleetCounts) minus(a fleetCounts) fleetCounts {
	return fleetCounts{remote: b.remote - a.remote, failover: b.failover - a.failover, local: b.local - a.local}
}

// rusage is the process's user plus system CPU time so far.
func rusage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the live heap every 5 ms. cut returns the
// largest value seen since the previous cut, in bytes.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (h *heapSampler) note(v uint64) {
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.note(liveHeap())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) cut() uint64 {
	h.note(liveHeap())
	return h.peak.Swap(0)
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// steal reads the machine's cumulative CPU steal and total time from
// /proc/stat, in USER_HZ ticks (100 per second on Linux). ok is false
// where it cannot be read.
func steal() (stolen, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, false
	}
	for k, field := range f[1:] {
		var v uint64
		if _, err := fmt.Sscan(string(field), &v); err != nil {
			return 0, 0, false
		}
		total += v
		if k == 7 {
			stolen = v
		}
	}
	return stolen, total, true
}
