// Command perfbench is the opass benchmark. It runs one workload against
// in-process opass servers over loopback HTTP with closed-loop clients, checks
// every response, and prints its metrics as one JSON object on the last line
// of standard output:
//
//	go build -o perfbench . && ./perfbench --workload plan-bulk --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same load untraced and then traced, calls each layer's public functions
// on sampled inputs with a span around every call, writes the spans under
// .bench_build/perfbench/, and reports the per-layer metrics. README.md lists
// the workloads, the metrics and which end-to-end metric each layer moves.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"opass/internal/core"
	"opass/internal/httpapi"
	"opass/internal/plancache"
	"opass/internal/telemetry"
)

// Run shape.
const (
	setups      = 3 // set-ups per run; setup_s is their median
	simulated   = 2 // plan-only workloads: quality-set plans run in the engine
	layerSample = 4 // requests the traced run calls every layer on
	runBudget   = 170 * time.Second
)

// qualitySet is how many leading layouts the deterministic quality metrics
// (locality, simulated makespan and I/O time) cover. Layouts the timed phase
// did not reach are sent after it.
func qualitySet(w string) int {
	switch w {
	case wPlanBulk:
		return 16
	case wSimPaper:
		return 48
	default:
		return fleetPool
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "plan-bulk, sim-paper or fleet-repeat")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// The run must end within its budget whatever the program under test
	// does; a run that does not is a failed run.
	watchdog := time.AfterFunc(runBudget, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time budget")
		os.Exit(3)
	})
	defer watchdog.Stop()

	env := environment(*workload, *seed, *seconds, *trace)
	envLine, _ := json.Marshal(map[string]any{"environment": env})
	fmt.Println(string(envLine))

	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 0 {
		res, err = endToEnd(*workload, *seed, d)
	} else {
		res, err = traced(*workload, *seed, d, env)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// environment records what the numbers ran on.
func environment(w string, seed int64, seconds float64, trace int) map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"workload": w, "seed": seed, "seconds": seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "cpu_model": cpu,
		"clients": clientsFor(w),
	}
}

// endToEnd sets the workload up several times, runs the timed phase on the
// last set-up, checks every response and computes the end-to-end metrics.
func endToEnd(w string, seed int64, d time.Duration) (*result, error) {
	hook := &traceHook{}
	var setupS []float64
	var b *bench
	for i := 0; i < setups; i++ {
		if b != nil {
			b.tearDown()
		}
		t0 := time.Now()
		var err error
		if b, err = setUp(w, seed, hook); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer b.tearDown()

	ph := b.run(d, nil)
	if err := b.completeQualitySet(); err != nil {
		return nil, err
	}
	verdicts := b.checkAll()
	attempted, failed := b.tally([]phase{ph}, verdicts)
	q, err := b.quality(verdicts)
	if err != nil {
		return nil, err
	}

	var lats []float64
	var tasks int
	for _, r := range ph.recs {
		if r.failed(verdicts) {
			// A failed request misses any latency limit: it counts at the
			// length of the whole phase.
			lats = append(lats, ph.ran.Seconds()*1e3)
			continue
		}
		lats = append(lats, r.lat.Seconds()*1e3)
		tasks += r.tasks
	}
	if len(ph.recs) == 0 {
		return nil, errors.New("the timed phase completed no request")
	}
	ms := map[string]metric{
		"setup_s":           {median(setupS), "s"},
		"latency_p50_ms":    {quantile(lats, 0.5), "ms"},
		"latency_p90_ms":    {quantile(lats, 0.9), "ms"},
		"tasks_per_s":       {float64(tasks) / ph.elapsed.Seconds(), "1/s"},
		"success_rate":      {1 - float64(failed)/float64(attempted), "fraction"},
		"locality_fraction": {q.locality, "fraction"},
		"sim_makespan_s":    {q.makespan, "s"},
		"sim_io_time_s":     {q.ioTime, "s"},
		"alloc_mb_per_req":  {float64(ph.allocs) / float64(len(ph.recs)) / (1 << 20), "MB"},
		"peak_heap_mb":      {float64(ph.peak) / (1 << 20), "MB"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d timed requests in %.1fs, %d attempted, %d failed, error_rate %g\n",
		w, seed, len(ph.recs), ph.elapsed.Seconds(), attempted, failed, float64(failed)/float64(attempted))
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

// completeQualitySet sends, outside the timed phase, every quality-set
// layout the phase did not reach.
func (b *bench) completeQualitySet() error {
	for i := 0; i < qualitySet(b.workload); i++ {
		b.store.mu.Lock()
		_, ok := b.store.byLayout[i]
		b.store.mu.Unlock()
		if ok {
			continue
		}
		if err := b.sendOnce(i, b.in.bodies[i], b.servers[0]); err != nil {
			return err
		}
	}
	return nil
}

// verdictKey names one distinct response body of one layout.
type verdictKey struct {
	layout int
	sum    [32]byte
}

// checkAll checks every distinct response body once.
func (b *bench) checkAll() map[verdictKey]verdict {
	out := map[verdictKey]verdict{}
	b.store.mu.Lock()
	defer b.store.mu.Unlock()
	for li, entries := range b.store.byLayout {
		l := b.layoutOf(li)
		for _, e := range entries {
			v := checkBody(l, b.simulate, e.body)
			if v.err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: check failed for layout %d: %v\n", li, v.err)
			}
			out[verdictKey{li, e.sum}] = v
		}
	}
	return out
}

// layoutOf maps a store index to its layout: warm-up layouts are -1, -2, ...
func (b *bench) layoutOf(i int) *layout {
	if i < 0 {
		return b.in.warm[-1-i]
	}
	return b.in.layouts[i]
}

func (r record) failed(verdicts map[verdictKey]verdict) bool {
	if r.err != nil || r.status != http.StatusOK {
		return true
	}
	v, ok := verdicts[verdictKey{r.layout, r.sum}]
	return !ok || v.err != nil
}

// tally counts every request of the final set-up, the timed phases and the
// quality completion, and those that failed: a transport error, a non-200
// status, or a response the checker rejects.
func (b *bench) tally(phases []phase, verdicts map[verdictKey]verdict) (attempted, failed int) {
	all := append([]record(nil), b.extra...)
	for _, ph := range phases {
		all = append(all, ph.recs...)
	}
	for _, r := range all {
		attempted++
		if r.failed(verdicts) {
			failed++
		}
	}
	return attempted, failed
}

// qualityMetrics are the deterministic plan-quality results of a run.
type qualityMetrics struct {
	locality float64 // byte-weighted over the quality set
	makespan float64 // median simulated makespan
	ioTime   float64 // mean simulated per-read I/O time
}

// quality computes the quality metrics over the quality set. sim-paper's
// come from the server's simulations; the plan-only workloads run their
// first quality-set plans in the engine, each losing a seeded node at
// crashAtSeconds (a fully local plan's fault-free run is a constant of the
// hardware model).
func (b *bench) quality(verdicts map[verdictKey]verdict) (qualityMetrics, error) {
	var q qualityMetrics
	var local, total, ioSum float64
	var ioCount int
	var makespans []float64
	for i := 0; i < qualitySet(b.workload); i++ {
		v, ok := b.firstVerdict(i, verdicts)
		if !ok {
			continue
		}
		local += v.localMB
		total += v.totalMB
		if b.simulate {
			makespans = append(makespans, v.makespan)
			ioSum += v.ioSum
			ioCount += v.ioCount
			continue
		}
		if i >= simulated {
			continue
		}
		l := b.in.layouts[i]
		prob, err := buildProblem(l)
		if err != nil {
			return q, err
		}
		a := &core.Assignment{Owner: v.plan.Owner, Lists: v.plan.Lists}
		sim, err := simulate(context.Background(), prob, a, v.plan.Strategy, crashNode(b.seed, l, i))
		if err != nil {
			return q, err
		}
		makespans = append(makespans, sim.res.Makespan)
		for _, t := range sim.res.IOTimes() {
			ioSum += t
		}
		ioCount += len(sim.res.Records)
	}
	if total == 0 || ioCount == 0 {
		return q, errors.New("no quality-set response passed the checker")
	}
	q.locality = local / total
	q.makespan = median(makespans)
	q.ioTime = ioSum / float64(ioCount)
	return q, nil
}

// firstVerdict returns the verdict of layout i's first passing response.
func (b *bench) firstVerdict(i int, verdicts map[verdictKey]verdict) (verdict, bool) {
	b.store.mu.Lock()
	defer b.store.mu.Unlock()
	for _, e := range b.store.byLayout[i] {
		if v, ok := verdicts[verdictKey{i, e.sum}]; ok && v.err == nil {
			return v, true
		}
	}
	return verdict{}, false
}

// traced runs the load untraced and then traced for half the time each,
// calls every layer on sampled requests, writes the spans and reports the
// per-layer metrics.
func traced(w string, seed int64, d time.Duration, env map[string]any) (*result, error) {
	hook := &traceHook{}
	b, err := setUp(w, seed, hook)
	if err != nil {
		return nil, err
	}
	defer b.tearDown()
	before, err := b.scrape()
	if err != nil {
		return nil, err
	}
	tierBefore := b.tierStats()

	plain := b.run(d/2, nil)
	tr := newTracer()
	hook.tr.Store(tr)
	tracedPh := b.run(d/2, tr)
	hook.tr.Store(nil)

	after, err := b.scrape()
	if err != nil {
		return nil, err
	}
	tierAfter := b.tierStats()
	verdicts := b.checkAll()
	attempted, failed := b.tally([]phase{plain, tracedPh}, verdicts)

	// The layer pass: plan-bulk and sim-paper send their samples to a fresh
	// server (every request is a fresh layout, so the L1 cache misses as in
	// the load) and time the tier against a stub of their own; fleet-repeat
	// sends the next requests of its sequence to the warm replicas and
	// times the tier its replicas share.
	ctx := context.Background()
	var samples []int
	var srvFor func(k int) (http.Handler, *telemetry.Registry)
	var tier plancache.Tier
	tierFetch := false
	sims := simulated
	switch w {
	case wFleetRepeat:
		k0 := int(b.next.Load())
		for k := 0; k < layerSample; k++ {
			samples = append(samples, int(b.in.seq[(k0+k)%len(b.in.seq)].layout))
		}
		srvFor = func(k int) (http.Handler, *telemetry.Registry) {
			s := b.servers[b.in.seq[(k0+k)%len(b.in.seq)].replica]
			return s.srv, s.reg
		}
		remote := plancache.NewRemote(b.stub.Addr(), plancache.RemoteOptions{})
		defer remote.Close()
		tier, tierFetch = remote, true
	default:
		for k := 0; k < layerSample; k++ {
			samples = append(samples, k)
		}
		reg := telemetry.NewRegistry()
		fresh := httpapi.NewServer(httpapi.ServerOptions{Registry: reg})
		srvFor = func(int) (http.Handler, *telemetry.Registry) { return fresh, reg }
		stub, err := plancache.NewMemcachedServer()
		if err != nil {
			return nil, fmt.Errorf("start memcached stub: %w", err)
		}
		defer stub.Close()
		remote := plancache.NewRemote(stub.Addr(), plancache.RemoteOptions{})
		defer remote.Close()
		tier = remote
		if w == wSimPaper {
			sims = layerSample
		}
	}
	lc, err := layerPass(ctx, tr, b, samples, srvFor, tier, tierFetch, sims)
	if err != nil {
		return nil, err
	}

	st := tr.selfTimes()
	per := func(sum float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	l1Lookups := delta(httpapi.MetricPlanCacheHits) + delta(httpapi.MetricPlanCacheMisses) + delta(httpapi.MetricPlanCacheCoalesced)
	tierHits := float64(tierAfter.Hits - tierBefore.Hits)
	tierLookups := tierHits + float64(tierAfter.Misses-tierBefore.Misses)
	qs := httpapi.MetricRequestQueueSeconds
	n := lc.samples
	ms := map[string]metric{
		"httpapi.server_ms":            {st["httpapi.server"].meanMS(), "ms"},
		"httpapi.nonplanner_ms":        {per(lc.nonplannerMS, n), "ms"},
		"httpapi.encode_ms":            {st["httpapi.encode"].meanMS(), "ms"},
		"httpapi.response_bytes":       {per(lc.responseBytes, n), "bytes"},
		"httpapi.queue_wait_ms":        {1e3 * ratio(delta(qs+"_sum"), delta(qs+"_count")), "ms"},
		"httpapi.shed":                 {delta(httpapi.MetricRequestsShed), "count"},
		"httpapi.rejected":             {delta(httpapi.MetricRequestsRejected), "count"},
		"harness.transport_ms":         {st["harness.request"].meanMS(), "ms"},
		"harness.trace_overhead_ms":    {p50(tracedPh) - p50(plain), "ms"},
		"dfs.build_ms":                 {st["dfs.build"].meanMS(), "ms"},
		"dfs.chunks":                   {per(lc.chunks, n), "count"},
		"core.index_ms":                {st["core.index"].meanMS(), "ms"},
		"core.index_edges":             {per(lc.indexEdges, n), "count"},
		"core.assign_ms":               {st["core.assign"].meanMS(), "ms"},
		"core.repair_tasks":            {per(lc.repairTasks, n), "count"},
		"bipartite.graph_ms":           {st["bipartite.graph"].meanMS(), "ms"},
		"bipartite.edges":              {per(lc.graphEdges, n), "count"},
		"bipartite.solve_ms":           {st["bipartite.solve"].meanMS(), "ms"},
		"bipartite.local_mb":           {per(lc.localMB, n), "MB"},
		"bipartite.solve_dinic_ms":     {st["bipartite.solve_dinic"].meanMS(), "ms"},
		"plancache.fingerprint_ms":     {st["plancache.fingerprint"].meanMS(), "ms"},
		"plancache.canonical_bytes":    {per(lc.canonicalBytes, n), "bytes"},
		"plancache.l1_hit_ratio":       {ratio(delta(httpapi.MetricPlanCacheHits), l1Lookups), "fraction"},
		"plancache.l1_lookups":         {l1Lookups, "count"},
		"plancache.coalesced":          {delta(httpapi.MetricPlanCacheCoalesced), "count"},
		"plancache.tier_hit_ratio":     {ratio(tierHits, tierLookups), "fraction"},
		"plancache.tier_lookups":       {tierLookups, "count"},
		"plancache.tier_errors":        {float64(tierAfter.Errors - tierBefore.Errors), "count"},
		"plancache.tier_get_ms":        {st["plancache.tier_get"].meanMS(), "ms"},
		"plancache.tier_set_ms":        {st["plancache.tier_set"].meanMS(), "ms"},
		"plancache.tier_payload_bytes": {per(lc.tierPayload, lc.tierFound), "bytes"},
		"engine.run_ms":                {st["engine.run"].meanMS(), "ms"},
		"engine.reads":                 {per(lc.reads, lc.sims), "count"},
		"engine.retries":               {per(lc.retries, lc.sims), "count"},
		"engine.replans":               {per(lc.replans, lc.sims), "count"},
		"engine.repaired_chunks":       {per(lc.repaired, lc.sims), "count"},
		"simnet.flows":                 {per(lc.flows, lc.sims), "count"},
	}
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", w, seed))
	if err := tr.write(path, env); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d untraced + %d traced requests, %d attempted, %d failed; spans in %s\n",
		w, seed, len(plain.recs), len(tracedPh.recs), attempted, failed, path)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

// tierStats sums the fleet replicas' remote-tier counters.
func (b *bench) tierStats() plancache.RemoteStats {
	var s plancache.RemoteStats
	for _, r := range b.remotes {
		rs := r.Stats()
		s.Hits += rs.Hits
		s.Misses += rs.Misses
		s.Errors += rs.Errors
	}
	return s
}

func p50(ph phase) float64 {
	lats := make([]float64, len(ph.recs))
	for i, r := range ph.recs {
		lats[i] = r.lat.Seconds() * 1e3
	}
	return quantile(lats, 0.5)
}

// quantile is the q-quantile of xs with linear interpolation between the
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
