package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opass/internal/httpapi"
	"opass/internal/plancache"
	"opass/internal/telemetry"
)

// server is one in-process opass service on a loopback port.
type server struct {
	srv  *httpapi.Server
	reg  *telemetry.Registry
	url  string
	hs   *http.Server
	done chan struct{} // closed when Serve returns
}

func startServer(opts httpapi.ServerOptions, tr *traceHook) (*server, error) {
	opts.Registry = telemetry.NewRegistry()
	srv := httpapi.NewServer(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: srv, reg: opts.Registry, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.hs = &http.Server{Handler: tr.wrap(srv)}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.hs.Close() // in-flight requests are the benchmark's own and already answered
	<-s.done
}

// bench is one set-up instance of a workload: its inputs, servers and
// client, and the responses collected for checking.
type bench struct {
	workload string
	seed     int64
	in       *inputSet
	servers  []*server
	stub     *plancache.MemcachedServer
	remotes  []*plancache.Remote
	tr       *http.Transport
	client   *http.Client
	path     string
	simulate bool

	next  atomic.Int64 // next request index into bodies or seq
	store respStore

	mu    sync.Mutex
	extra []record // requests sent outside the timed phases
}

// Client counts: at most nproc (2) closed-loop clients, one for plan-bulk.
func clientsFor(w string) int {
	if w == wPlanBulk {
		return 1
	}
	return 2
}

// setUp generates the inputs, starts the servers (and the shared tier for
// fleet-repeat) and warms them: this is what setup_s times.
func setUp(w string, seed int64, hook *traceHook) (*bench, error) {
	in, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	b := &bench{workload: w, seed: seed, in: in, path: "/v1/plan"}
	b.store.byLayout = make(map[int][]respEntry)
	b.tr = &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	b.client = &http.Client{Transport: b.tr}
	fail := func(err error) (*bench, error) {
		b.tearDown()
		return nil, err
	}
	switch w {
	case wPlanBulk, wSimPaper:
		if w == wSimPaper {
			b.path, b.simulate = "/v1/simulate", true
		}
		s, err := startServer(httpapi.ServerOptions{}, hook)
		if err != nil {
			return fail(err)
		}
		b.servers = append(b.servers, s)
		for i := range in.warm {
			if err := b.sendOnce(-1-i, in.warmB[i], s); err != nil {
				return fail(err)
			}
		}
	case wFleetRepeat:
		if b.stub, err = plancache.NewMemcachedServer(); err != nil {
			return fail(fmt.Errorf("start memcached stub: %w", err))
		}
		for r := 0; r < fleetReplicas; r++ {
			remote := plancache.NewRemote(b.stub.Addr(), plancache.RemoteOptions{})
			b.remotes = append(b.remotes, remote)
			s, err := startServer(httpapi.ServerOptions{PlanCacheEntries: fleetL1Entries, RemoteTier: remote}, hook)
			if err != nil {
				return fail(err)
			}
			b.servers = append(b.servers, s)
		}
		// Every layout once, on alternating replicas, two at a time: the
		// planner runs and publishes each plan to the tier.
		if err := b.parallel(fleetPool, func(i int) error {
			return b.sendOnce(i, in.bodies[i], b.servers[i%fleetReplicas])
		}); err != nil {
			return fail(err)
		}
		// Then requests drawn like the timed phase's, so each replica's L1
		// holds popular layouts when it starts.
		const warmReqs = 16
		if err := b.parallel(warmReqs, func(k int) error {
			q := in.seq[len(in.seq)-1-k] // from the far end: the timed phase starts at 0
			return b.sendOnce(int(q.layout), in.bodies[q.layout], b.servers[q.replica])
		}); err != nil {
			return fail(err)
		}
	}
	runtime.GC()
	return b, nil
}

// parallel runs fn(0..n-1) on the workload's client count.
func (b *bench) parallel(n int, fn func(i int) error) error {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for c := 0; c < clientsFor(b.workload); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := fn(i); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sendOnce sends one body outside the timed phase and keeps its response
// for checking. A non-200 answer is a failed request, not a set-up error;
// only an unreachable server aborts.
func (b *bench) sendOnce(layout int, body []byte, s *server) error {
	var buf bytes.Buffer
	rec := b.do(layout, body, s, &buf, nil)
	b.mu.Lock()
	b.extra = append(b.extra, rec)
	b.mu.Unlock()
	if rec.err != nil {
		return fmt.Errorf("request to %s: %w", s.url, rec.err)
	}
	return nil
}

// record is one request's outcome.
type record struct {
	layout int
	status int
	err    error
	lat    time.Duration
	end    time.Duration // completion, from the phase start
	tasks  int
	sum    [sha256.Size]byte
}

// do sends one request and reads the full response. The latency runs from
// just before the send until the last response byte is read; the request
// is built before and the body hashed and stored after.
func (b *bench) do(layout int, body []byte, s *server, buf *bytes.Buffer, sp *spanCtx) record {
	rec := record{layout: layout}
	req, err := http.NewRequest(http.MethodPost, s.url+b.path, bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	var span *span
	if sp != nil {
		span = sp.tr.start("harness.request", sp.req, 0)
		req.Header.Set(spanHeader, strconv.FormatInt(span.ID, 10)+"/"+strconv.FormatInt(sp.req, 10))
	}
	t0 := time.Now()
	resp, err := b.client.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		rec.status = resp.StatusCode
	}
	rec.lat = time.Since(t0)
	if span != nil {
		sp.tr.end(span)
	}
	rec.err = err
	if err == nil && rec.status == http.StatusOK {
		rec.sum = sha256.Sum256(buf.Bytes())
		b.store.keep(layout, rec.sum, buf.Bytes())
	}
	return rec
}

// respStore keeps one copy of each distinct 200 body per layout.
type respStore struct {
	mu       sync.Mutex
	byLayout map[int][]respEntry
}

type respEntry struct {
	sum  [sha256.Size]byte
	body []byte
}

func (s *respStore) keep(layout int, sum [sha256.Size]byte, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.byLayout[layout] {
		if e.sum == sum {
			return
		}
	}
	s.byLayout[layout] = append(s.byLayout[layout], respEntry{sum: sum, body: bytes.Clone(body)})
}

// phase is one closed-loop timed interval.
type phase struct {
	recs    []record
	elapsed time.Duration // until the last response completed
	ran     time.Duration // the interval requests were issued in
	allocs  uint64        // heap bytes allocated during the phase
	peak    uint64        // sampled peak heap above the phase start
}

// target picks request k's layout and server.
func (b *bench) target(k int) (int, *server, bool) {
	if b.in.seq != nil {
		q := b.in.seq[k%len(b.in.seq)]
		return int(q.layout), b.servers[q.replica], true
	}
	if k >= len(b.in.bodies) {
		return 0, nil, false
	}
	return k, b.servers[0], true
}

// run drives the closed loop for d: each client sends its next request as
// soon as the previous response is fully read. tr, when non-nil, records a
// span around every request.
func (b *bench) run(d time.Duration, tr *tracer) phase {
	clients := clientsFor(b.workload)
	perClient := make([][]record, clients)
	sampler := startHeapSampler()
	allocs0 := readAllocs()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				k := int(b.next.Add(1) - 1)
				layout, s, ok := b.target(k)
				if !ok {
					return
				}
				var sp *spanCtx
				if tr != nil {
					sp = &spanCtx{tr: tr, req: tr.newRequest()}
				}
				rec := b.do(layout, b.in.bodies[layout], s, &buf, sp)
				rec.end = time.Since(start)
				rec.tasks = b.in.layouts[layout].tasks
				perClient[c] = append(perClient[c], rec)
			}
		}(c)
	}
	wg.Wait()
	ph := phase{ran: time.Since(start), allocs: readAllocs() - allocs0, peak: sampler.stop()}
	if ph.ran > d {
		ph.ran = d
	}
	for _, rs := range perClient {
		ph.recs = append(ph.recs, rs...)
	}
	for _, r := range ph.recs {
		if r.end > ph.elapsed {
			ph.elapsed = r.end
		}
	}
	return ph
}

func (b *bench) tearDown() {
	for _, s := range b.servers {
		s.close()
	}
	for _, r := range b.remotes {
		r.Close()
	}
	if b.stub != nil {
		b.stub.Close()
	}
	b.tr.CloseIdleConnections()
	b.in.arena.free()
}

// scrape sums the named series of every server's /metrics, by family name
// (labels ignored): counters and gauges by value, and histogram _sum and
// _count lines under those suffixed names.
func (b *bench) scrape() (map[string]float64, error) {
	out := map[string]float64{}
	for _, s := range b.servers {
		resp, err := b.client.Get(s.url + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", s.url, err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			name := line[:sp]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				continue
			}
			out[name] += v
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("scrape %s: %w", s.url, err)
		}
	}
	return out, nil
}

// Runtime metrics the harness reads: cumulative heap allocation, and the
// heap occupied by objects (live plus not yet swept).
const (
	metricAllocs = "/gc/heap/allocs:bytes"
	metricHeap   = "/memory/classes/heap/objects:bytes"
)

func readAllocs() uint64 {
	s := []metrics.Sample{{Name: metricAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler polls the object heap every 5 ms until stopped and keeps the
// peak above the value at its start (the heap right after set-up).
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	s := []metrics.Sample{{Name: metricHeap}}
	metrics.Read(s)
	base := s[0].Value.Uint64()
	go func() {
		peak := base
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stopc:
				h.done <- peak - base
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}
