package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records spans from the benchmark's own files, around calls into
// the program's layers. Spans stay in memory and are written out when the
// run ends.

// spanHeader carries "<parent span>/<request>" from a traced client request
// to the handler wrapper, so the server-side span joins the request.
const spanHeader = "X-Perfbench-Span"

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Req    int64  `json:"req"`    // shared by every span of one request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the tracer's creation
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanCtx names the request a client-side span belongs to.
type spanCtx struct {
	tr  *tracer
	req int64
}

func (t *tracer) newRequest() int64 { return t.reqs.Add(1) }

func (t *tracer) start(name string, req, parent int64) *span {
	s := &span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.Start = int64(time.Since(t.t0))
	return s
}

func (t *tracer) end(s *span) {
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	s.End = end
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, req, parent int64, fn func()) {
	s := t.start(name, req, parent)
	fn()
	t.end(s)
}

// selfTime is a span name's total self time and call count. A span's self
// time is its duration minus the time its children cover.
type selfTime struct {
	total time.Duration
	calls int
}

func (s selfTime) meanMS() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.total) / float64(s.calls) / 1e6
}

func (t *tracer) selfTimes() map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]selfTime{}
	for _, s := range t.spans {
		st := out[s.Name]
		st.total += time.Duration(s.End - s.Start - children[s.ID])
		st.calls++
		out[s.Name] = st
	}
	return out
}

// write stores every span as JSON at path.
func (t *tracer) write(path string, env map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Environment map[string]any `json:"environment"`
		Spans       []*span        `json:"spans"`
	}{env, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceHook wraps a server's handler: while a tracer is installed, a
// request carrying spanHeader gets an "httpapi.handler" span around
// ServeHTTP. Without one the wrapper only loads a nil pointer.
type traceHook struct {
	tr atomic.Pointer[tracer]
}

func (h *traceHook) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := h.tr.Load()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		parent, req, err := parseSpanHeader(r.Header.Get(spanHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		s := tr.start("httpapi.handler", req, parent)
		next.ServeHTTP(w, r)
		tr.end(s)
	})
}

func parseSpanHeader(v string) (parent, req int64, err error) {
	p, q, ok := strings.Cut(v, "/")
	if !ok {
		return 0, 0, fmt.Errorf("span header %q", v)
	}
	if parent, err = strconv.ParseInt(p, 10, 64); err != nil {
		return 0, 0, err
	}
	req, err = strconv.ParseInt(q, 10, 64)
	return parent, req, err
}
