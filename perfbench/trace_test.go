package main

import (
	"crypto/sha256"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestTracedRequestsFromManyClients sends traced requests from several
// goroutines through the handler wrapper, as the closed loop does, and
// checks that every server span joins its client span and that self time
// excludes the child.
func TestTracedRequestsFromManyClients(t *testing.T) {
	hook := &traceHook{}
	srv := httptest.NewServer(hook.wrap(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(2 * time.Millisecond)
		_, _ = w.Write([]byte("ok"))
	})))
	defer srv.Close()
	tr := newTracer()
	hook.tr.Store(tr)

	var store respStore
	store.byLayout = map[int][]respEntry{}
	const clients, perClient = 4, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := tr.newRequest()
				s := tr.start("harness.request", req, 0)
				hreq, err := http.NewRequest(http.MethodGet, srv.URL, nil)
				if err != nil {
					t.Error(err)
					return
				}
				hreq.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10)+"/"+strconv.FormatInt(req, 10))
				resp, err := http.DefaultClient.Do(hreq)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				tr.end(s)
				store.keep(i%3, sha256.Sum256([]byte{byte(i % 3)}), []byte{byte(i % 3)})
			}
		}()
	}
	wg.Wait()
	hook.tr.Store(nil)

	byID := map[int64]*span{}
	for _, s := range tr.spans {
		byID[s.ID] = s
	}
	handlers := 0
	for _, s := range tr.spans {
		if s.Name != "httpapi.handler" {
			continue
		}
		handlers++
		p, ok := byID[s.Parent]
		if !ok || p.Name != "harness.request" || p.Req != s.Req {
			t.Fatalf("handler span %+v does not join its client span", s)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("handler span %+v lies outside its client span %+v", s, p)
		}
	}
	if handlers != clients*perClient {
		t.Fatalf("%d handler spans, want %d", handlers, clients*perClient)
	}
	st := tr.selfTimes()
	req, handler := st["harness.request"], st["httpapi.handler"]
	if req.calls != clients*perClient || handler.calls != clients*perClient {
		t.Fatalf("span counts %d and %d, want %d", req.calls, handler.calls, clients*perClient)
	}
	if handler.meanMS() < 2 {
		t.Fatalf("handler self time %.3f ms, below the handler's 2 ms sleep", handler.meanMS())
	}
	if req.total <= 0 {
		t.Fatalf("client self time %v, want the positive transport share", req.total)
	}
	for layout, entries := range store.byLayout {
		if len(entries) != 1 {
			t.Fatalf("layout %d keeps %d copies of one body", layout, len(entries))
		}
	}
}
