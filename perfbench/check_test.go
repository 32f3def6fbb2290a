package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"opass/internal/httpapi"
)

// serve answers l's body on a fresh server and returns the 200 response.
func serve(t *testing.T, l *layout, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(appendBody(nil, l)))
	httpapi.NewHandler(httpapi.ServerOptions{}).ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s answered %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

func TestCheckerRejectsCorruptPlans(t *testing.T) {
	l := newLayout(rand.New(rand.NewSource(1)), 8, 44, bulkSizesMB, -1)
	body := serve(t, l, "/v1/plan")
	if v := checkBody(l, false, body); v.err != nil {
		t.Fatalf("the server's plan fails the checker: %v", v.err)
	}
	// A task of a process with the larger quota, and a process with the
	// smaller one (44 tasks over 8 processes: quotas 5 and 6).
	var full, short int
	var orig httpapi.PlanResponse
	if err := json.Unmarshal(body, &orig); err != nil {
		t.Fatal(err)
	}
	for p, list := range orig.Lists {
		if len(list) == 6 {
			full = p
		} else {
			short = p
		}
	}
	cases := map[string]func(p *httpapi.PlanResponse){
		"wrong strategy":       func(p *httpapi.PlanResponse) { p.Strategy = "rank-static" },
		"short owner":          func(p *httpapi.PlanResponse) { p.Owner = p.Owner[1:] },
		"owner out of range":   func(p *httpapi.PlanResponse) { p.Owner[0] = l.procs },
		"negative owner":       func(p *httpapi.PlanResponse) { p.Owner[0] = -1 },
		"missing list":         func(p *httpapi.PlanResponse) { p.Lists = p.Lists[1:] },
		"task in no list":      func(p *httpapi.PlanResponse) { p.Lists[full] = p.Lists[full][1:] },
		"task listed twice":    func(p *httpapi.PlanResponse) { p.Lists[short] = append(p.Lists[short], p.Lists[full][0]) },
		"unknown task listed":  func(p *httpapi.PlanResponse) { p.Lists[short] = append(p.Lists[short], l.tasks) },
		"owner disagrees":      func(p *httpapi.PlanResponse) { t0 := p.Lists[full][0]; p.Owner[t0] = short },
		"locality misreported": func(p *httpapi.PlanResponse) { p.LocalityFraction -= 0.01 },
		"quota exceeded": func(p *httpapi.PlanResponse) {
			// Move a task from the short process to the full one,
			// consistently in owner and lists.
			t0 := p.Lists[short][0]
			p.Lists[short] = p.Lists[short][1:]
			p.Lists[full] = append(p.Lists[full], t0)
			p.Owner[t0] = full
		},
	}
	for name, corrupt := range cases {
		var p httpapi.PlanResponse
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		corrupt(&p)
		bad, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if v := checkBody(l, false, bad); v.err == nil {
			t.Errorf("%s: the checker accepted the corrupt plan", name)
		}
	}
	if v := checkBody(l, false, body[:len(body)/2]); v.err == nil {
		t.Error("the checker accepted a truncated body")
	}
}

func TestCheckerRejectsCorruptSimulations(t *testing.T) {
	l := newLayout(rand.New(rand.NewSource(2)), 8, 16, simSizesMB, 3)
	body := serve(t, l, "/v1/simulate")
	if v := checkBody(l, true, body); v.err != nil {
		t.Fatalf("the server's simulation fails the checker: %v", v.err)
	}
	cases := map[string]func(s *httpapi.SimulateResponse){
		"task count":    func(s *httpapi.SimulateResponse) { s.Summary.Tasks-- },
		"read count":    func(s *httpapi.SimulateResponse) { s.Summary.IO.Count++ },
		"no makespan":   func(s *httpapi.SimulateResponse) { s.Summary.Makespan = 0 },
		"corrupt plan":  func(s *httpapi.SimulateResponse) { s.Plan.Owner[0] = l.procs },
		"plan locality": func(s *httpapi.SimulateResponse) { s.Plan.LocalityFraction += 0.01 },
	}
	for name, corrupt := range cases {
		var s httpapi.SimulateResponse
		if err := json.Unmarshal(body, &s); err != nil {
			t.Fatal(err)
		}
		corrupt(&s)
		bad, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if v := checkBody(l, true, bad); v.err == nil {
			t.Errorf("%s: the checker accepted the corrupt simulation", name)
		}
	}
}

func TestRejectedResponsesCountAsFailures(t *testing.T) {
	ok := record{layout: 1, status: http.StatusOK, sum: [32]byte{1}}
	rejected := record{layout: 2, status: http.StatusOK, sum: [32]byte{2}}
	refused := record{layout: 3, status: http.StatusTooManyRequests}
	unchecked := record{layout: 4, status: http.StatusOK, sum: [32]byte{4}}
	verdicts := map[verdictKey]verdict{
		{1, ok.sum}:       {},
		{2, rejected.sum}: {err: errCorrupt},
	}
	for name, c := range map[string]struct {
		r    record
		want bool
	}{
		"passing": {ok, false}, "rejected by the checker": {rejected, true},
		"non-200": {refused, true}, "never checked": {unchecked, true},
	} {
		if got := c.r.failed(verdicts); got != c.want {
			t.Errorf("%s: failed = %v, want %v", name, got, c.want)
		}
	}
}

var errCorrupt = errors.New("corrupt")
