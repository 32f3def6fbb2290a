package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"opass/internal/bipartite"
	"opass/internal/core"
	"opass/internal/telemetry"
)

// streaming runs fn in a "streaming" subtest against a fresh server built
// from opts; each server gets its own metrics registry unless opts names
// one, so rejection counters start at zero.
func streaming(t *testing.T, opts ServerOptions, fn func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry)) {
	t.Helper()
	t.Run("streaming", func(t *testing.T) {
		srv, _, reg := countingServer(t, opts)
		fn(t, srv, reg)
	})
}

// nTaskRequest builds a 4-node request with the given task/input shape.
func nTaskRequest(tasks, inputsPerTask int) PlanRequest {
	req := PlanRequest{Nodes: 4, Seed: 3}
	for i := 0; i < tasks; i++ {
		var ins []InputSpec
		for j := 0; j < inputsPerTask; j++ {
			ins = append(ins, InputSpec{SizeMB: 8, Replicas: []int{(i + j) % 4}})
		}
		req.Tasks = append(req.Tasks, TaskSpec{Inputs: ins})
	}
	return req
}

// rejection asserts a 400/413 with the right reason bucket and message
// fragment.
func rejection(t *testing.T, reg *telemetry.Registry, resp *http.Response, body []byte, status int, reason, fragment string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d: %.200s", resp.StatusCode, status, body)
	}
	if !strings.Contains(string(body), fragment) {
		t.Fatalf("body %.200q lacks %q", body, fragment)
	}
	if got := metricValue(t, reg, MetricRequestsRejected, fmt.Sprintf("reason=%q", reason)); got != 1 {
		t.Fatalf("rejection counter[%s] = %v, want 1", reason, got)
	}
}

// TestTaskLimitBoundary: exactly the task cap is accepted; one past is
// rejected in the too_many_tasks bucket.
func TestTaskLimitBoundary(t *testing.T) {
	streaming(t, ServerOptions{Limits: RequestLimits{Tasks: 4}}, func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry) {
		resp, body := post(t, srv, "/v1/plan", nTaskRequest(4, 1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("at-limit request rejected: %d %.200s", resp.StatusCode, body)
		}
		resp, body = post(t, srv, "/v1/plan", nTaskRequest(5, 1))
		rejection(t, reg, resp, body, http.StatusBadRequest, "too_many_tasks", "maximum")
	})
}

// TestInputLimitBoundary: exactly the per-task input cap is accepted; one
// past is rejected in the too_many_inputs bucket.
func TestInputLimitBoundary(t *testing.T) {
	streaming(t, ServerOptions{Limits: RequestLimits{InputsPerTask: 3}}, func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry) {
		resp, body := post(t, srv, "/v1/plan", nTaskRequest(2, 3))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("at-limit request rejected: %d %.200s", resp.StatusCode, body)
		}
		resp, body = post(t, srv, "/v1/plan", nTaskRequest(2, 4))
		rejection(t, reg, resp, body, http.StatusBadRequest, "too_many_inputs", "per task")
	})
}

// TestBodyLimitBoundary: a body of exactly the byte cap is accepted; one
// byte past is rejected with 413 in the too_large bucket.
func TestBodyLimitBoundary(t *testing.T) {
	raw, err := json.Marshal(nTaskRequest(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	exact := int64(len(raw))
	streaming(t, ServerOptions{Limits: RequestLimits{BodyBytes: exact}}, func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry) {
		resp, err := http.Post(srv.URL+"/v1/plan", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exact-size body rejected: %d", resp.StatusCode)
		}
	})
	streaming(t, ServerOptions{Limits: RequestLimits{BodyBytes: exact - 1}}, func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry) {
		resp, body := post(t, srv, "/v1/plan", nTaskRequest(4, 1))
		rejection(t, reg, resp, body, http.StatusRequestEntityTooLarge, "too_large", "exceeds")
		if !resp.Close && resp.Header.Get("Connection") != "close" {
			t.Error("oversized-body response does not close the connection")
		}
	})
}

// TestNodesProcsLimitBoundary: the node and process caps hold at the
// boundary and one past it.
func TestNodesProcsLimitBoundary(t *testing.T) {
	streaming(t, ServerOptions{Limits: RequestLimits{Nodes: 8, Procs: 4}}, func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry) {
		req := nTaskRequest(2, 1)
		req.Nodes = 8
		req.ProcNodes = []int{0, 1, 2, 3}
		resp, body := post(t, srv, "/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("at-limit nodes/procs rejected: %d %.200s", resp.StatusCode, body)
		}
		req.Nodes = 9
		resp, body = post(t, srv, "/v1/plan", req)
		rejection(t, reg, resp, body, http.StatusBadRequest, "invalid", "nodes 9 exceeds maximum 8")
		req.Nodes = 8
		req.ProcNodes = []int{0, 1, 2, 3, 0}
		resp, body = post(t, srv, "/v1/plan", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("over-limit proc_nodes status %d: %.200s", resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "proc_nodes") || !strings.Contains(string(body), "maximum") {
			t.Fatalf("over-limit proc_nodes body %.200q lacks a specific message", body)
		}
	})
}

// TestStreamingFieldOrder: the streaming decoder must accept tasks arriving
// before nodes/proc_nodes (JSON key order is not guaranteed) and still
// apply node-dependent validation correctly.
func TestStreamingFieldOrder(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	body := `{"tasks": [
		{"inputs": [{"size_mb": 16, "replicas": [0]}]},
		{"inputs": [{"size_mb": 16, "replicas": [1]}]},
		{"inputs": [{"size_mb": 16, "replicas": [2]}]}
	], "seed": 5, "proc_nodes": [0, 1, 2], "nodes": 3}`
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tasks-first request rejected: %d", resp.StatusCode)
	}
	var out PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Owner) != 3 || out.LocalityFraction != 1.0 {
		t.Fatalf("plan = %+v, want 3 fully local tasks", out)
	}

	// Node-dependent validation still fires when nodes arrives last.
	bad := `{"tasks": [{"inputs": [{"size_mb": 16, "replicas": [7]}]}], "nodes": 3}`
	resp2, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp2.Body)
	if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), "task 0 input 0") {
		t.Fatalf("out-of-range replica after reorder: %d %s", resp2.StatusCode, buf)
	}
}

// TestStreamingUnknownFields: unknown keys are rejected at the top level
// and inside nested task/input objects.
func TestStreamingUnknownFields(t *testing.T) {
	streaming(t, ServerOptions{}, func(t *testing.T, srv *httptest.Server, reg *telemetry.Registry) {
		for _, body := range []string{
			`{"nodes": 4, "bogus": 1, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}]}`,
			`{"nodes": 4, "tasks": [{"bogus": 1, "inputs": [{"size_mb": 1, "replicas": [0]}]}]}`,
			`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0], "bogus": 1}]}]}`,
		} {
			resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("unknown field accepted (%d): %s", resp.StatusCode, body)
			}
		}
	})
}

// TestDecodeRejections: malformed requests answer 400 — the
// TestValidationErrors table plus fault-spec shapes, repeated keys,
// trailing data, and fields a reused task buffer must not carry over from
// the previous task.
func TestDecodeRejections(t *testing.T) {
	cases := []string{
		`{"nodes": 0, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}]}`,
		`{"nodes": 4}`,
		`{"nodes": 4, "tasks": []}`,
		`{"nodes": 4, "tasks": [{}]}`,
		`{"nodes": 4, "tasks": [{"inputs": []}]}`,
		`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 0, "replicas": [0]}]}]}`,
		`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 1}]}]}`,
		`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [9]}]}]}`,
		`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [1, 1]}]}]}`,
		`{"nodes": 4, "proc_nodes": [9], "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}]}`,
		`{"nodes": 4, "failures": [{"node": 9, "at_seconds": 1}], "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}]}`,
		`{"nodes": 4, "repair_delay_seconds": -1, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}]}`,
		`not json`,
		`[1, 2]`,
		`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}], "tasks": []}`,
		`{"nodes": 4, "proc_nodes": [0], "proc_nodes": [1], "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}]}`,
		`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}]} garbage`,
		`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}]}{"nodes": -1}`,
		`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}, {"inputs": [{"replicas": [1]}]}]}`,
		`{"nodes": 4, "tasks": [{"inputs": [{"size_mb": 1, "replicas": [0]}]}, {"inputs": [{"size_mb": 1}]}]}`,
	}
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	for i, body := range cases {
		resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400: %s", i, resp.StatusCode, body)
		}
	}
}

// TestCompactJSONAndPretty: responses are compact by default; ?pretty=1
// opts into indented output.
func TestCompactJSONAndPretty(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	_, body := post(t, srv, "/v1/plan", layoutRequest("opass"))
	if bytes.Contains(bytes.TrimRight(body, "\n"), []byte("\n")) {
		t.Fatalf("default response is not compact: %.200q", body)
	}
	_, body = post(t, srv, "/v1/plan?pretty=1", layoutRequest("opass"))
	if !bytes.Contains(body, []byte("\n  ")) {
		t.Fatalf("?pretty=1 response is not indented: %.200q", body)
	}
}

// TestPickAssignerServesDinic: the default strategy plans every
// single-data problem with Dinic, at paper scale and at bulk scale alike;
// there is no task-count threshold that switches solvers.
func TestPickAssignerServesDinic(t *testing.T) {
	for _, n := range []int{64, 1 << 13} {
		a, apiErr := pickAssigner(&PlanRequest{}, &core.Problem{Tasks: make([]core.Task, n)})
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		if sd, ok := a.(core.SingleData); !ok || sd.Algorithm != bipartite.Dinic {
			t.Fatalf("%d-task assigner = %#v, want SingleData with Dinic", n, a)
		}
	}
}
