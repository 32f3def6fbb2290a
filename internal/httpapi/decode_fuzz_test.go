package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// planRequestKeys returns PlanRequest's JSON field names. The service
// matches top-level keys exactly, where encoding/json would also take a
// case-folded variant.
func planRequestKeys() map[string]bool {
	keys := map[string]bool{}
	rt := reflect.TypeOf(PlanRequest{})
	for i := 0; i < rt.NumField(); i++ {
		if name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ","); name != "" {
			keys[name] = true
		}
	}
	return keys
}

// oracleResult is the reference decoder's verdict on one body.
type oracleResult struct {
	// broken holds the rejection bucket of every documented rule the body
	// breaks, one entry per broken rule; empty means accepted.
	broken []string
	// partial marks a body too malformed to check every rule, so the
	// streaming decoder may legitimately stop at a different one first.
	partial bool
	// On acceptance: the decoded request and the resolved process→node map.
	req       PlanRequest
	procNodes []int
}

// oracleDecode is the reference the streaming decoder is fuzzed against:
// encoding/json decodes the whole body in one call, and the documented
// rules are applied to the materialized request.
func oracleDecode(body []byte, lim RequestLimits) oracleResult {
	var res oracleResult
	if int64(len(body)) > lim.BodyBytes {
		res.broken = append(res.broken, "too_large")
	}
	invalid := func() { res.broken = append(res.broken, "invalid") }

	// Walk the top-level object: exact key names, no repeated tasks or
	// proc_nodes, nothing but whitespace after the closing brace.
	walk := json.NewDecoder(bytes.NewReader(body))
	if tok, err := walk.Token(); err != nil || tok != json.Delim('{') {
		invalid()
		res.partial = true
		return res
	}
	known, seen := planRequestKeys(), map[string]bool{}
	for walk.More() {
		tok, err := walk.Token()
		if err != nil {
			invalid()
			res.partial = true
			return res
		}
		key := tok.(string)
		if !known[key] || (seen[key] && (key == "tasks" || key == "proc_nodes")) {
			invalid()
		}
		seen[key] = true
		var raw json.RawMessage
		if err := walk.Decode(&raw); err != nil {
			invalid()
			res.partial = true
			return res
		}
	}
	if _, err := walk.Token(); err != nil {
		invalid()
		res.partial = true
		return res
	}
	if _, err := walk.Token(); err != io.EOF {
		invalid()
	}

	// The body is syntactically one object, so Decode fills every field it
	// can even when it reports a type mismatch or an unknown nested field.
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	req := &res.req
	if err := dec.Decode(req); err != nil {
		invalid()
	}

	if req.Nodes <= 0 || req.Nodes > lim.Nodes {
		invalid()
	}
	if len(req.Tasks) == 0 {
		invalid()
	}
	if len(req.Tasks) > lim.Tasks {
		res.broken = append(res.broken, "too_many_tasks")
	}
	for _, task := range req.Tasks {
		if len(task.Inputs) > lim.InputsPerTask {
			res.broken = append(res.broken, "too_many_inputs")
		}
		if len(task.Inputs) == 0 {
			invalid()
		}
		for _, in := range task.Inputs {
			if in.SizeMB <= 0 || len(in.Replicas) == 0 {
				invalid()
			}
			seenRep := map[int]bool{}
			for _, rep := range in.Replicas {
				if rep < 0 || rep >= req.Nodes || seenRep[rep] {
					invalid()
				}
				seenRep[rep] = true
			}
		}
	}
	if apiErr := validateFaults(req); apiErr != nil {
		res.broken = append(res.broken, apiErr.reason)
	}
	if req.Nodes > 0 && req.Nodes <= lim.Nodes {
		procNodes, apiErr := resolveProcNodes(req, lim)
		if apiErr != nil {
			res.broken = append(res.broken, apiErr.reason)
		}
		res.procNodes = procNodes
	}
	return res
}

// checkDecode runs body through the service decoder and the oracle under
// lim and fails on any disagreement: accept or reject, the reason bucket
// when the oracle sees one, and the decoded problem when both accept.
func checkDecode(t *testing.T, body []byte, lim RequestLimits) {
	t.Helper()
	want := oracleDecode(body, lim)
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
	req, prob, apiErr := decodeProblem(httptest.NewRecorder(), r, lim)

	if len(want.broken) > 0 {
		if apiErr == nil {
			t.Fatalf("decoder accepted a body the oracle rejects %v\nlimits %+v\nbody %q", want.broken, lim, body)
		}
		buckets := slices.Clone(want.broken)
		slices.Sort(buckets)
		buckets = slices.Compact(buckets)
		if !want.partial && len(buckets) == 1 && apiErr.reason != buckets[0] {
			t.Fatalf("decoder rejected in bucket %q (%v), oracle in %q\nlimits %+v\nbody %q",
				apiErr.reason, apiErr, buckets[0], lim, body)
		}
		return
	}
	if apiErr != nil {
		t.Fatalf("decoder rejected a body the oracle accepts: %s %v\nlimits %+v\nbody %q", apiErr.reason, apiErr, lim, body)
	}

	if req.Nodes != want.req.Nodes || !slices.Equal(prob.ProcNode, want.procNodes) {
		t.Fatalf("nodes/procs: decoder %d %v, oracle %d %v\nbody %q",
			req.Nodes, prob.ProcNode, want.req.Nodes, want.procNodes, body)
	}
	if len(prob.Tasks) != len(want.req.Tasks) {
		t.Fatalf("decoder has %d tasks, oracle %d\nbody %q", len(prob.Tasks), len(want.req.Tasks), body)
	}
	inputs := 0
	for ti, task := range want.req.Tasks {
		got := prob.Tasks[ti].Inputs
		if len(got) != len(task.Inputs) {
			t.Fatalf("task %d: decoder has %d inputs, oracle %d\nbody %q", ti, len(got), len(task.Inputs), body)
		}
		for ii, in := range task.Inputs {
			reps := slices.Clone(in.Replicas)
			slices.Sort(reps)
			chunk := prob.FS.Chunk(got[ii].Chunk)
			if got[ii].SizeMB != in.SizeMB || !slices.Equal(chunk.Replicas, reps) {
				t.Fatalf("task %d input %d: decoder %v MB on %v, oracle %v MB on %v\nbody %q",
					ti, ii, got[ii].SizeMB, chunk.Replicas, in.SizeMB, reps, body)
			}
		}
		inputs += len(task.Inputs)
	}
	if req.weight != int64(len(want.req.Tasks)+inputs) {
		t.Fatalf("admission weight %d, want %d tasks + %d inputs", req.weight, len(want.req.Tasks), inputs)
	}
	// The remaining fields feed the planner and the simulator unchanged.
	gotRest, wantRest := *req, want.req
	gotRest.ProcNodes, gotRest.Tasks, gotRest.weight = nil, nil, 0
	wantRest.ProcNodes, wantRest.Tasks = nil, nil
	if !reflect.DeepEqual(gotRest, wantRest) {
		t.Fatalf("request fields: decoder %+v, oracle %+v\nbody %q", gotRest, wantRest, body)
	}
}

// FuzzDecodeProblem holds the streaming decoder to the encoding/json
// oracle under small limits taken from the input. The committed corpus
// carries every body the boundary and rejection tests send.
func FuzzDecodeProblem(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, bodyBytes uint16, nodes, procs, tasks, inputs uint8) {
		checkDecode(t, body, RequestLimits{
			BodyBytes:     int64(max(bodyBytes, 1)),
			Nodes:         int(max(nodes, 1)),
			Procs:         int(max(procs, 1)),
			Tasks:         int(max(tasks, 1)),
			InputsPerTask: int(max(inputs, 1)),
		})
	})
}
