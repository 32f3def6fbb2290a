package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"opass/internal/bipartite"
	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/engine"
	"opass/internal/httpapi"
	"opass/internal/plancache"
	"opass/internal/telemetry"
)

// This file calls each layer's public functions directly on a workload's
// generated layouts, the way the server composes them, with a span around
// every call.

// layoutView is the cluster view of a submitted layout: one rack.
type layoutView struct{ n int }

func (v layoutView) NumNodes() int  { return v.n }
func (v layoutView) RackOf(int) int { return 0 }

// buildProblem mirrors l into a fresh in-memory file system the way the
// server's streaming decoder does: one bulk-created file, one chunk per
// input, processes one per node.
func buildProblem(l *layout) (*core.Problem, error) {
	sizes := make([]float64, l.inputs())
	reps := make([][]int, l.inputs())
	flat := make([]int, len(l.reps))
	for i, r := range l.reps {
		flat[i] = int(r)
	}
	for in := range reps {
		sizes[in] = l.sizes[in%len(l.sizes)]
		reps[in] = flat[in*replicasPerInput : (in+1)*replicasPerInput]
	}
	fs := dfs.New(layoutView{l.procs}, dfs.Config{Replication: 1})
	f, err := fs.CreateChunksReplicated("/layout/tasks", sizes, reps)
	if err != nil {
		return nil, fmt.Errorf("create layout chunks: %w", err)
	}
	prob := &core.Problem{ProcNode: make([]int, l.procs), FS: fs, Tasks: make([]core.Task, l.tasks)}
	for i := range prob.ProcNode {
		prob.ProcNode[i] = i
	}
	backing := make([]core.Input, l.inputs())
	for t := range prob.Tasks {
		k := len(l.sizes)
		ins := backing[t*k : (t+1)*k : (t+1)*k]
		for j := range ins {
			ins[j] = core.Input{Chunk: f.Chunks[t*k+j], SizeMB: l.sizes[j]}
		}
		prob.Tasks[t] = core.Task{ID: t, Inputs: ins}
	}
	return prob, nil
}

// kuhnThreshold is the task count at which the server's default strategy
// switches single-data problems from Edmonds-Karp to the Kuhn matcher.
const kuhnThreshold = 1 << 13

// serverAssigner resolves the planner the server picks for l's default
// strategy.
func serverAssigner(l *layout) core.Assigner {
	if len(l.sizes) > 1 {
		return core.MultiData{}
	}
	sd := core.SingleData{}
	if l.tasks >= kuhnThreshold {
		sd.Algorithm = bipartite.Kuhn
	}
	return sd
}

// equalQuotas splits n equal tasks of size units over m processes: task
// counts as the planners compute them, and the matching MB quotas.
func equalQuotas(n, m int, size int64) (counts []int, quotas []int64) {
	counts = make([]int, m)
	quotas = make([]int64, m)
	for i := range counts {
		counts[i] = n / m
		if i < n%m {
			counts[i]++
		}
		quotas[i] = int64(counts[i]) * size
	}
	return counts, quotas
}

// localityGraph builds the bipartite graph from the index's edges, with
// weights in whole MB (every input here is at least 1 MB, so the planners'
// capacity unit is 1 MB).
func localityGraph(prob *core.Problem, ix *core.LocalityIndex) *bipartite.Graph {
	m := prob.NumProcs()
	byP := make([][]bipartite.Edge, m)
	for p := 0; p < m; p++ {
		es := ix.ProcEdges(p)
		out := make([]bipartite.Edge, len(es))
		for i, e := range es {
			out[i] = bipartite.Edge{P: p, F: e.Task, Weight: int64(math.Max(1, math.Round(e.MB)))}
		}
		byP[p] = out
	}
	return bipartite.NewGraphFromSorted(m, len(prob.Tasks), byP)
}

// simulation is one engine run and the network flows it started.
type simulation struct {
	res   *engine.Result
	flows int64
}

// simulate executes a plan for l on a fresh Marmot cluster; crash >= 0
// loses that node at crashAtSeconds with replan and repair, as the
// simulate requests do.
func simulate(ctx context.Context, prob *core.Problem, a *core.Assignment, strategy string, crash int) (simulation, error) {
	topo := cluster.New(len(prob.ProcNode), cluster.Marmot())
	opts := engine.Options{Topo: topo, FS: prob.FS, Problem: prob, Strategy: strategy}
	if crash >= 0 {
		opts.Failures = []engine.NodeFailure{{Node: crash, At: crashAtSeconds}}
		opts.Replan, opts.Repair = true, true
	}
	res, err := engine.RunAssignmentContext(ctx, opts, a)
	if err != nil {
		return simulation{}, fmt.Errorf("simulate: %w", err)
	}
	return simulation{res: res, flows: topo.Net().Started()}, nil
}

// layerCounts accumulates the per-layer counts over the sampled requests.
type layerCounts struct {
	samples        int
	chunks         float64
	indexEdges     float64
	repairTasks    float64
	graphEdges     float64
	localMB        float64
	canonicalBytes float64
	responseBytes  float64
	nonplannerMS   float64
	tierPayload    float64
	tierFound      int
	sims           int
	reads          float64
	retries        float64
	replans        float64
	repaired       float64
	flows          float64
}

// layerPass calls every layer on the sampled layouts. srvFor gives the
// server whose ServeHTTP sample k is sent to, with its metrics registry;
// tier is the shared tier to time Get and Set against, and tierFetch says
// whether the sample's plan is expected there (fleet-repeat) or must be
// stored first. The first simulated samples also run in the engine.
func layerPass(ctx context.Context, tr *tracer, b *bench, samples []int, srvFor func(k int) (http.Handler, *telemetry.Registry),
	tier plancache.Tier, tierFetch bool, simulated int) (layerCounts, error) {
	var lc layerCounts
	for k, li := range samples {
		l := b.in.layouts[li]
		req := tr.newRequest()
		root := tr.start("harness.layers", req, 0)

		assigner := serverAssigner(l)
		h, reg := srvFor(k)
		plans := reg.Counter(httpapi.MetricPlans, telemetry.L("strategy", assigner.Name()))
		plans0 := plans.Value()
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, b.path, bytes.NewReader(b.in.bodies[li]))
		srvSpan := tr.start("httpapi.server", req, root.ID)
		h.ServeHTTP(rec, hreq)
		tr.end(srvSpan)
		if rec.Code != http.StatusOK {
			return lc, fmt.Errorf("layer pass: layout %d answered %d: %s", li, rec.Code, rec.Body.String())
		}
		v := checkBody(l, b.simulate, rec.Body.Bytes())
		if v.err != nil {
			return lc, fmt.Errorf("layer pass: layout %d: %w", li, v.err)
		}
		var resp any = v.plan
		if b.simulate {
			var s httpapi.SimulateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
				return lc, err
			}
			resp = &s
		}
		var encoded []byte
		var encErr error
		tr.timed("httpapi.encode", req, root.ID, func() { encoded, encErr = json.Marshal(resp) })
		if encErr != nil {
			return lc, encErr
		}
		lc.responseBytes += float64(len(encoded))
		// A cached plan carries the planner time of the request that
		// computed it; only a request that ran the planner spent it.
		nonplanner := float64(srvSpan.End-srvSpan.Start) / 1e6
		if plans.Value() > plans0 {
			nonplanner -= v.plan.PlannerMillis
		}
		lc.nonplannerMS += nonplanner

		var prob *core.Problem
		var err error
		tr.timed("dfs.build", req, root.ID, func() { prob, err = buildProblem(l) })
		if err != nil {
			return lc, err
		}
		lc.chunks += float64(l.inputs())

		var key plancache.Key
		var canon []byte
		tr.timed("plancache.fingerprint", req, root.ID, func() {
			canon = prob.AppendCanonical(nil)
			var seed [8]byte
			binary.LittleEndian.PutUint64(seed[:], 0)
			key = plancache.KeyOf(canon, []byte(assigner.Name()), seed[:])
		})
		lc.canonicalBytes += float64(len(canon))

		var ix *core.LocalityIndex
		tr.timed("core.index", req, root.ID, func() { ix, err = core.NewLocalityIndexContext(ctx, prob) })
		if err != nil {
			return lc, err
		}
		lc.indexEdges += float64(ix.NumEdges())

		var g *bipartite.Graph
		tr.timed("bipartite.graph", req, root.ID, func() { g = localityGraph(prob, ix) })
		ix.Release()
		lc.graphEdges += float64(g.NumEdges())

		// The solve the server's planner runs on this graph: Kuhn's
		// matcher above the threshold, Edmonds-Karp below it. Multi-input
		// layouts are planned by matching, not flow; their solve times the
		// Edmonds-Karp flow a single-data planner would run on the same
		// graph.
		size := int64(math.Round(l.totalMB() / float64(l.tasks)))
		counts, quotas := equalQuotas(l.tasks, l.procs, size)
		sizes := make([]int64, l.tasks)
		for i := range sizes {
			sizes[i] = size
		}
		if sd, ok := assigner.(core.SingleData); ok && sd.Algorithm == bipartite.Kuhn {
			var matched int
			tr.timed("bipartite.solve", req, root.ID, func() { _, matched, err = bipartite.MatchAugmentingContext(ctx, g, counts) })
			lc.localMB += float64(matched) * float64(size)
		} else {
			var res bipartite.AssignResult
			tr.timed("bipartite.solve", req, root.ID, func() {
				res, err = bipartite.AssignMaxLocalityContext(ctx, g, quotas, sizes, bipartite.EdmondsKarp)
			})
			lc.localMB += float64(res.LocalMB)
		}
		if err != nil {
			return lc, err
		}
		tr.timed("bipartite.solve_dinic", req, root.ID, func() {
			_, err = bipartite.AssignMaxLocalityContext(ctx, g, quotas, sizes, bipartite.Dinic)
		})
		if err != nil {
			return lc, err
		}

		var a *core.Assignment
		tr.timed("core.assign", req, root.ID, func() { a, err = core.AssignContext(ctx, assigner, prob) })
		if err != nil {
			return lc, err
		}
		lc.repairTasks += float64(repairTasks(prob, a))

		// The shared tier: fleet-repeat's plans are already there under the
		// key the replicas use; the other workloads store this sample's
		// plan first.
		tierKey := plancache.TierKey(fmt.Sprintf("%s/e%d", httpapi.DefaultRemoteTierNamespace, prob.FS.Snapshot().Epoch), key)
		benchKey := plancache.TierKey("perfbench", key)
		if !tierFetch {
			tierKey = benchKey
			tr.timed("plancache.tier_set", req, root.ID, func() { err = tier.Set(ctx, tierKey, encoded, time.Minute) })
			if err != nil {
				return lc, fmt.Errorf("tier set: %w", err)
			}
		}
		var payload []byte
		var found bool
		tr.timed("plancache.tier_get", req, root.ID, func() { payload, found, err = tier.Get(ctx, tierKey) })
		if err != nil {
			return lc, fmt.Errorf("tier get: %w", err)
		}
		if found {
			lc.tierFound++
			lc.tierPayload += float64(len(payload))
		}
		if tierFetch {
			tr.timed("plancache.tier_set", req, root.ID, func() { err = tier.Set(ctx, benchKey, payload, time.Minute) })
			if err != nil {
				return lc, fmt.Errorf("tier set: %w", err)
			}
		}

		// The engine runs last: repair mutates the file system.
		if k < simulated {
			crash := l.crash
			if !b.simulate {
				crash = crashNode(b.seed, l, li)
			}
			var sim simulation
			tr.timed("engine.run", req, root.ID, func() { sim, err = simulate(ctx, prob, a, assigner.Name(), crash) })
			if err != nil {
				return lc, err
			}
			lc.sims++
			lc.reads += float64(len(sim.res.Records))
			lc.retries += float64(sim.res.Retries)
			lc.replans += float64(sim.res.Replans)
			lc.repaired += float64(sim.res.RepairedChunks)
			lc.flows += float64(sim.flows)
		}
		tr.end(root)
		lc.samples++
	}
	return lc, nil
}

// repairTasks counts the tasks the locality solver left unowned: for the
// flow planner, the owners it did not match; for the matching planner,
// which records no such split, the tasks whose owner holds none of their
// data.
func repairTasks(prob *core.Problem, a *core.Assignment) int {
	n := 0
	for t, o := range a.Owner {
		if a.Matched != nil {
			if !a.Matched[t] {
				n++
			}
		} else if prob.CoLocatedMB(o, t) == 0 {
			n++
		}
	}
	return n
}
