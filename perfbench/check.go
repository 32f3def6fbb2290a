package main

import (
	"encoding/json"
	"fmt"
	"math"

	"opass/internal/httpapi"
)

// The checker validates a response against the layout it answers. It runs
// after the timed phase, so its cost never shows in a latency.

// Strategy names the server reports for the two planners these workloads
// reach.
const (
	strategySingle = "opass-flow"
	strategyMulti  = "opass-matching"
)

// checkPlan validates a plan for l: one in-range owner per task, lists that
// partition the tasks and agree with the owners, per-process task counts
// within the equal-share quota, and a locality fraction equal to the one
// recomputed from l's replicas. It returns the plan's local and total MB.
func checkPlan(l *layout, p *httpapi.PlanResponse) (localMB, totalMB float64, err error) {
	want := strategySingle
	if len(l.sizes) > 1 {
		want = strategyMulti
	}
	if p.Strategy != want {
		return 0, 0, fmt.Errorf("strategy %q, want %q", p.Strategy, want)
	}
	if len(p.Owner) != l.tasks {
		return 0, 0, fmt.Errorf("owner lists %d tasks, want %d", len(p.Owner), l.tasks)
	}
	for t, o := range p.Owner {
		if o < 0 || o >= l.procs {
			return 0, 0, fmt.Errorf("task %d owned by process %d outside [0,%d)", t, o, l.procs)
		}
	}
	if len(p.Lists) != l.procs {
		return 0, 0, fmt.Errorf("%d lists, want %d", len(p.Lists), l.procs)
	}
	lo, hi := l.tasks/l.procs, (l.tasks+l.procs-1)/l.procs
	seen := make([]bool, l.tasks)
	for proc, list := range p.Lists {
		if len(list) < lo || len(list) > hi {
			return 0, 0, fmt.Errorf("process %d holds %d tasks, quota is %d..%d", proc, len(list), lo, hi)
		}
		for _, t := range list {
			if t < 0 || t >= l.tasks {
				return 0, 0, fmt.Errorf("list of process %d names task %d outside [0,%d)", proc, t, l.tasks)
			}
			if seen[t] {
				return 0, 0, fmt.Errorf("task %d listed twice", t)
			}
			seen[t] = true
			if p.Owner[t] != proc {
				return 0, 0, fmt.Errorf("task %d listed under process %d but owned by %d", t, proc, p.Owner[t])
			}
		}
	}
	for t, ok := range seen {
		if !ok {
			return 0, 0, fmt.Errorf("task %d in no list", t)
		}
	}
	// Processes run one per node, so process o reads locally from node o.
	in := 0
	for t := 0; t < l.tasks; t++ {
		for _, size := range l.sizes {
			for _, r := range l.replicas(in) {
				if int(r) == p.Owner[t] {
					localMB += size
					break
				}
			}
			totalMB += size
			in++
		}
	}
	if frac := localMB / totalMB; math.Abs(frac-p.LocalityFraction) > 1e-9 {
		return 0, 0, fmt.Errorf("locality_fraction %v, recomputed %v", p.LocalityFraction, frac)
	}
	return localMB, totalMB, nil
}

// checkSimulate validates a simulation for l: its plan as checkPlan does,
// and a summary that ran every task and read every input once.
func checkSimulate(l *layout, s *httpapi.SimulateResponse) (localMB, totalMB float64, err error) {
	if localMB, totalMB, err = checkPlan(l, &s.Plan); err != nil {
		return 0, 0, fmt.Errorf("plan: %w", err)
	}
	if s.Summary.Tasks != l.tasks {
		return 0, 0, fmt.Errorf("summary ran %d tasks, want %d", s.Summary.Tasks, l.tasks)
	}
	if s.Summary.IO.Count != l.inputs() {
		return 0, 0, fmt.Errorf("summary made %d reads, want %d", s.Summary.IO.Count, l.inputs())
	}
	if !(s.Summary.Makespan > 0) || math.IsInf(s.Summary.Makespan, 0) {
		return 0, 0, fmt.Errorf("summary makespan %v", s.Summary.Makespan)
	}
	return localMB, totalMB, nil
}

// verdict is the checked outcome of one distinct response body.
type verdict struct {
	err      error
	localMB  float64
	totalMB  float64
	makespan float64 // simulate only
	ioSum    float64 // simulate only: summed per-read I/O seconds
	ioCount  int
	plan     *httpapi.PlanResponse
}

// checkBody decodes and checks one 200 response for l.
func checkBody(l *layout, simulate bool, body []byte) verdict {
	if simulate {
		var s httpapi.SimulateResponse
		if err := json.Unmarshal(body, &s); err != nil {
			return verdict{err: fmt.Errorf("decode simulate response: %w", err)}
		}
		local, total, err := checkSimulate(l, &s)
		return verdict{err: err, localMB: local, totalMB: total, makespan: s.Summary.Makespan,
			ioSum: s.Summary.IO.Sum, ioCount: s.Summary.IO.Count, plan: &s.Plan}
	}
	var p httpapi.PlanResponse
	if err := json.Unmarshal(body, &p); err != nil {
		return verdict{err: fmt.Errorf("decode plan response: %w", err)}
	}
	local, total, err := checkPlan(l, &p)
	return verdict{err: err, localMB: local, totalMB: total, plan: &p}
}
