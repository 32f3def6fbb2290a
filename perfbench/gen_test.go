package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, w := range []string{wPlanBulk, wSimPaper, wFleetRepeat} {
		t.Run(w, func(t *testing.T) {
			a, err := generate(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			defer a.arena.free()
			b, err := generate(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			defer b.arena.free()
			if len(a.bodies) != len(b.bodies) || len(a.warmB) != len(b.warmB) {
				t.Fatalf("body counts differ: %d/%d vs %d/%d", len(a.bodies), len(a.warmB), len(b.bodies), len(b.warmB))
			}
			for i := range a.bodies {
				if !bytes.Equal(a.bodies[i], b.bodies[i]) {
					t.Fatalf("body %d differs between two generations with the same seed", i)
				}
			}
			for i := range a.warmB {
				if !bytes.Equal(a.warmB[i], b.warmB[i]) {
					t.Fatalf("warm-up body %d differs between two generations with the same seed", i)
				}
			}
			if len(a.seq) != len(b.seq) {
				t.Fatalf("sequence lengths differ: %d vs %d", len(a.seq), len(b.seq))
			}
			for k := range a.seq {
				if a.seq[k] != b.seq[k] {
					t.Fatalf("request %d of the sequence differs: %+v vs %+v", k, a.seq[k], b.seq[k])
				}
			}

			c, err := generate(w, 8)
			if err != nil {
				t.Fatal(err)
			}
			defer c.arena.free()
			for i := range a.bodies {
				if bytes.Equal(a.bodies[i], c.bodies[i]) {
					t.Fatalf("body %d is the same under seeds 7 and 8", i)
				}
			}
			if w == wFleetRepeat {
				same := 0
				for k := range a.seq {
					if a.seq[k] == c.seq[k] {
						same++
					}
				}
				if same == len(a.seq) {
					t.Fatal("the fleet sequence is the same under seeds 7 and 8")
				}
			}
		})
	}
}

func TestGeneratedLayouts(t *testing.T) {
	for _, w := range []string{wPlanBulk, wSimPaper, wFleetRepeat} {
		set, err := generate(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		classes := map[int]int{}
		crashes := 0
		for i, l := range set.layouts {
			classes[l.procs]++
			if l.crash >= 0 {
				crashes++
			}
			for in := 0; in < l.inputs(); in++ {
				r := l.replicas(in)
				if r[0] == r[1] || r[0] == r[2] || r[1] == r[2] {
					t.Fatalf("%s layout %d input %d: replicas %v not distinct", w, i, in, r)
				}
				for _, n := range r {
					if int(n) >= l.procs {
						t.Fatalf("%s layout %d input %d: replica %d outside %d nodes", w, i, in, n, l.procs)
					}
				}
			}
			// Every body is a request the server's decoder accepts as JSON
			// with the layout's task count.
			var req struct {
				Nodes int               `json:"nodes"`
				Tasks []json.RawMessage `json:"tasks"`
			}
			if err := json.Unmarshal(set.bodies[i], &req); err != nil {
				t.Fatalf("%s body %d: %v", w, i, err)
			}
			if req.Nodes != l.procs || len(req.Tasks) != l.tasks {
				t.Fatalf("%s body %d: %d nodes, %d tasks; layout has %d, %d", w, i, req.Nodes, len(req.Tasks), l.procs, l.tasks)
			}
		}
		switch w {
		case wPlanBulk:
			// Each block of four holds the 1:1:2 mix.
			if classes[64] != bulkBodies/4 || classes[128] != bulkBodies/4 || classes[256] != bulkBodies/2 {
				t.Fatalf("plan-bulk classes %v", classes)
			}
		case wSimPaper:
			if crashes != len(set.layouts)/2 {
				t.Fatalf("sim-paper: %d of %d layouts crash a node, want half", crashes, len(set.layouts))
			}
		case wFleetRepeat:
			hits := make([]int, fleetPool)
			for _, q := range set.seq {
				hits[q.layout]++
			}
			top := 0
			for _, h := range hits {
				if h > top {
					top = h
				}
			}
			if top < len(set.seq)/8 {
				t.Fatalf("fleet popularity is not skewed: most popular layout drew %d of %d", top, len(set.seq))
			}
		}
		set.arena.free()
	}
}
