package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"syscall"
)

// This file generates every workload input from the seed. A layout is kept
// in compact form (for the checker and the direct layer calls) next to its
// pre-rendered JSON body, so no request pays for body generation.

// Workload names, as given to --workload.
const (
	wPlanBulk    = "plan-bulk"
	wSimPaper    = "sim-paper"
	wFleetRepeat = "fleet-repeat"
)

// Workload shapes.
const (
	tasksPerProcBulk = 100 // plan-bulk and fleet-repeat: tasks per process
	simNodes         = 64  // sim-paper: the paper's Fig. 9 scale
	simTasksPerProc  = 10
	fleetPool        = 32  // fleet-repeat: distinct layouts
	fleetProcs       = 256 // fleet-repeat: processes per layout
	fleetL1Entries   = 8   // fleet-repeat: per-replica L1 bound, below fleetPool
	fleetReplicas    = 2
	fleetZipfS       = 1.2 // Zipf exponent of layout popularity
	crashAtSeconds   = 2.0 // permanent node crash time in faulted simulations
	replicasPerInput = 3
)

// bulkBlock is the plan-bulk size mix: every run of four consecutive bodies
// holds these process counts in a seeded order, so the class shares of any
// prefix stay within one body of 1:1:2. Latency sorts 128 < 256 < 64 procs
// today (Kuhn on 12.8k, Kuhn on 25.6k, Edmonds-Karp on 6.4k tasks), which
// puts the median in the middle of the 256 block and p90 inside the 64 block.
var bulkBlock = [4]int{64, 128, 256, 256}

// simSizesMB are the three inputs of every sim-paper task.
var simSizesMB = []float64{30, 20, 10}

// bulkSizesMB is the one input of every plan-bulk and fleet-repeat task.
var bulkSizesMB = []float64{64}

// layout is one request's block layout: procs processes, one per node,
// tasks tasks each reading len(sizes) inputs with replicasPerInput distinct
// replica nodes. crash >= 0 schedules a permanent crash of that node at
// crashAtSeconds with replan and repair (simulate requests only).
type layout struct {
	procs int
	tasks int
	sizes []float64
	reps  []uint16 // task-major: tasks × len(sizes) × replicasPerInput
	crash int
}

// inputs reports the number of task inputs (chunk reads) in the layout.
func (l *layout) inputs() int { return l.tasks * len(l.sizes) }

// replicas returns input in's replica nodes.
func (l *layout) replicas(in int) []uint16 {
	return l.reps[in*replicasPerInput : (in+1)*replicasPerInput]
}

// totalMB is the layout's input bytes in MB.
func (l *layout) totalMB() float64 {
	var per float64
	for _, s := range l.sizes {
		per += s
	}
	return per * float64(l.tasks)
}

// streamSeed derives an independent generator seed for item i of a named
// stream, so any body can be regenerated without generating the others.
func streamSeed(seed int64, stream string, i int) int64 {
	h := uint64(1469598103934665603)
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h ^= uint64(seed) * 0x9E3779B97F4A7C15
	h ^= uint64(i+1) * 0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return int64(h * 0xBF58476D1CE4E5B9)
}

// newLayout draws a layout: every input gets replicasPerInput distinct
// uniformly random nodes.
func newLayout(rng *rand.Rand, procs, tasks int, sizes []float64, crash int) *layout {
	l := &layout{procs: procs, tasks: tasks, sizes: sizes, crash: crash,
		reps: make([]uint16, tasks*len(sizes)*replicasPerInput)}
	for in := 0; in < tasks*len(sizes); in++ {
		a := rng.Intn(procs)
		b := rng.Intn(procs - 1)
		if b >= a {
			b++
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		c := rng.Intn(procs - 2)
		if c >= lo {
			c++
		}
		if c >= hi {
			c++
		}
		r := l.replicas(in)
		r[0], r[1], r[2] = uint16(a), uint16(b), uint16(c)
	}
	return l
}

// appendBody renders the layout as a /v1/plan or /v1/simulate request body.
func appendBody(b []byte, l *layout) []byte {
	b = append(b, `{"nodes":`...)
	b = strconv.AppendInt(b, int64(l.procs), 10)
	if l.crash >= 0 {
		b = append(b, `,"failures":[{"node":`...)
		b = strconv.AppendInt(b, int64(l.crash), 10)
		b = append(b, `,"at_seconds":`...)
		b = strconv.AppendFloat(b, crashAtSeconds, 'g', -1, 64)
		b = append(b, `}],"replan":true,"repair":true`...)
	}
	b = append(b, `,"tasks":[`...)
	in := 0
	for t := 0; t < l.tasks; t++ {
		if t > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"inputs":[`...)
		for i, size := range l.sizes {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"size_mb":`...)
			b = strconv.AppendFloat(b, size, 'g', -1, 64)
			b = append(b, `,"replicas":[`...)
			for k, r := range l.replicas(in) {
				if k > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(r), 10)
			}
			b = append(b, "]}"...)
			in++
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}"...)
}

// inputSet is a workload's generated inputs: layouts with their bodies,
// the order requests visit them, and the warm-up layouts sent during
// set-up.
type inputSet struct {
	layouts []*layout
	bodies  [][]byte // bodies[i] renders layouts[i]; stored off the Go heap
	warm    []*layout
	warmB   [][]byte
	// seq is the fleet-repeat request sequence: entry k sends layout
	// seq[k].layout to replica seq[k].replica. Nil for the other
	// workloads, which send layouts[0], layouts[1], ... in order.
	seq   []fleetReq
	arena *arena
}

type fleetReq struct {
	layout  uint8
	replica uint8
}

// Body counts. plan-bulk and sim-paper send every layout at most once, so
// their pools hold half again what a 20-second run sends today; a run that
// exhausts its pool ends its timed phase early and reports the rates over
// the time it ran.
const (
	bulkBodies  = 128
	simBodies   = 256
	fleetSeqLen = 1 << 16
)

// generate builds the inputs of workload w from seed.
func generate(w string, seed int64) (*inputSet, error) {
	set := &inputSet{arena: &arena{}}
	switch w {
	case wPlanBulk:
		order := rand.New(rand.NewSource(streamSeed(seed, "bulk-order", 0)))
		var block [4]int
		for i := 0; i < bulkBodies; i++ {
			if i%4 == 0 {
				block = bulkBlock
				order.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			}
			procs := block[i%4]
			rng := rand.New(rand.NewSource(streamSeed(seed, "bulk", i)))
			set.layouts = append(set.layouts, newLayout(rng, procs, procs*tasksPerProcBulk, bulkSizesMB, -1))
		}
		for i, procs := range []int{64, 128, 256} {
			rng := rand.New(rand.NewSource(streamSeed(seed, "bulk-warm", i)))
			set.warm = append(set.warm, newLayout(rng, procs, procs*tasksPerProcBulk, bulkSizesMB, -1))
		}
	case wSimPaper:
		for i := 0; i < simBodies; i++ {
			set.layouts = append(set.layouts, simLayout(seed, "sim", i))
		}
		for i := 0; i < 2; i++ {
			set.warm = append(set.warm, simLayout(seed, "sim-warm", i))
		}
	case wFleetRepeat:
		for i := 0; i < fleetPool; i++ {
			rng := rand.New(rand.NewSource(streamSeed(seed, "fleet", i)))
			set.layouts = append(set.layouts, newLayout(rng, fleetProcs, fleetProcs*tasksPerProcBulk, bulkSizesMB, -1))
		}
		rng := rand.New(rand.NewSource(streamSeed(seed, "fleet-seq", 0)))
		rank := rng.Perm(fleetPool) // popularity rank -> layout
		zipf := rand.NewZipf(rng, fleetZipfS, 1, fleetPool-1)
		set.seq = make([]fleetReq, fleetSeqLen)
		for k := range set.seq {
			set.seq[k] = fleetReq{layout: uint8(rank[zipf.Uint64()]), replica: uint8(rng.Intn(fleetReplicas))}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", w, wPlanBulk, wSimPaper, wFleetRepeat)
	}
	var scratch []byte
	render := func(ls []*layout) ([][]byte, error) {
		out := make([][]byte, len(ls))
		for i, l := range ls {
			scratch = appendBody(scratch[:0], l)
			b, err := set.arena.store(scratch)
			if err != nil {
				set.arena.free()
				return nil, err
			}
			out[i] = b
		}
		return out, nil
	}
	var err error
	if set.bodies, err = render(set.layouts); err != nil {
		return nil, err
	}
	if set.warmB, err = render(set.warm); err != nil {
		return nil, err
	}
	return set, nil
}

// simLayout draws sim-paper layout i: odd layouts crash a seeded node.
func simLayout(seed int64, stream string, i int) *layout {
	rng := rand.New(rand.NewSource(streamSeed(seed, stream, i)))
	crash := -1
	if i%2 == 1 {
		crash = rng.Intn(simNodes)
	}
	return newLayout(rng, simNodes, simNodes*simTasksPerProc, simSizesMB, crash)
}

// crashNode is the seeded node a plan-only workload's simulated plan i
// loses at crashAtSeconds.
func crashNode(seed int64, l *layout, i int) int {
	return rand.New(rand.NewSource(streamSeed(seed, "crash", i))).Intn(l.procs)
}

// arena stores request bodies in anonymous mappings outside the Go heap, so
// the benchmark's own inputs neither count in the heap metrics nor slow the
// garbage collector's pacing of the server under test.
type arena struct {
	segs [][]byte
	cur  []byte // unused tail of the last segment
}

const arenaSegment = 32 << 20

func (a *arena) store(b []byte) ([]byte, error) {
	if len(b) > len(a.cur) {
		size := arenaSegment
		if len(b) > size {
			size = len(b)
		}
		seg, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("map body arena: %w", err)
		}
		a.segs = append(a.segs, seg)
		a.cur = seg
	}
	out := a.cur[:len(b):len(b)]
	copy(out, b)
	a.cur = a.cur[len(b):]
	return out, nil
}

// free unmaps every segment; bodies from the arena must not be used after.
func (a *arena) free() {
	for _, s := range a.segs {
		_ = syscall.Munmap(s) // the mapping is private and anonymous; nothing to flush
	}
	a.segs, a.cur = nil, nil
}
