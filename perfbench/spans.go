package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"polis/internal/cfsm"
	"polis/internal/pipeline"
)

// span is one timed interval of a traced run. Spans of one network
// compile, request or simulation share Run; Parent is 0 for a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Run     string  `json:"run"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanLog keeps the spans of a traced run in memory; it is written out
// once, when the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span and returns its ID.
func (l *spanLog) add(parent int, name, layer, run string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Run: run,
		StartUS: us(start.Sub(l.t0)), EndUS: us(end.Sub(l.t0))})
	return id
}

// extend moves the end of span id to end if that is later.
func (l *spanLog) extend(id int, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := us(end.Sub(l.t0)); e > l.spans[id-1].EndUS {
		l.spans[id-1].EndUS = e
	}
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// selfByLayer returns each layer's self time in µs: a span's duration
// minus the part of its interval covered by its children, summed over
// the layer's spans.
func (l *spanLog) selfByLayer() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range l.spans {
		self[s.Layer] += (s.EndUS - s.StartUS) - covered(s, children[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals clipped to
// the parent's interval.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartUS, parent.StartUS), min(k.EndUS, parent.EndUS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, parent.StartUS
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// layers is the fixed layer vocabulary of the self-time shares; every
// traced run prints a share for each, zero where the workload does not
// reach the layer.
var layers = []string{
	"loadgen",   // open-loop schedule wait before a request is sent
	"transport", // HTTP client + loopback + server handler outside polisd's own time
	"polisd",    // server time not covered by the layers below
	"decode",    // JSON unmarshal + polisd.DecodeNetwork
	"pipeline",  // scheduling, fingerprint and cache I/O
	"bdd",       // reactive build and sifting
	"sgraph",    // s-graph construction, reduction
	"codegen",   // assemble, emit C, cycle analysis
	"estimate",  // cost/performance estimation
	"sim.build", // sim task build (synthesis for the VM)
	"sim.loop",  // RTOS scheduler + VM execution
}

// addShares adds share.<layer>_pct for every layer of the vocabulary.
// Spans of other layers (the "probe" spans around calls the benchmark
// makes only to time a layer) are left out of the total.
func addShares(out *outcome) {
	self := out.spans.selfByLayer()
	total := 0.0
	for _, l := range layers {
		total += self[l]
	}
	for _, l := range layers {
		v := 0.0
		if total > 0 {
			v = 100 * self[l] / total
		}
		out.layers["share."+l+"_pct"] = metric{v, "%"}
	}
	// The stress split each workload was chosen for: synthesis on
	// synth-cold, the warm read path on svc-edit, the loop on sim-loop.
	group := func(ls ...string) float64 {
		v := 0.0
		for _, l := range ls {
			v += out.layers["share."+l+"_pct"].Value
		}
		return v
	}
	out.name("stress.synthesis_pct", group("bdd", "sgraph", "codegen", "estimate"), "%")
	out.name("stress.read_path_pct", group("transport", "decode", "polisd", "pipeline"), "%")
	out.name("stress.sim_loop_pct", group("sim.loop"), "%")
}

// stageLayer maps a pipeline stage to its layer.
func stageLayer(s pipeline.Stage) string {
	switch s {
	case pipeline.StageReactive, pipeline.StageSift:
		return "bdd"
	case pipeline.StageSGraph, pipeline.StageReduce, pipeline.StageSpecialize:
		return "sgraph"
	case pipeline.StageCodegen:
		return "codegen"
	default:
		return "estimate"
	}
}

// layerTrace is the benchmark's pipeline.Trace: it sums stage times
// and BDD counters and, when it has a span log, turns each module's
// EvStage events into a module span with one child span per stage.
type layerTrace struct {
	mu sync.Mutex

	stage              map[pipeline.Stage]time.Duration
	peakNodes, swaps   int
	opHits, opMisses   int
	lookups, cacheHits int
	runWall            time.Duration
	runWorkers         int

	log        *spanLog
	parent     int
	run        string
	moduleSpan map[string]int
}

func newLayerTrace(log *spanLog) *layerTrace {
	return &layerTrace{stage: map[pipeline.Stage]time.Duration{}, log: log}
}

// begin attributes the following events' spans to parent and run.
func (t *layerTrace) begin(parent int, run string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.parent, t.run = parent, run
	t.moduleSpan = map[string]int{}
}

// Event implements pipeline.Trace.
func (t *layerTrace) Event(e pipeline.Event) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e.Kind {
	case pipeline.EvStage:
		t.stage[e.Stage] += e.Duration
		if t.log != nil {
			start := now.Add(-e.Duration)
			mod, ok := t.moduleSpan[e.Module]
			if !ok {
				mod = t.log.add(t.parent, "module "+e.Module, "pipeline", t.run, start, now)
				t.moduleSpan[e.Module] = mod
			}
			t.log.extend(mod, now)
			t.log.add(mod, e.Stage.String(), stageLayer(e.Stage), t.run, start, now)
		}
	case pipeline.EvBDD:
		t.peakNodes += e.PeakNodes
		t.swaps += e.SiftSwaps
		t.opHits += e.CacheHits
		t.opMisses += e.CacheMisses
	case pipeline.EvCacheHit, pipeline.EvDedup:
		t.lookups++
		t.cacheHits++
	case pipeline.EvCacheMiss:
		t.lookups++
	case pipeline.EvRunStart:
		t.runWorkers = e.Workers
	case pipeline.EvRunEnd:
		t.runWall += e.Duration
	}
}

// addLayerMetrics adds the pipeline-derived per-layer metrics, with
// times divided by ops (the workload's operations they were spent on).
func (t *layerTrace) addLayerMetrics(out *outcome, ops float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	per := func(d time.Duration) float64 {
		if ops <= 0 {
			return 0
		}
		return ms(d) / ops
	}
	perOp := func(n int) float64 {
		if ops <= 0 {
			return 0
		}
		return float64(n) / ops
	}
	out.layers["bdd.reactive_ms"] = metric{per(t.stage[pipeline.StageReactive]), "ms"}
	out.layers["bdd.sift_ms"] = metric{per(t.stage[pipeline.StageSift]), "ms"}
	out.layers["bdd.peak_nodes"] = metric{perOp(t.peakNodes), "count"}
	out.layers["bdd.sift_swaps"] = metric{perOp(t.swaps), "count"}
	hit := 0.0
	if t.opHits+t.opMisses > 0 {
		hit = 100 * float64(t.opHits) / float64(t.opHits+t.opMisses)
	}
	out.layers["bdd.op_cache_hit_pct"] = metric{hit, "%"}
	out.layers["sgraph.build_ms"] = metric{per(t.stage[pipeline.StageSGraph]), "ms"}
	// Reduction does not run on sim-loop, so its time is a report line
	// rather than a per-layer metric every workload must print.
	out.name("sgraph.reduce_ms", per(t.stage[pipeline.StageReduce]), "ms")
	out.layers["codegen.ms"] = metric{per(t.stage[pipeline.StageCodegen]), "ms"}
	out.layers["estimate.ms"] = metric{per(t.stage[pipeline.StageEstimate]), "ms"}
}

// busyPct is Σ module stage time / (run wall × workers) over the
// pipeline runs this trace saw.
func (t *layerTrace) busyPct() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.runWall <= 0 || t.runWorkers <= 0 {
		return 0
	}
	var busy time.Duration
	for _, d := range t.stage {
		busy += d
	}
	return 100 * float64(busy) / (float64(t.runWall) * float64(t.runWorkers))
}

// hitPct is (mem + disk + dedup) / lookups over the cache events seen.
func (t *layerTrace) hitPct() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lookups == 0 {
		return 0
	}
	return 100 * float64(t.cacheHits) / float64(t.lookups)
}

// replayWritePath times the cache calls a cold compile makes for each
// module, outside any timed region: Fingerprint, a Get that misses on
// a fresh cache, and Put of the artifact.
func replayWritePath(out *outcome, net *cfsm.Network, arts []*pipeline.Artifact, opt pipeline.Options) {
	const reps = 3
	keys := make([]string, len(net.Machines))
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		for i, m := range net.Machines {
			keys[i] = pipeline.Fingerprint(m, opt)
		}
	}
	fp := us(time.Since(t0)) / float64(reps*len(keys))
	var get, put time.Duration
	for rep := 0; rep < reps; rep++ {
		cache, _ := pipeline.NewCache("") // a memory-only cache cannot fail
		t0 = time.Now()
		for _, k := range keys {
			cache.Get(k)
		}
		get += time.Since(t0)
		t0 = time.Now()
		for i, a := range arts {
			cache.Put(keys[i], a)
		}
		put += time.Since(t0)
	}
	calls := float64(reps * len(keys))
	out.layers["pipeline.fingerprint_us"] = metric{fp, "us"}
	out.layers["pipeline.cache_get_us"] = metric{us(get) / calls, "us"}
	out.layers["pipeline.cache_put_us"] = metric{us(put) / calls, "us"}
}

// addIdleLayers sets the metrics of layers the workload does not reach
// to zero, so every traced run prints the same metric set.
func addIdleLayers(out *outcome, names ...string) {
	for _, n := range names {
		switch n {
		case "pipeline":
			out.layers["pipeline.busy_pct"] = metric{0, "%"}
			out.layers["pipeline.hit_pct"] = metric{0, "%"}
			out.layers["pipeline.fingerprint_us"] = metric{0, "us"}
			out.layers["pipeline.cache_get_us"] = metric{0, "us"}
			out.layers["pipeline.cache_put_us"] = metric{0, "us"}
		case "polisd":
			out.layers["polisd.decode_us"] = metric{0, "us"}
			out.layers["polisd.miss_pct"] = metric{0, "%"}
			out.layers["polisd.rejected"] = metric{0, "count"}
		case "sim":
			out.layers["rtos.executions"] = metric{0, "count"}
			out.layers["rtos.lost"] = metric{0, "count"}
			out.layers["vm.busy_cycles"] = metric{0, "count"}
		}
	}
}

// addRuntimeLayers adds the go.* metrics over a traced window of ops
// operations.
func addRuntimeLayers(out *outcome, a, b runtimeSample, ops float64) {
	out.layers["go.gc_cpu_pct"] = metric{a.gcPct(b), "%"}
	out.layers["go.alloc_mb"] = metric{a.allocMB(b) / max(ops, 1), "MB"}
}

// addGraphLayers adds the s-graph size counters of a set of artifacts,
// per operation.
func addGraphLayers(out *outcome, arts []*pipeline.Artifact, ops float64) {
	var vertices, elim int
	for _, a := range arts {
		vertices += a.Stats.Vertices
		elim += a.Reduce.TestsEliminated
	}
	ops = max(ops, 1)
	out.layers["sgraph.vertices"] = metric{float64(vertices) / ops, "count"}
	out.layers["sgraph.tests_eliminated"] = metric{float64(elim) / ops, "count"}
}
