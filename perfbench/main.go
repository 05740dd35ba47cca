// Command perfbench is the repository benchmark: one command that
// generates seeded inputs, runs one workload against the public APIs
// of the synthesis pipeline (polis, internal/pipeline), the synthesis
// service (internal/polisd) or the co-simulator (internal/sim), checks
// every output, and prints each metric by name with its unit.
//
//	perfbench --workload synth-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last stdout line is a JSON object whose metrics
// are the end-to-end metrics of BENCHMARK.json; with --trace 1 it
// carries the per-layer metrics of a traced run instead, and the
// recorded spans are written to .bench_build/spans/. Lines before the last one are
// the human-readable report: one "metric <name> <value> <unit>" line
// per workload-specific metric (synth.*, svc.*, sim.*, ...). See
// README.md for the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"
)

// nproc bounds every source of concurrency the benchmark creates:
// pipeline jobs, server workers, sender goroutines and connections.
var nproc = runtime.NumCPU()

// setupRounds is how many times each workload sets up per run; setup_s
// is their lower quartile: a busy host only ever slows a round, so the
// fast rounds are the ones closest to the set-up work itself.
const setupRounds = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses the command line, runs one benchmark invocation and
// returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: synth-cold, svc-edit or sim-loop")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed,
		window: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}
	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", *workload, *seed))
	return runWith(cfg, spans, stdout)
}

// runWith runs one workload, writing the report and the result line to
// stdout and, for a traced run, the spans to spansPath. It returns the
// process exit code.
func runWith(cfg runConfig, spansPath string, stdout io.Writer) int {
	var out *outcome
	var err error
	switch cfg.workload {
	case "synth-cold":
		out, err = runSynthCold(cfg)
	case "svc-edit":
		out, err = runSvcEdit(cfg)
	case "sim-loop":
		out, err = runSimLoop(cfg)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want synth-cold, svc-edit or sim-loop)\n", cfg.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.traced {
		if err := out.spans.write(spansPath); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(out.spans.spans), spansPath)
	}
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "check-failed %s\n", p)
	}
	out.printReport(stdout)
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.e2e,
	}
	if cfg.traced {
		res.Metrics = out.layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runConfig is what every workload receives.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	small    bool // smallest input sizes, for the self-test only
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is a workload's measured run.
type outcome struct {
	attempted, failed int
	problems          []string // failed output checks, one line each

	e2e    map[string]metric // BENCHMARK.json end_to_end (untraced runs)
	layers map[string]metric // BENCHMARK.json per_layer (traced runs)
	// named holds the workload-specific metrics (synth.*, svc.*,
	// sim.*, ...) in print order.
	named []namedMetric
	spans *spanLog
}

type namedMetric struct {
	name string
	metric
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layers: map[string]metric{}, spans: newSpanLog()}
}

func (o *outcome) name(name string, v float64, unit string) {
	o.named = append(o.named, namedMetric{name, metric{v, unit}})
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	} else if len(o.problems) == 20 {
		o.problems = append(o.problems, "further check failures suppressed")
	}
}

// printReport prints the human-readable report lines: the
// workload-specific metrics, then the BENCHMARK.json metrics of this
// mode, each as "metric <name> <value> <unit>".
func (o *outcome) printReport(w io.Writer) {
	failPct := 0.0
	if o.attempted > 0 {
		failPct = 100 * float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "metric fail_pct %s %%\n", fmtFloat(failPct))
	for _, m := range o.named {
		fmt.Fprintf(w, "metric %s %s %s\n", m.name, fmtFloat(m.Value), m.Unit)
	}
	for _, set := range []map[string]metric{o.e2e, o.layers} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "metric %s %s %s\n", n, fmtFloat(set[n].Value), set[n].Unit)
		}
	}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// setupTimes runs setup setupRounds times and returns the last state
// with the lower quartile of the set-up times in CPU seconds of the
// process (the host's steal left out). Each round starts from a
// collected heap without the previous round's state, so rounds see the
// same runtime state.
func setupTimes[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var state, none T
	var times []float64
	for i := 0; i < setupRounds; i++ {
		if i > 0 && release != nil {
			release(state)
		}
		state = none
		runtime.GC()
		c0 := cpuTime()
		s, err := setup()
		if err != nil {
			return none, 0, err
		}
		times = append(times, (cpuTime() - c0).Seconds())
		state = s
	}
	return state, percentile(times, 0.25), nil
}

// cycles runs cycle at least once and then again as long as another
// cycle, as long as the last one, still ends inside the window.
func cycles(window time.Duration, cycle func()) {
	start := time.Now()
	for {
		c0 := time.Now()
		cycle()
		if now := time.Now(); now.Sub(start)+now.Sub(c0) > window {
			return
		}
	}
}

// parallel runs f(0..n-1) on nproc goroutines and returns the first
// error by index.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int, n) // sized to the number of sends
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < min(nproc, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank percentile of xs (p in (0,1]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// timedOp is one timed operation: the work it did (modules compiled,
// reactions executed), its wall and process CPU time, the heap it
// allocated and the reference kernel run just before it.
type timedOp struct {
	work  int64
	wall  time.Duration
	cpu   time.Duration
	alloc float64
	ref   refSample
}

// quiesce collects the heap and runs the reference kernel; every timed
// operation starts from it, so no operation pays for the garbage of
// the one before and each has a host-speed sample next to it.
func quiesce() refSample {
	runtime.GC()
	return measureRef()
}

// summary condenses a run's timed operations.
type summary struct {
	perS     float64 // work per second of wall time
	p50, p90 float64 // operation wall time, ms
	cpuMs    float64 // mean process CPU time per operation, ms
	allocMB  float64 // mean heap allocated per operation
}

func summarize(ops []timedOp) summary {
	var walls []float64
	var wall, cpu time.Duration
	var work int64
	var sum summary
	for _, o := range ops {
		walls = append(walls, ms(o.wall))
		wall += o.wall
		cpu += o.cpu
		work += o.work
		sum.allocMB += o.alloc
	}
	if len(ops) == 0 || wall <= 0 {
		return summary{}
	}
	n := float64(len(ops))
	sum.perS = float64(work) / wall.Seconds()
	sum.p50, sum.p90 = median(walls), percentile(walls, 0.9)
	sum.cpuMs = ms(cpu) / n
	sum.allocMB /= n
	return sum
}

// addTimeMetrics records the gated time metric, cpu_norm: the mean
// process CPU time per operation over the median CPU time of the
// reference kernel's runs. It also reports the kernel's own figures.
func (o *outcome) addTimeMetrics(cpuMs float64, refs []refSample) {
	var walls, cpus []float64
	for _, r := range refs {
		walls = append(walls, ms(r.wall))
		cpus = append(cpus, ms(r.cpu))
	}
	refCPU := median(cpus)
	o.name("ref.wall_ms", median(walls), "ms")
	o.name("ref.cpu_ms", refCPU, "ms")
	o.e2e["cpu_norm"] = metric{cpuMs / refCPU, "x"}
}

func refsOf(ops []timedOp) []refSample {
	refs := make([]refSample, len(ops))
	for i, op := range ops {
		refs[i] = op.ref
	}
	return refs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runtimeSample is a point-in-time reading of the Go runtime counters
// the go.* layer metrics are deltas of.
type runtimeSample struct {
	totalAlloc      uint64
	gcCPU, totalCPU float64
}

func sampleRuntime() runtimeSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	r := runtimeSample{totalAlloc: m.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	return r
}

// allocMB is the heap allocated since r, in MB.
func (r runtimeSample) allocMB(now runtimeSample) float64 {
	return float64(now.totalAlloc-r.totalAlloc) / 1e6
}

// gcPct is the share of CPU time spent in the garbage collector since
// r, in percent.
func (r runtimeSample) gcPct(now runtimeSample) float64 {
	if d := now.totalCPU - r.totalCPU; d > 0 {
		return 100 * (now.gcCPU - r.gcCPU) / d
	}
	return 0
}

// overheadPct is the traced-minus-untraced difference of a time per
// operation, in percent of the untraced one.
func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 || traced <= 0 || math.IsInf(untraced, 0) || math.IsInf(traced, 0) {
		return 0
	}
	return 100 * (traced/untraced - 1)
}

// okPct is the share of attempted operations that succeeded and
// passed their checks.
func okPct(out *outcome) float64 {
	if out.attempted == 0 {
		return 0
	}
	return 100 * float64(out.attempted-out.failed) / float64(out.attempted)
}
