// Process-mode sharding: each shard becomes one `polisc shard-worker`
// OS process. The driver hands a Job (sub-network in the polisd wire
// format plus the shared cache directory) to each worker's stdin; the
// worker synthesizes its modules through the shared on-disk cache and
// emits one NDJSON Result line per module. Artifacts themselves never
// cross the pipe: the disk cache is the shuffle layer, so the reducer
// re-reads every artifact by fingerprint — which also makes a warm
// second run an all-disk-hit run for free.

package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"time"

	"polis/internal/cfsm"
	"polis/internal/pipeline"
	"polis/internal/polisd"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

// Job is the unit of work handed to one shard-worker process on its
// standard input.
type Job struct {
	Shard    int                 `json:"shard"`
	CacheDir string              `json:"cache_dir"`
	Network  *polisd.WireNetwork `json:"network"`
	Options  polisd.WireOptions  `json:"options"`
}

// Result is one NDJSON line a shard worker emits per module, in the
// shard's module order. The artifact stays in the shared cache; the
// fingerprint is the reducer's key to fetch it back.
type Result struct {
	Shard       int     `json:"shard"`
	Module      string  `json:"module"`
	Fingerprint string  `json:"fingerprint"`
	Cache       string  `json:"cache"` // "miss" | "mem" | "disk" | "dedup"
	Ms          float64 `json:"ms"`
	Error       string  `json:"error,omitempty"`
}

// wireOptions maps pipeline options back onto the wire form, erroring
// on options the wire cannot carry (a silent drop would change the
// workers' fingerprints and break the shuffle-layer lookup).
func wireOptions(opt pipeline.Options) (polisd.WireOptions, error) {
	var w polisd.WireOptions
	if opt.Target != nil {
		if _, err := vm.ProfileByName(opt.Target.Name); err != nil {
			return w, fmt.Errorf("shard: target %q not supported in process mode", opt.Target.Name)
		}
		w.Target = opt.Target.Name
	}
	name, ok := opt.Ordering.Name()
	if !ok {
		return w, fmt.Errorf("shard: ordering %v not supported in process mode", opt.Ordering)
	}
	w.Ordering = name
	w.OptimizeCopies = opt.Codegen.OptimizeCopies
	w.IfThreshold = opt.Codegen.IfThreshold
	w.UseFalsePaths = opt.UseFalsePaths
	w.Reduce = opt.Reduce
	if opt.Reduce && opt.ReduceOpt != (sgraph.ReduceOptions{}) {
		return w, errors.New("shard: tuned reduce options not supported in process mode")
	}
	if opt.Profile != nil {
		return w, errors.New("shard: profile-guided specialization not supported in process mode")
	}
	return w, nil
}

// Worker is the body of the `polisc shard-worker` subcommand: decode
// one Job from r, synthesize its modules in order through the shared
// on-disk cache, and write one Result line per module to w. Module
// failures are reported in-band (Result.Error) and do not stop the
// remaining modules — shards are independent, so the driver aggregates
// errors across all of them.
func Worker(r io.Reader, w io.Writer) error {
	var job Job
	if err := json.NewDecoder(r).Decode(&job); err != nil {
		return fmt.Errorf("shard worker: decode job: %w", err)
	}
	if job.CacheDir == "" {
		return errors.New("shard worker: job has no cache_dir (the shared disk cache is the shuffle layer)")
	}
	net, err := polisd.DecodeNetwork(job.Network)
	if err != nil {
		return fmt.Errorf("shard worker: %w", err)
	}
	opt, err := job.Options.Options()
	if err != nil {
		return fmt.Errorf("shard worker: %w", err)
	}
	cache, err := pipeline.NewCache(job.CacheDir)
	if err != nil {
		return fmt.Errorf("shard worker: %w", err)
	}
	enc := json.NewEncoder(w)
	for _, m := range net.Machines {
		res := Result{
			Shard:       job.Shard,
			Module:      m.Name,
			Fingerprint: pipeline.Fingerprint(m, opt),
		}
		t0 := time.Now()
		_, out, err := cache.SynthesizeCached(context.Background(), m, opt, nil)
		res.Ms = float64(time.Since(t0).Microseconds()) / 1000
		res.Cache = out.String()
		if err != nil {
			res.Error = err.Error()
		}
		if err := enc.Encode(res); err != nil {
			return fmt.Errorf("shard worker: emit result: %w", err)
		}
	}
	return nil
}

// RunProcs is Run with each shard in its own OS process: workerCmd is
// the argv prefix of the worker (e.g. ["polisc", "shard-worker"]),
// spawned once per non-empty shard with the shard's Job on stdin. The
// shared opt.CacheDir is the shuffle layer: workers publish artifacts
// there (the cross-process-safe CreateTemp+rename publish keeps
// concurrent same-fingerprint writers from tearing files) and the
// reduce phase fetches every artifact back by fingerprint, in network
// order, so the output is byte-identical to an in-process run.
func RunProcs(ctx context.Context, net *cfsm.Network, opt Options, workerCmd []string) (*Report, error) {
	if opt.CacheDir == "" {
		return nil, errors.New("shard: process mode needs a cache directory (-cache)")
	}
	if len(workerCmd) == 0 {
		return nil, errors.New("shard: process mode needs a worker command")
	}
	wopt, err := wireOptions(opt.Pipeline)
	if err != nil {
		return nil, err
	}
	machines := net.Machines
	shards := opt.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > len(machines) {
		shards = len(machines)
	}
	if shards < 1 {
		shards = 1
	}
	parts := Partition(machines, shards, opt.Strategy)

	master := pipeline.NewCollector()
	master.Event(pipeline.Event{Kind: pipeline.EvRunStart, Modules: len(machines), Workers: shards})
	start := time.Now()

	stats := make([]ShardStat, shards)
	resultsByModule := make(map[string]Result, len(machines))
	procErrs := make([]error, shards)
	var mu sync.Mutex // guards resultsByModule
	var wg sync.WaitGroup
	for si := range parts {
		stats[si].Shard = si
		stats[si].Modules = len(parts[si])
		if len(parts[si]) == 0 {
			continue
		}
		members := make([]*cfsm.CFSM, len(parts[si]))
		for i, mi := range parts[si] {
			members[i] = machines[mi]
		}
		sub := net.Subnet(fmt.Sprintf("%s-shard%d", net.Name, si), members)
		job, err := json.Marshal(Job{
			Shard:    si,
			CacheDir: opt.CacheDir,
			Network:  polisd.EncodeNetwork(sub),
			Options:  wopt,
		})
		if err != nil {
			return nil, fmt.Errorf("shard %d: encode job: %w", si, err)
		}
		wg.Add(1)
		go func(si int, job []byte) {
			defer wg.Done()
			t0 := time.Now()
			defer func() { stats[si].Wall = time.Since(t0) }()
			cmd := exec.CommandContext(ctx, workerCmd[0], workerCmd[1:]...)
			cmd.Stdin = bytes.NewReader(job)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				procErrs[si] = fmt.Errorf("shard %d: %w", si, err)
				return
			}
			if err := cmd.Start(); err != nil {
				procErrs[si] = fmt.Errorf("shard %d: start worker: %w", si, err)
				return
			}
			sc := bufio.NewScanner(stdout)
			sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
			for sc.Scan() {
				var res Result
				if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
					procErrs[si] = fmt.Errorf("shard %d: bad result line: %w", si, err)
					break
				}
				mu.Lock()
				resultsByModule[res.Module] = res
				mu.Unlock()
				stats[si].count(outcomeFromString(res.Cache))
			}
			if err := cmd.Wait(); err != nil && procErrs[si] == nil {
				msg := strings.TrimSpace(stderr.String())
				if msg != "" {
					procErrs[si] = fmt.Errorf("shard %d: worker failed: %v: %s", si, err, msg)
				} else {
					procErrs[si] = fmt.Errorf("shard %d: worker failed: %w", si, err)
				}
			}
		}(si, job)
	}
	wg.Wait()
	for _, err := range procErrs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("shard: run cancelled: %w", err)
	}

	// Reduce: fetch every artifact from the shuffle layer by
	// fingerprint, in network order. A fresh cache instance keeps the
	// reducer honest — it can only see what the workers published.
	popt := opt.Pipeline
	rcache, err := pipeline.NewCache(opt.CacheDir)
	if err != nil {
		return nil, err
	}
	arts := make([]*pipeline.Artifact, len(machines))
	var moduleErrs []error
	for i, m := range machines {
		res, ok := resultsByModule[m.Name]
		if !ok {
			moduleErrs = append(moduleErrs, fmt.Errorf("module %s: no result from its shard worker", m.Name))
			continue
		}
		if res.Error != "" {
			moduleErrs = append(moduleErrs, fmt.Errorf("module %s: %s", m.Name, res.Error))
			master.Event(pipeline.Event{Kind: pipeline.EvModuleError, Module: m.Name, Err: errors.New(res.Error)})
			continue
		}
		// Mirror the worker's outcome into the merged collector so the
		// stats report attributes lookups the same way an in-process
		// run would (per-stage timings stay in the worker processes).
		switch outcomeFromString(res.Cache) {
		case pipeline.OutcomeMiss:
			master.Event(pipeline.Event{Kind: pipeline.EvCacheMiss, Module: m.Name})
		case pipeline.OutcomeDedup:
			master.Event(pipeline.Event{Kind: pipeline.EvDedup, Module: m.Name})
		case pipeline.OutcomeDiskHit:
			master.Event(pipeline.Event{Kind: pipeline.EvCacheHit, Module: m.Name, FromDisk: true})
		case pipeline.OutcomeMemHit:
			master.Event(pipeline.Event{Kind: pipeline.EvCacheHit, Module: m.Name})
		}
		key := pipeline.Fingerprint(m, popt)
		if res.Fingerprint != key {
			moduleErrs = append(moduleErrs, fmt.Errorf("module %s: worker fingerprint %.12s != driver %.12s (options drifted?)",
				m.Name, res.Fingerprint, key))
			continue
		}
		a, _, ok := rcache.Get(key)
		if !ok {
			moduleErrs = append(moduleErrs, fmt.Errorf("module %s: artifact %.12s missing from the shuffle cache", m.Name, key))
			continue
		}
		arts[i] = a
	}

	cst := rcache.Stats()
	master.Event(pipeline.Event{Kind: pipeline.EvRunEnd, Duration: time.Since(start), Cache: &cst})
	rep := &Report{
		Artifacts: arts,
		Shards:    stats,
		Wall:      time.Since(start),
		Collector: master,
		Procs:     true,
	}
	for _, st := range stats {
		rep.Total.Miss += st.Miss
		rep.Total.Mem += st.Mem
		rep.Total.Disk += st.Disk
		rep.Total.Dedup += st.Dedup
		rep.Total.Modules += st.Modules
	}
	if len(moduleErrs) > 0 {
		return nil, fmt.Errorf("shard: %d of %d module(s) failed: %w",
			len(moduleErrs), len(machines), errors.Join(moduleErrs...))
	}
	return rep, nil
}

// outcomeFromString reverses pipeline.Outcome.String for the wire.
func outcomeFromString(s string) pipeline.Outcome {
	switch s {
	case "mem":
		return pipeline.OutcomeMemHit
	case "disk":
		return pipeline.OutcomeDiskHit
	case "dedup":
		return pipeline.OutcomeDedup
	default:
		return pipeline.OutcomeMiss
	}
}
