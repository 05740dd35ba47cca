package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"polis/internal/cfsm"
	"polis/internal/pipeline"
	"polis/internal/polisd"
	"polis/internal/randcfsm"
)

// svc-edit: the developer/CI edit loop against polisd. A pool of
// seeded 8-module networks is warmed into the server's memory cache;
// then aggregate POST /synthesize requests arrive open-loop at a fixed
// rate, about one in ten preceded by a one-machine randcfsm.Mutate
// that forces exactly one miss. The warm read path (HTTP, JSON,
// DecodeNetwork, Fingerprint, Cache.Get) does most of the work.

const (
	// The pool's content sets the CPU cost of a request; with 16
	// networks that cost still differed by about 10% between seeds.
	svcNetworks = 48
	svcModules  = 8
	// svcRate keeps the parent commit far below saturation: a warm
	// request takes about 2 ms on one of the nproc connections.
	svcRate    = 100.0 // requests per second, open loop
	svcLimit   = 50 * time.Millisecond
	svcEditPct = 10
	// After every svcSegment requests the schedule pauses for svcGap,
	// and the reference kernel runs in the pause while the server is
	// idle: one host-speed sample per second of load.
	svcSegment = 100
	svcGap     = 40 * time.Millisecond
	// svcGiveUp bounds how long past its due time a request may run
	// before the client abandons it, so a stalled server ends the run
	// (every abandoned request counts against ok_pct).
	svcGiveUp = 5 * time.Second
)

// svcReq is one scheduled request: the body of network net at the
// given edit version.
type svcReq struct {
	net, version int
	body         []byte
}

type svcState struct {
	srv      *polisd.Server
	hs       *http.Server
	served   chan error
	url      string
	client   *http.Client
	schedule []svcReq
}

func (s *svcState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	_ = s.hs.Shutdown(ctx) // the listener is ours; a drain timeout leaves nothing to recover
	<-s.served
	_ = s.srv.Shutdown(ctx)
}

// newSvcState generates the pool and the request schedule, starts the
// server on a loopback listener and warms its cache with every pool
// network.
func newSvcState(seed int64, networks, requests int) (*svcState, error) {
	r := rand.New(rand.NewSource(seed))
	nets := make([]*cfsm.Network, networks)
	pool := make([][]*randcfsm.Machine, networks)
	for j := range nets {
		n, ms, err := randcfsm.NewNetwork(r, svcModules, randcfsm.DefaultConfig())
		if err != nil {
			return nil, err
		}
		n.Name = fmt.Sprintf("pool%02d", j)
		nets[j], pool[j] = n, ms
	}
	encode := func(j int) ([]byte, error) {
		return json.Marshal(polisd.SynthRequest{Network: polisd.EncodeNetwork(nets[j]),
			Options: polisd.WireOptions{Reduce: true}, Aggregate: true})
	}
	current := make([][]byte, networks)
	version := make([]int, networks)
	for j := range nets {
		b, err := encode(j)
		if err != nil {
			return nil, err
		}
		current[j] = b
	}
	warm := append([][]byte(nil), current...)
	// Exactly svcEditPct of the requests, at seeded positions, carry an
	// edit, so every seed has the same miss count.
	edit := make([]bool, requests)
	for _, i := range r.Perm(requests)[:requests*svcEditPct/100] {
		edit[i] = true
	}
	schedule := make([]svcReq, requests)
	for i := range schedule {
		j := r.Intn(networks)
		if edit[i] {
			randcfsm.Mutate(r, pool[j][r.Intn(svcModules)])
			b, err := encode(j)
			if err != nil {
				return nil, err
			}
			version[j]++
			current[j] = b
		}
		schedule[i] = svcReq{net: j, version: version[j], body: current[j]}
	}

	srv, err := polisd.New(polisd.Config{Workers: nproc})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &svcState{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}},
		schedule: schedule,
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	for j, b := range warm {
		resp, status, err := s.post(context.Background(), b)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		// A module identical to one of an earlier pool network is a
		// cache hit, not a miss; any outcome but an error warms it.
		if err == nil && (resp.Modules != svcModules || resp.Errors != 0) {
			err = fmt.Errorf("%d modules, %d errors, want %d modules", resp.Modules, resp.Errors, svcModules)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up of pool%02d: %w", j, err)
		}
	}
	return s, nil
}

func (s *svcState) post(ctx context.Context, body []byte) (*polisd.SynthResponse, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/synthesize", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	hr, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, hr.Body) // drained only to reuse the connection
		return nil, hr.StatusCode, nil
	}
	var resp polisd.SynthResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return nil, hr.StatusCode, err
	}
	return &resp, hr.StatusCode, nil
}

// stats reads GET /stats.
func (s *svcState) stats() (polisd.Stats, error) {
	var st polisd.Stats
	hr, err := s.client.Get(s.url + "/stats")
	if err != nil {
		return st, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: status %d", hr.StatusCode)
	}
	err = json.NewDecoder(hr.Body).Decode(&st)
	return st, err
}

// serverStageTotal is the server collector's Σ stage time so far.
func (s *svcState) serverStageTotal() time.Duration {
	var d time.Duration
	for st := pipeline.StageReactive; st <= pipeline.StageEstimate; st++ {
		d += s.srv.Collector().StageTotal(st)
	}
	return d
}

// svcResult is one request's timeline and response.
type svcResult struct {
	due, sent, done time.Time
	status          int
	err             error
	resp            *polisd.SynthResponse
}

func runSvcEdit(cfg runConfig) (*outcome, error) {
	networks := svcNetworks
	if cfg.small {
		networks = 4
	}
	requests := int(svcRate * cfg.window.Seconds())
	if requests < 1 {
		requests = 1
	}
	out := newOutcome()
	st, setupS, err := setupTimes(func() (*svcState, error) {
		return newSvcState(cfg.seed, networks, requests)
	}, func(s *svcState) { s.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	out.e2e["setup_s"] = metric{setupS, "s"}
	stats0, err := st.stats()
	if err != nil {
		return nil, err
	}

	// Open loop over nproc connections: request i is due at
	// start + i·interval, plus the pauses before it, whatever happened
	// before it. A free sender claims the next request, sleeps until it
	// is due and sends it; latency counts from the due time, so waiting
	// for a busy sender counts against the request.
	results := make([]svcResult, len(st.schedule))
	lateness := make([]float64, len(st.schedule)) // < 0: no sender was free at the due time
	interval := time.Duration(float64(time.Second) / svcRate)
	rtA, busyA := sampleRuntime(), st.serverStageTotal()
	cpuA := cpuTime()
	start := time.Now().Add(time.Millisecond)
	due := func(i int) time.Time {
		return start.Add(time.Duration(i)*interval + time.Duration(i/svcSegment)*svcGap)
	}
	var claim atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < nproc; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(claim.Add(1) - 1)
				if i >= len(results) {
					return
				}
				res := &results[i]
				res.due = due(i)
				lateness[i] = -1
				if d := time.Until(res.due); d > 0 {
					time.Sleep(d)
					lateness[i] = ms(time.Since(res.due))
				}
				ctx, cancel := context.WithDeadline(context.Background(), res.due.Add(svcGiveUp))
				res.sent = time.Now()
				res.resp, res.status, res.err = st.post(ctx, st.schedule[i].body)
				res.done = time.Now()
				cancel()
			}
		}()
	}
	// The reference kernel runs 5 ms after the last request of each
	// segment falls due, well inside the pause.
	var refs []refSample
	var refCPU time.Duration
	for k := svcSegment; k < len(results); k += svcSegment {
		time.Sleep(time.Until(due(k - 1).Add(5 * time.Millisecond)))
		r := measureRef()
		refs = append(refs, r)
		refCPU += r.cpu
	}
	wg.Wait()
	end := time.Now()
	// The backlog is how many earlier requests were still unsent when
	// the last one fell due; the generator's lateness is how late an
	// idle sender woke for a due request.
	lastDue := results[len(results)-1].due
	backlog := 0
	var wakeLate []float64
	for i, res := range results {
		if i < len(results)-1 && res.sent.After(lastDue) {
			backlog++
		}
		if lateness[i] >= 0 {
			wakeLate = append(wakeLate, lateness[i])
		}
	}
	cpuPerReq := ms(cpuTime()-cpuA-refCPU) / float64(len(results))
	rtB, busyB := sampleRuntime(), st.serverStageTotal()
	stats1, err := st.stats()
	if err != nil {
		return nil, err
	}
	out.attempted = len(results)

	// Checks, outside the timed region: every 200 response must carry,
	// per module, the fingerprint, code size and worst-case cycles of
	// an in-process pipeline.SynthesizeModule of the same decoded
	// module.
	ref := newSvcReference()
	checked := make([]bool, len(results))
	for i, res := range results {
		if res.err != nil || res.status != http.StatusOK {
			out.failed++
			if res.err != nil {
				out.problem("request %d: %v", i, res.err)
			} else {
				out.problem("request %d: status %d", i, res.status)
			}
			continue
		}
		if err := ref.check(st.schedule[i], res.resp); err != nil {
			out.failed++
			out.problem("request %d: %v", i, err)
			continue
		}
		checked[i] = true
	}

	var lat []float64
	ok := 0
	var misses, modules int
	for i, res := range results {
		lat = append(lat, ms(res.done.Sub(res.due)))
		if checked[i] && res.done.Sub(res.due) <= svcLimit {
			ok++
		}
		if res.resp != nil {
			modules += res.resp.Modules
			misses += res.resp.Misses
		}
	}
	okPct := 100 * float64(ok) / float64(len(results))
	p50, p99 := percentile(lat, 0.5), percentile(lat, 0.99)
	out.name("svc.p50_ms", p50, "ms")
	out.name("svc.p99_ms", p99, "ms")
	out.name("svc.ok_pct", okPct, "%")
	out.name("svc.cpu_ms", cpuPerReq, "ms")
	out.name("svc.gen_late_ms", percentile(wakeLate, 0.99), "ms")
	out.name("svc.gen_late_max_ms", percentile(wakeLate, 1), "ms")
	out.name("svc.backlog", float64(backlog), "count")
	out.name("svc.requests", float64(len(results)), "count")
	out.name("svc.rate_per_s", svcRate, "1/s")
	out.name("svc.limit_ms", ms(svcLimit), "ms")
	out.name("svc.miss_pct", 100*float64(misses)/float64(max(modules, 1)), "%")
	out.name("svc.rejected", float64(rejected(stats1)-rejected(stats0)), "count")
	if len(refs) == 0 { // a run shorter than one segment
		refs = append(refs, measureRef())
	}
	out.addTimeMetrics(cpuPerReq, refs)
	out.e2e["ok_pct"] = metric{okPct, "%"}
	out.e2e["alloc_mb"] = metric{rtA.allocMB(rtB) / float64(len(results)), "MB"}

	if cfg.traced {
		if err := svcLayers(out, st, results, st.schedule); err != nil {
			return nil, err
		}
		out.layers["pipeline.busy_pct"] = metric{100 * float64(busyB-busyA) /
			(float64(end.Sub(start)) * float64(nproc)), "%"}
		out.layers["polisd.rejected"] = metric{float64(rejected(stats1) - rejected(stats0)), "count"}
		addIdleLayers(out, "sim")
		addRuntimeLayers(out, rtA, rtB, float64(len(results)))
		// Every span is built after the run from recorded timestamps
		// and replays, so tracing adds nothing to a request.
		out.layers["trace.overhead_pct"] = metric{0, "%"}
		addShares(out)
	}
	return out, nil
}

func rejected(s polisd.Stats) int64 { return s.Rejected429 + s.Rejected503 + s.Deadline504 }

// svcReference memoizes the in-process synthesis each response is
// checked against, by module fingerprint.
type svcReference struct {
	byVersion map[[2]int]map[string]svcExpect
	byFP      map[string]svcExpect
}

type svcExpect struct {
	fingerprint string
	codeSize    int
	maxCycles   int64
}

func newSvcReference() *svcReference {
	return &svcReference{byVersion: map[[2]int]map[string]svcExpect{}, byFP: map[string]svcExpect{}}
}

// expected decodes the request body as the server does and returns
// the reference result per module name.
func (r *svcReference) expected(q svcReq) (map[string]svcExpect, error) {
	key := [2]int{q.net, q.version}
	if e, ok := r.byVersion[key]; ok {
		return e, nil
	}
	var req polisd.SynthRequest
	if err := json.Unmarshal(q.body, &req); err != nil {
		return nil, err
	}
	n, err := polisd.DecodeNetwork(req.Network)
	if err != nil {
		return nil, err
	}
	opt, err := req.Options.Options()
	if err != nil {
		return nil, err
	}
	exp := make(map[string]svcExpect, len(n.Machines))
	for _, m := range n.Machines {
		fp := pipeline.Fingerprint(m, opt)
		e, ok := r.byFP[fp]
		if !ok {
			a, err := pipeline.SynthesizeModule(m, opt, nil)
			if err != nil {
				return nil, fmt.Errorf("reference synthesis of %s: %w", m.Name, err)
			}
			e = svcExpect{fingerprint: fp, codeSize: a.CodeSize, maxCycles: a.Measured.Max}
			r.byFP[fp] = e
		}
		exp[m.Name] = e
	}
	r.byVersion[key] = exp
	return exp, nil
}

func (r *svcReference) check(q svcReq, resp *polisd.SynthResponse) error {
	exp, err := r.expected(q)
	if err != nil {
		return err
	}
	if len(resp.Results) != len(exp) {
		return fmt.Errorf("%d results for %d modules", len(resp.Results), len(exp))
	}
	for _, mr := range resp.Results {
		e, ok := exp[mr.Module]
		switch {
		case !ok:
			return fmt.Errorf("result for unknown module %q", mr.Module)
		case mr.Error != "":
			return fmt.Errorf("module %s: %s", mr.Module, mr.Error)
		case mr.Fingerprint != e.fingerprint:
			return fmt.Errorf("module %s: fingerprint %.12s, reference %.12s", mr.Module, mr.Fingerprint, e.fingerprint)
		case mr.CodeSize != e.codeSize || mr.MaxCycles != e.maxCycles:
			return fmt.Errorf("module %s: code %d B / %d cyc, reference %d B / %d cyc",
				mr.Module, mr.CodeSize, mr.MaxCycles, e.codeSize, e.maxCycles)
		}
	}
	return nil
}

// svcLayers records the traced requests' spans and the per-layer
// metrics. The client-side spans (schedule wait, HTTP round trip) are
// measured; the server's own time is SynthSummary.Ms, placed in the
// middle of the round trip. Decode, Fingerprint, Cache.Get and, for
// misses, the synthesis stages and Cache.Put are timed by replaying
// the same bodies and modules outside the server: decode is placed
// just before the server span (the handler decodes before its clock
// starts), the rest in order inside it.
func svcLayers(out *outcome, st *svcState, results []svcResult, reqs []svcReq) error {
	lt := newLayerTrace(nil)
	scratch, err := pipeline.NewCache("")
	if err != nil {
		return err
	}
	var fpT, getT, putT, decT time.Duration
	var fpN, getN, putN, decN int
	var serverMs, transportMs []float64
	var replayed []*pipeline.Artifact
	for i, res := range results {
		run := fmt.Sprintf("req%d", i)
		root := out.spans.add(0, "request", "loadgen", run, res.due, res.done)
		out.spans.add(root, "schedule wait", "loadgen", run, res.due, res.sent)
		httpSpan := out.spans.add(root, "POST /synthesize", "transport", run, res.sent, res.done)
		if res.resp == nil {
			continue
		}
		rtt := res.done.Sub(res.sent)
		srvDur := time.Duration(res.resp.Ms * float64(time.Millisecond))
		if srvDur > rtt {
			srvDur = rtt
		}
		serverMs = append(serverMs, res.resp.Ms)
		transportMs = append(transportMs, ms(rtt-srvDur))
		srvStart := res.sent.Add((rtt - srvDur) / 2)
		server := out.spans.add(httpSpan, "server", "polisd", run, srvStart, srvStart.Add(srvDur))
		cursor := srvStart
		child := func(name, layer string, d time.Duration) {
			out.spans.add(server, name, layer, run, cursor, cursor.Add(d))
			cursor = cursor.Add(d)
		}

		t0 := time.Now()
		var req polisd.SynthRequest
		if err := json.Unmarshal(reqs[i].body, &req); err != nil {
			return err
		}
		n, err := polisd.DecodeNetwork(req.Network)
		if err != nil {
			return err
		}
		d := time.Since(t0)
		decT += d
		decN += len(n.Machines)
		// The handler decodes the body before SynthSummary.Ms starts,
		// so the decode span ends where the server span begins.
		out.spans.add(httpSpan, "decode", "decode", run, srvStart.Add(-d), srvStart)
		opt, err := req.Options.Options()
		if err != nil {
			return err
		}
		keys := make([]string, len(n.Machines))
		t0 = time.Now()
		for k, m := range n.Machines {
			keys[k] = pipeline.Fingerprint(m, opt)
		}
		d = time.Since(t0)
		fpT += d
		fpN += len(keys)
		child("fingerprint", "pipeline", d)
		t0 = time.Now()
		for _, k := range keys {
			st.srv.Cache().Get(k)
		}
		d = time.Since(t0)
		getT += d
		getN += len(keys)
		child("cache.get", "pipeline", d)
		missed := map[string]bool{}
		for _, mr := range res.resp.Results {
			missed[mr.Module] = mr.Cache == "miss"
		}
		for k, m := range n.Machines {
			if !missed[m.Name] {
				continue
			}
			one := newLayerTrace(nil)
			a, err := pipeline.SynthesizeModule(m, opt, multiTrace{lt, one})
			if err != nil {
				return fmt.Errorf("replay of %s: %w", m.Name, err)
			}
			replayed = append(replayed, a)
			for s := pipeline.StageReactive; s <= pipeline.StageEstimate; s++ {
				if d := one.stage[s]; d > 0 {
					child(s.String(), stageLayer(s), d)
				}
			}
			t0 = time.Now()
			scratch.Put(keys[k], a)
			d = time.Since(t0)
			putT += d
			putN++
			child("cache.put", "pipeline", d)
		}
	}
	ops := float64(len(results))
	lt.addLayerMetrics(out, ops)
	addGraphLayers(out, replayed, ops)
	perCall := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return us(d) / float64(n)
	}
	out.layers["pipeline.fingerprint_us"] = metric{perCall(fpT, fpN), "us"}
	out.layers["pipeline.cache_get_us"] = metric{perCall(getT, getN), "us"}
	out.layers["pipeline.cache_put_us"] = metric{perCall(putT, putN), "us"}
	out.layers["polisd.decode_us"] = metric{perCall(decT, decN), "us"}
	var mods, hits, misses int
	for _, res := range results {
		if res.resp == nil {
			continue
		}
		mods += res.resp.Modules
		hits += res.resp.MemHits + res.resp.DiskHit + res.resp.Dedups
		misses += res.resp.Misses
	}
	out.layers["pipeline.hit_pct"] = metric{100 * float64(hits) / float64(max(mods, 1)), "%"}
	out.layers["polisd.miss_pct"] = metric{100 * float64(misses) / float64(max(mods, 1)), "%"}
	out.name("polisd.server_ms", median(serverMs), "ms")
	out.name("polisd.transport_ms", median(transportMs), "ms")
	return nil
}

// multiTrace fans pipeline events out to several traces.
type multiTrace []pipeline.Trace

func (m multiTrace) Event(e pipeline.Event) {
	for _, t := range m {
		t.Event(e)
	}
}
