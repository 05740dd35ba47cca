package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// reportNames are the workload-specific metrics each workload must
// print in its report lines, in either mode.
var reportNames = map[string][]string{
	"synth-cold": {"fail_pct", "synth.modules_per_s", "synth.alloc_mb", "synth.code_bytes",
		"synth.wcet_cycles", "synth.est_err_pct"},
	"svc-edit": {"fail_pct", "svc.p50_ms", "svc.p99_ms", "svc.ok_pct", "svc.gen_late_ms", "svc.backlog"},
	"sim-loop": {"fail_pct", "sim.reactions_per_s", "sim.cycles_per_reaction"},
}

// tracedNames are the workload-specific metrics only a traced run
// prints.
var tracedNames = map[string][]string{
	"svc-edit": {"polisd.server_ms", "polisd.transport_ms"},
	"sim-loop": {"sim.build_ms", "sim.loop_ms"},
}

// TestSelf runs every workload of BENCHMARK.json once per mode at the
// smallest size and checks that the last line names every metric of
// the mode with its declared unit, and that all output checks pass.
func TestSelf(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range bench.Workloads {
		for trace, want := range map[string][]declared{"0": bench.EndToEnd, "1": bench.PerLayer} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout bytes.Buffer
				cfg := runConfig{workload: w.Name, seed: 7, window: 300 * time.Millisecond,
					traced: trace == "1", small: true}
				if code := runWith(cfg, filepath.Join(t.TempDir(), "spans.json"), &stdout); code != 0 {
					t.Fatalf("exit code %d; output:\n%s", code, stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d; output:\n%s",
						res.Correct, res.Failed, res.Attempted, stdout.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
					} else if m.Unit != d.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
					}
				}
				names := reportNames[w.Name]
				if trace == "1" {
					names = append(names, tracedNames[w.Name]...)
				}
				for _, n := range names {
					if !strings.Contains(stdout.String(), "metric "+n+" ") {
						t.Errorf("report line for %s missing", n)
					}
				}
			})
		}
	}
}
