package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
)

// staticSmall shrinks a workload to a small static population of the same
// kinds and modes: the dynamic control plane the traced run leaves to
// fleet.Run is switched off, everything static (attestation, federation,
// scheduler, async engine) stays.
func staticSmall(cfg fleet.Config) fleet.Config {
	cfg.Devices = 24
	cfg.Rollout, cfg.Lifecycle, cfg.Churn, cfg.Rebalance, cfg.Faults = nil, nil, nil, nil, nil
	cfg.Rogues = 0
	return cfg
}

type groupCounts struct{ cloudEvents, sensitiveTokens int }

// TestTracedRunMatchesFleet pins that the traced run does the same
// work as fleet.Run: per (kind, mode) group, the cloud events and the
// sensitive tokens the provider saw are equal for the same seed. The
// replay runs too, and fails the drive if any replayed transcript or
// verdict differs from the device's own.
func TestTracedRunMatchesFleet(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := staticSmall(w.config(recordedSeed))
			res, err := fleet.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := drive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[fleet.GroupKey]groupCounts)
			for _, r := range tr.results {
				k := fleet.GroupKey{Kind: r.Spec.Kind, Mode: r.Spec.Mode}
				g := got[k]
				g.cloudEvents += r.CloudEvents()
				if r.Spec.Kind == core.DeviceSpeaker {
					g.sensitiveTokens += r.Session.CloudAudit.SensitiveTokens
				}
				got[k] = g
			}
			if len(got) != len(res.Groups) {
				t.Fatalf("traced run ran groups %v, fleet ran %d groups", got, len(res.Groups))
			}
			for k, g := range res.Groups {
				want := groupCounts{g.CloudEvents, g.SensitiveTokens}
				if got[k] != want {
					t.Errorf("%s: traced run %+v, fleet.Run %+v", k, got[k], want)
				}
			}
			if layers, _ := layerReport(tr); layers["traced.replay_devices"] != float64(cfg.Devices) {
				t.Errorf("replayed %v of %d devices", layers["traced.replay_devices"], cfg.Devices)
			}
		})
	}
}

// TestLeakageGatesSpeakersWarnsDoorbells pins which leakage findings fail
// a run: a speaker filter letting tokens through does, a doorbell filter
// letting person frames through (the image-training defect) only warns.
func TestLeakageGatesSpeakersWarnsDoorbells(t *testing.T) {
	groups := map[fleet.GroupKey]leakage{
		{Kind: core.DeviceSpeaker, Mode: core.ModeBaseline}:      {leaked: 600, held: 600},
		{Kind: core.DeviceSpeaker, Mode: core.ModeSecureFilter}:  {leaked: 4, held: 600},
		{Kind: core.DeviceDoorbell, Mode: core.ModeBaseline}:     {leaked: 304, held: 304},
		{Kind: core.DeviceDoorbell, Mode: core.ModeSecureFilter}: {leaked: 319, held: 319},
	}
	got := checkLeakage(groups)
	if len(got[core.DeviceSpeaker]) != 0 || len(got[core.DeviceDoorbell]) != 2 {
		t.Fatalf("filtering speakers and leaking doorbells: got %v", got)
	}
	groups[fleet.GroupKey{Kind: core.DeviceSpeaker, Mode: core.ModeSecureFilter}] = leakage{leaked: 100, held: 600}
	if got := checkLeakage(groups); len(got[core.DeviceSpeaker]) == 0 {
		t.Fatalf("a speaker filter leaking 100 of 600 tokens passed: %v", got)
	}
}

// TestBenchmarkJSONMatchesReport pins BENCHMARK.json to what the command
// prints: the workloads it runs and every metric name and unit.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	e2e := endToEnd([]childResult{{Attempted: 1, RunWallS: 1}})
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the command reports %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: command reports %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command reports %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], command %s [%s]",
				i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
