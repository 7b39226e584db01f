package main

import (
	"fmt"
	"time"

	"repro/internal/audio"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/fleet"
	"repro/internal/sensitive"
)

// layerMetrics is the traced run's report, in the order BENCHMARK.json
// lists it. A _ms metric is the summed self time of the layer's spans
// (span duration minus its child spans) unless its comment says
// otherwise; counts are summed over the run. Each group's comment names
// the end-to-end metric a change to that layer should move, and on which
// workloads; on the others the prediction is no change.
var layerMetrics = []struct{ name, unit string }{
	// Workload harness, reported apart from the system under test: moves
	// items_per_s and alloc_kb_per_item on speech-fleet and secure-batched.
	{"sensitive.generate_ms", "ms"},
	{"audio.synth_ms", "ms"},
	{"audio.synth_calls", "count"},
	{"audio.synth5_us", "us"}, // per 5-word synthesis, microbenchmark
	// Peripheral capture and its wire decode: items_per_s; audio capture
	// on speech-fleet and secure-batched, images on camera-control.
	{"peripheral.capture_ms", "ms"},
	{"peripheral.capture_bytes", "bytes"},
	{"i2s.decode_ms", "ms"},
	{"peripheral.image_ms", "ms"},
	{"peripheral.image_calls", "count"},
	// Front end and recognizer: items_per_s on speech-fleet and
	// secure-batched. MFCC is re-run over the voiced segments of the same
	// audio, and matching is transcription minus that.
	{"dsp.mfcc_ms", "ms"},
	{"dsp.frames", "count"},
	{"dsp.mfcc_frame_us", "us"}, // per MFCC frame, microbenchmark
	{"asr.match_ms", "ms"},
	{"asr.utterances", "count"},
	{"asr.transcribe4_us", "us"}, // per 4-word transcription, microbenchmark
	// ML filter: items_per_s; text on secure-batched (and speech-fleet),
	// image on camera-control. Text covers the per-device pass, the shared
	// flushes and the hybrid split's head and tail.
	{"classify.text_ms", "ms"},
	{"classify.text_items", "count"},
	{"classify.image_ms", "ms"},
	{"classify.image_items", "count"},
	// Hybrid HE split: items_per_s and alloc_kb_per_item on secure-batched.
	{"he.encrypt_ms", "ms"},
	{"he.eval_ms", "ms"},
	{"he.decrypt_ms", "ms"},
	{"he.ciphertext_bytes", "bytes"},
	// Sealed relay: items_per_s on all three.
	{"relay.seal_ms", "ms"},
	{"relay.open_ms", "ms"},
	{"relay.frames", "count"},
	// Device pipeline: pretrain moves setup_s, the rest items_per_s; build
	// on camera-control, the residual on speech-fleet and secure-batched.
	// ta_residual is Device.Run's self time minus the replayed in-device
	// layers, i.e. the TEE plumbing no seam exposes.
	{"core.pretrain_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.build_calls", "count"},
	{"core.run_self_ms", "ms"},
	{"core.ta_residual_ms", "ms"},
	// Ingest tier: items_per_s; plain ASR on speech-fleet, queue wait and
	// rejections on camera-control. Ingest is the whole delivery as the
	// device waits for it; queue wait is ingest minus the provider's
	// delivery.
	{"cloud.ingest_ms", "ms"},
	{"cloud.queue_wait_ms", "ms"},
	{"cloud.deliver_ms", "ms"},
	{"cloud.plain_asr_ms", "ms"},
	{"cloud.he_eval_ms", "ms"},
	{"cloud.register_ms", "ms"},
	{"cloud.probe_ms", "ms"},
	{"cloud.frames", "count"},
	{"cloud.rejected", "count"},
	{"cloud.shed", "count"},
	// Attestation: items_per_s and setup_s on camera-control.
	{"attest.registry_ms", "ms"},
	{"attest.handshake_ms", "ms"},
	{"attest.handshakes", "count"},
	{"attest.rotate_ms", "ms"},
	{"attest.rotations", "count"},
	// Scheduler, engine and chaos counters, from the untraced fleet.Run
	// in the same process: sched and fleet move items_per_s and
	// peak_rss_mb on secure-batched, fault moves items_per_s on
	// camera-control.
	{"sched.batches", "count"},
	{"sched.occupancy_steady", "items/flush"},
	{"sched.flush_full", "count"},
	{"sched.flush_idle", "count"},
	{"fleet.async_steps", "count"},
	{"fleet.async_parks", "count"},
	{"fleet.peak_live", "count"},
	{"fleet.run_wall_ms", "ms"},
	{"fault.retries", "count"},
	{"fault.expired", "count"},
	{"fault.restarts", "count"},
	// Reconciliation, predicting nothing: unattributed is wall × workers
	// minus the workers' top-level spans.
	{"traced.wall_ms", "ms"},
	{"traced.unattributed_ms", "ms"},
	{"traced.replay_ms", "ms"},
	{"traced.replay_devices", "count"},
	// Host.
	{"host.gomaxprocs", "count"},
	{"host.num_cpu", "count"},
	{"host.workers", "count"},
}

// reconcileTolerance is the share of wall × workers the workers' top-level
// spans may leave unattributed before the traced run fails its check.
const reconcileTolerance = 0.05

type spanTotals struct {
	total, self time.Duration
	count       int
	n           int64
}

// layerReport folds a traced run's spans into the per-layer metrics and
// returns any reconciliation failure.
func layerReport(tr *tracedRun) (map[string]float64, []string) {
	spans := tr.rec.spans
	children := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	runSelfByDev := make(map[int32]time.Duration)
	for i, s := range spans {
		if s.Name == "core.run" {
			runSelfByDev[s.Dev] = time.Duration(s.End-s.Start) - children[i]
		}
	}
	by := make(map[string]*spanTotals)
	var topLevel, runSelf, replayed time.Duration
	for i, s := range spans {
		dur := time.Duration(s.End - s.Start)
		t := by[s.Name]
		if t == nil {
			t = &spanTotals{}
			by[s.Name] = t
		}
		t.total += dur
		t.self += dur - children[i]
		t.count++
		t.n += s.N
		if s.Parent < 0 && s.Worker >= 0 {
			topLevel += dur
		}
		// Device.Run's self time counts only for devices whose layers
		// were replayed, so the residual compares like with like.
		if s.Name == "replay" {
			runSelf += runSelfByDev[s.Dev]
		}
		if s.Parent >= 0 && spans[s.Parent].Name == "replay" && !s.Shadow {
			replayed += dur
		}
	}
	get := func(name string) spanTotals {
		if t := by[name]; t != nil {
			return *t
		}
		return spanTotals{}
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	capacity := tr.wall * workers
	unattributed := capacity - topLevel

	m := map[string]float64{
		"sensitive.generate_ms":    ms(get("sensitive.generate").self),
		"audio.synth_ms":           ms(get("audio.synth").self),
		"audio.synth_calls":        float64(get("audio.synth").count),
		"peripheral.capture_ms":    ms(get("peripheral.capture").self),
		"peripheral.capture_bytes": float64(get("peripheral.capture").n),
		"i2s.decode_ms":            ms(get("i2s.decode").self),
		"peripheral.image_ms":      ms(get("peripheral.image").self),
		"peripheral.image_calls":   float64(get("peripheral.image").count),
		"dsp.mfcc_ms":              ms(get("dsp.mfcc").total),
		"dsp.frames":               float64(get("dsp.mfcc").n),
		"asr.match_ms":             ms(get("asr.transcribe").total - get("dsp.mfcc").total),
		"asr.utterances":           float64(get("asr.transcribe").count),
		"classify.text_ms":         ms(get("classify.text").self),
		"classify.text_items":      float64(get("classify.text").n),
		"classify.image_ms":        ms(get("classify.image").self),
		"classify.image_items":     float64(get("classify.image").count),
		"he.encrypt_ms":            ms(get("he.encrypt").self),
		"he.eval_ms":               ms(get("he.eval").self),
		"he.decrypt_ms":            ms(get("he.decrypt").self),
		"he.ciphertext_bytes":      float64(get("he.encrypt").n),
		"relay.seal_ms":            ms(get("relay.seal").self),
		"relay.open_ms":            ms(get("relay.open").self),
		"relay.frames":             float64(get("relay.seal").count),
		"core.pretrain_ms":         ms(get("core.pretrain").self),
		"core.build_ms":            ms(get("core.build").self),
		"core.build_calls":         float64(get("core.build").count),
		"core.run_self_ms":         ms(get("core.run").self),
		"core.ta_residual_ms":      ms(runSelf - replayed),
		"cloud.ingest_ms":          ms(get("cloud.ingest").total),
		"cloud.queue_wait_ms":      ms(get("cloud.ingest").self),
		"cloud.deliver_ms":         ms(get("cloud.deliver").self + get("cloud.plain_asr").self),
		"cloud.plain_asr_ms":       ms(get("cloud.plain_asr").self),
		"cloud.he_eval_ms":         ms(get("cloud.he_eval").self),
		"cloud.register_ms":        ms(get("cloud.register").self),
		"cloud.probe_ms":           ms(get("cloud.probe").self),
		"cloud.frames":             float64(get("cloud.deliver").count + get("cloud.plain_asr").count),
		"cloud.rejected":           float64(tr.rejected),
		"cloud.shed":               float64(tr.shed),
		"attest.registry_ms":       ms(get("attest.registry").self),
		"attest.handshake_ms":      ms(get("attest.handshake").self),
		"attest.handshakes":        float64(get("attest.handshake").count),
		"attest.rotate_ms":         ms(get("attest.rotate").self),
		"attest.rotations":         float64(tr.rotations),
		"traced.wall_ms":           ms(tr.wall),
		"traced.unattributed_ms":   ms(unattributed),
		"traced.replay_ms":         ms(get("replay").total),
		"traced.replay_devices":    float64(get("replay").count),
	}
	var failed []string
	if d := unattributed; d < 0 || float64(d) > reconcileTolerance*float64(capacity) {
		failed = append(failed, fmt.Sprintf("reconciliation: %v of %v (wall %v × %d workers) unattributed, tolerance %.0f%%",
			d, capacity, tr.wall, workers, 100*reconcileTolerance))
	}
	return m, failed
}

// fleetCounters copies the scheduler, engine and chaos counters of an
// untraced run.
func fleetCounters(m map[string]float64, res *fleet.Result) {
	m["fleet.run_wall_ms"] = float64(res.RunWall) / 1e6
	if s := res.Sched; s != nil {
		m["sched.batches"] = float64(s.Batches)
		m["sched.occupancy_steady"] = s.MeanOccupancySteady
		m["sched.flush_full"] = float64(s.Flushes["full"])
		m["sched.flush_idle"] = float64(s.Flushes["idle"])
	}
	if a := res.Async; a != nil {
		m["fleet.async_steps"] = float64(a.Steps)
		m["fleet.async_parks"] = float64(a.Parks)
		m["fleet.peak_live"] = float64(a.PeakLive)
	}
	if f := res.Faults; f != nil {
		m["fault.retries"] = float64(f.Retries)
		m["fault.expired"] = float64(f.Expired)
		m["fault.restarts"] = float64(f.Restarts)
	}
}

// microbenchmarks times single calls of the three hottest in-device
// functions on fixed inputs, in microseconds per call.
func microbenchmarks(m map[string]float64, seed uint64) error {
	sys, err := core.NewSystem(core.Config{Mode: core.ModeBaseline, Seed: seed})
	if err != nil {
		return err
	}
	words := sensitive.NewVocabulary().Words()
	perCall := func(n int, fn func() error) (float64, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start)) / 1e3 / float64(n), nil
	}
	var buf []float64
	if m["audio.synth5_us"], err = perCall(200, func() error {
		buf = sys.Voice.SynthesizeInto(buf, words[:5]).Samples[:0]
		return nil
	}); err != nil {
		return err
	}
	pcm := sys.Voice.Synthesize(words[:4])
	sess, err := sys.ASRModel.NewSession()
	if err != nil {
		return err
	}
	if m["asr.transcribe4_us"], err = perCall(100, func() error {
		_, err := sess.TranscribeWords(pcm)
		return err
	}); err != nil {
		return err
	}
	cfg := dsp.DefaultMFCCConfig(pcm.Rate)
	ex, err := dsp.NewExtractor(cfg)
	if err != nil {
		return err
	}
	frame := audio.PCM{Rate: pcm.Rate, Samples: pcm.Samples[:cfg.FrameLen]}
	m["dsp.mfcc_frame_us"], err = perCall(5000, func() error {
		_, err := ex.Frame(frame.Samples)
		return err
	})
	return err
}

// tracedChild is the --trace 1 child: the traced drive, the
// microbenchmarks, then an untraced fleet.Run of the same seed for the
// fleet's own counters and the RunWall the traced wall is read beside.
func tracedChild(w workload, seed uint64, spansPath string) (childResult, error) {
	cfg := w.config(seed)
	tr, err := drive(cfg)
	if err != nil {
		return failedRun(cfg, seed, fmt.Errorf("traced drive: %w", err))
	}
	layers, failures := layerReport(tr)
	if err := microbenchmarks(layers, seed); err != nil {
		return childResult{}, err
	}
	h := hostInfo()
	layers["host.gomaxprocs"] = float64(h.GOMAXPROCS)
	layers["host.num_cpu"] = float64(h.NumCPU)
	layers["host.workers"] = float64(h.Workers)
	if spansPath != "" {
		if err := tr.rec.writeJSONL(spansPath); err != nil {
			return childResult{}, err
		}
	}

	// A fresh config: fleet fills defaults into the specs its pointer
	// fields share, and this run must see the workload as written.
	res, err := fleet.Run(w.config(seed))
	if err != nil {
		return failedRun(cfg, seed, err)
	}
	fleetCounters(layers, res)
	failed, warnings := check(w, seed, res)
	out := childResult{
		Seed:       seed,
		Attempted:  res.TotalItems,
		Failures:   append(failures, failed...),
		Warnings:   warnings,
		RunWallS:   res.RunWall.Seconds(),
		BuildWallS: res.BuildWall.Seconds(),
		Layers:     layers,
	}
	out.Failed = failedItems(res, out.Failures)
	return out, nil
}
