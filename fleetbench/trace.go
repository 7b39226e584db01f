package main

// The traced run drives a workload's static per-device flow itself,
// through the public functions fleet.Run calls, and records a span around
// every call it makes into a layer: workload generation, device build,
// attestation, endpoint registration, Device.Run, and — through timing
// wrappers on the public seams (supplicant.NetSink, cloud.Provider,
// core.ClassifyService) — every uplink delivery, provider delivery and
// shared classify call made inside Device.Run. The in-device layers have
// no seam; replay.go times them by replaying each device's inputs through
// the same public functions core calls.
//
// The dynamic control plane (rollout, churn, rebalance, chaos) is not
// driven here: its effect on the end-to-end figures is measured by the
// untraced fleet.Run, and its counters come from fleet.Result.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ml/classify"
	"repro/internal/peripheral"
	"repro/internal/sched"
	"repro/internal/sensitive"
	"repro/internal/tz"
)

// span is one timed call. Spans of one device share dev; item is the
// per-device item (utterance, frame or delivery) index, -1 when the span
// covers the whole device. worker is the driving worker, -1 for spans on
// other goroutines (shard workers, the scheduler's flush workers).
type span struct {
	Name   string `json:"name"`
	Dev    int32  `json:"dev"`
	Item   int32  `json:"item"`
	Parent int32  `json:"parent"`
	Worker int8   `json:"worker"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the span's work count: bytes, frames or items.
	N int64 `json:"n,omitempty"`
	// Shadow marks replay-only work that Device.Run did not do itself
	// (the MFCC re-run that splits transcription, the provider side of a
	// replayed relay); it is never subtracted from Device.Run.
	Shadow bool `json:"shadow,omitempty"`
}

// recorder keeps every span in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, dev, item, parent, worker int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Dev: int32(dev), Item: int32(item), Parent: int32(parent),
		Worker: int8(worker), Start: now,
	})
	return len(r.spans) - 1
}

func (r *recorder) end(id int, n int64) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.spans[id].N = n
	r.mu.Unlock()
}

// shadow marks a span as replay-only work.
func (r *recorder) shadow(id int) {
	r.mu.Lock()
	r.spans[id].Shadow = true
	r.mu.Unlock()
}

func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// devTrace carries one device's span context into the seam wrappers,
// which run on the device's worker (sink, classify) or on a shard worker
// (provider) while the device waits.
type devTrace struct {
	rec    *recorder
	dev    int
	worker int
	run    int // the Device.Run span
	ingest atomic.Int32
	items  atomic.Int32

	rejected, shed atomic.Int64
}

// timedSink wraps the device's uplink: one cloud.ingest span per delivery,
// covering admission, queueing and the provider's reply.
type timedSink struct {
	dt   *devTrace
	next *cloud.Uplink
}

func (s *timedSink) Deliver(frame []byte) ([]byte, error) {
	dt := s.dt
	id := dt.rec.begin("cloud.ingest", dt.dev, int(dt.items.Add(1))-1, dt.run, dt.worker)
	dt.ingest.Store(int32(id))
	resp, err := s.next.Deliver(frame)
	dt.rec.end(id, int64(len(frame)))
	dt.count(err)
	return resp, err
}

func (dt *devTrace) count(err error) {
	switch {
	case errors.Is(err, cloud.ErrShed):
		dt.shed.Add(1)
	case errors.Is(err, cloud.ErrRejected):
		dt.rejected.Add(1)
	}
}

// timedProvider wraps the device's provider endpoint; its spans are
// children of the ingest span that carried the frame. A baseline
// speaker's endpoint transcribes the raw audio, so its deliveries are
// the provider's ASR.
type timedProvider struct {
	cloud.Provider
	dt   *devTrace
	name string
}

func (p *timedProvider) Deliver(frame []byte) ([]byte, error) {
	dt := p.dt
	id := dt.rec.begin(p.name, dt.dev, -1, int(dt.ingest.Load()), -1)
	resp, err := p.Provider.Deliver(frame)
	dt.rec.end(id, int64(len(frame)))
	return resp, err
}

// timedClassify wraps the shared classify service a scheduled speaker
// submits to; the span covers the flush wait and the shared pass.
type timedClassify struct {
	dt   *devTrace
	next core.ClassifyService
}

func (c *timedClassify) ClassifyBatch(req core.ClassifyRequest) (core.ClassifyResponse, error) {
	dt := c.dt
	id := dt.rec.begin("classify.service", dt.dev, -1, dt.run, dt.worker)
	resp, err := c.next.ClassifyBatch(req)
	dt.rec.end(id, int64(len(req.Tokens)))
	return resp, err
}

// sharedClassify is the traced run's cross-device scheduler: the same
// internal/sched scheduler and per-version classifiers fleet wires with
// Config.Sched, with a span around every shared forward pass.
type sharedClassify struct {
	rec   *recorder
	s     *sched.Scheduler
	vocab *sensitive.Vocabulary
	seeds map[uint64]uint64

	mu   sync.Mutex
	clfs map[uint64]*classify.Classifier
}

func newSharedClassify(rec *recorder, seed uint64) (*sharedClassify, error) {
	sc := &sharedClassify{
		rec:   rec,
		vocab: sensitive.NewVocabulary(),
		seeds: map[uint64]uint64{0: seed, 1: seed},
		clfs:  make(map[uint64]*classify.Classifier),
	}
	s, err := sched.New(sched.Config{Batch: core.MaxBatch, MaxAge: sched.DefaultMaxAge, Workers: sched.DefaultWorkers}, sc.execute)
	if err != nil {
		return nil, err
	}
	sc.s = s
	return sc, nil
}

func (sc *sharedClassify) execute(version uint64, items [][]int) ([]bool, tz.Cycles, error) {
	// Flushes of one version serialize on the lock: PredictBatch mutates
	// layer state.
	sc.mu.Lock()
	defer sc.mu.Unlock()
	clf, ok := sc.clfs[version]
	if !ok {
		seed, known := sc.seeds[version]
		if !known {
			return nil, 0, fmt.Errorf("no model for version %d", version)
		}
		var err error
		if clf, err = core.TrainClassifier(classify.ArchCNN, sc.vocab, seed, 8); err != nil {
			return nil, 0, err
		}
		sc.clfs[version] = clf
	}
	id := sc.rec.begin("classify.text", -1, -1, -1, -1)
	batch := make([][]float32, len(items))
	for i, toks := range items {
		batch[i] = clf.TokensToFeatures(toks)
	}
	classes, err := clf.PredictBatch(batch)
	sc.rec.end(id, int64(len(items)))
	if err != nil {
		return nil, 0, err
	}
	flagged := make([]bool, len(classes))
	for i, c := range classes {
		flagged[i] = c == 1
	}
	return flagged, tz.Cycles(clf.EstimateMACs() * len(items) / 4), nil
}

func (sc *sharedClassify) ClassifyBatch(req core.ClassifyRequest) (core.ClassifyResponse, error) {
	resp, err := sc.s.Classify(sched.Request{DeviceID: req.DeviceID, Version: req.ModelVersion, Items: req.Tokens, Now: req.Now})
	if err != nil {
		return core.ClassifyResponse{}, err
	}
	return core.ClassifyResponse{Flagged: resp.Flagged, Wait: resp.Wait, Occupancy: resp.Occupancy}, nil
}

// tracedRun is the outcome of one traced drive.
type tracedRun struct {
	rec     *recorder
	results []*core.DeviceResult
	// wall is the driven phase, from the first worker start to the last
	// worker's end; pretrain and registry set-up come before it.
	wall      time.Duration
	rejected  int64
	shed      int64
	rotations int
}

// drive runs cfg's static population through the traced per-device flow
// on `workers` goroutines, replaying each device's in-device layers after
// its run.
func drive(cfg fleet.Config) (*tracedRun, error) {
	specs, err := fleet.Plan(cfg)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	tr := &tracedRun{rec: rec, results: make([]*core.DeviceResult, len(specs))}

	id := rec.begin("core.pretrain", -1, -1, -1, -1)
	err = core.Pretrain(specs)
	rec.end(id, int64(len(specs)))
	if err != nil {
		return nil, err
	}
	// Plan enrolls every member for attestation exactly when the config
	// (or anything implying it) asks for an attested run.
	var auth *authorities
	if len(specs) > 0 && specs[0].AttestKeySeed != 0 {
		id = rec.begin("attest.registry", -1, -1, -1, -1)
		auth = newAuthorities(cfg, specs)
		rec.end(id, int64(len(specs)))
	}

	shards := make([]*cloud.Shard, cfg.Shards)
	for i := range shards {
		shards[i] = cloud.NewShard(fmt.Sprintf("shard-%02d", i), cfg.ShardWorkers, cfg.ShardQueue)
	}
	router, err := cloud.NewRouter(shards, cfg.HashReplicas)
	if err != nil {
		return nil, err
	}
	defer router.Close()
	policy, ok := cloud.PolicyByName(cfg.Policy)
	if !ok {
		return nil, fmt.Errorf("admission policy %q", cfg.Policy)
	}
	router.SetPolicy(policy)
	if auth != nil {
		router.SetGate(auth.gate())
	}
	var shared *sharedClassify
	if cfg.Sched != nil {
		if shared, err = newSharedClassify(rec, cfg.Seed); err != nil {
			return nil, err
		}
	}
	lc := newLifecycle(cfg, len(specs))

	d := &flow{cfg: cfg, specs: specs, rec: rec, router: router, auth: auth, shared: shared, lc: lc, tr: tr}
	// Rogue clients are extra tasks after the population, so their
	// rejected probes land inside the driven phase like the fleet's.
	tasks := int64(len(specs) + cfg.Rogues)
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func(wk int) {
			defer wg.Done()
			rp := newReplayer(rec, wk)
			for errs[wk] == nil {
				i := int(next.Add(1) - 1)
				switch {
				case i >= int(tasks):
					return
				case i >= len(specs):
					errs[wk] = d.rogue(wk, i-len(specs))
				default:
					errs[wk] = d.device(wk, i, rp)
				}
			}
		}(wk)
	}
	wg.Wait()
	tr.wall = time.Since(start)
	if shared != nil {
		shared.s.Drain()
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return tr, nil
}

// flow is what the workers of one traced run share.
type flow struct {
	cfg    fleet.Config
	specs  []core.DeviceSpec
	rec    *recorder
	router *cloud.Router
	auth   *authorities
	shared *sharedClassify
	lc     *lifecycle
	tr     *tracedRun

	mu sync.Mutex
}

// device is the traced static per-device flow: workload → build →
// (rotation issued) → handshake → register → run → (rotation redeemed,
// re-attest) → (revocation probes) → replay.
func (d *flow) device(wk, i int, rp *replayer) error {
	rec, spec := d.rec, d.specs[i]
	id := rec.begin("sensitive.generate", i, -1, -1, wk)
	wl, err := workloadFor(d.cfg, spec, i)
	rec.end(id, int64(len(wl.Utterances)+len(wl.Scenes)))
	if err != nil {
		return fmt.Errorf("device %d workload: %w", i, err)
	}
	if d.shared != nil && spec.Kind == core.DeviceSpeaker && spec.Mode == core.ModeSecureFilter {
		spec.SharedClassify = true
	}
	id = rec.begin("core.build", i, -1, -1, wk)
	dev, err := core.NewDevice(spec)
	rec.end(id, 1)
	if err != nil {
		return fmt.Errorf("device %d: %w", i, err)
	}
	dt := &devTrace{rec: rec, dev: i, worker: wk}
	if spec.SharedClassify {
		dev.SetClassifyService(&timedClassify{dt: dt, next: d.shared})
	}
	tenant := tenantName(i % d.cfg.Tenants)
	ep := dev.CloudEndpoint()
	rotating := d.lc.rotate[i] && ep != nil
	var tok attest.RotationToken
	if d.auth != nil {
		if rotating {
			id = rec.begin("attest.rotate", i, -1, -1, wk)
			tok, err = d.auth.of(tenant).Rotate(spec.DeviceID)
			rec.end(id, 0)
			if err != nil {
				return fmt.Errorf("device %d rotate: %w", i, err)
			}
		}
		if ep != nil {
			if err := d.handshake(wk, i, dev, tenant); err != nil {
				return err
			}
		}
	}
	meta := cloud.FrameMeta{Tenant: tenant, Priority: spec.Kind == core.DeviceDoorbell}
	var up *cloud.Uplink
	if ep != nil {
		name := "cloud.deliver"
		if spec.Kind == core.DeviceSpeaker && spec.Mode == core.ModeBaseline {
			name = "cloud.plain_asr"
		}
		id = rec.begin("cloud.register", i, -1, -1, wk)
		d.router.Register(spec.DeviceID, &timedProvider{Provider: ep, dt: dt, name: name})
		rec.end(id, 1)
		up = &cloud.Uplink{DeviceID: spec.DeviceID, Router: d.router, Meta: meta}
		dev.SetUplink(&timedSink{dt: dt, next: up})
	}

	dt.run = rec.begin("core.run", i, -1, -1, wk)
	if spec.SharedClassify {
		d.shared.s.AddProducer()
	}
	res, err := dev.Run(wl)
	if spec.SharedClassify {
		d.shared.s.ProducerDone()
	}
	rec.end(dt.run, int64(len(wl.Utterances)+len(wl.Scenes)))
	if err != nil {
		return fmt.Errorf("device %d: %w", i, err)
	}

	if rotating {
		id = rec.begin("attest.rotate", i, -1, -1, wk)
		_, err = dev.RotateKey(tok)
		rec.end(id, 1)
		if err != nil {
			return fmt.Errorf("device %d rotate redeem: %w", i, err)
		}
		if err := d.handshake(wk, i, dev, tenant); err != nil {
			return err
		}
	}
	if d.lc.revoke[i] && up != nil {
		id = rec.begin("cloud.probe", i, -1, -1, wk)
		d.auth.of(tenant).Revoke(spec.DeviceID, "benchmark drill")
		for j := 0; j < 2; j++ {
			_, err := d.router.IngestMeta(spec.DeviceID, []byte("post-revocation probe"), meta)
			if err == nil {
				return fmt.Errorf("device %d: revoked identity delivered a probe", i)
			}
			dt.count(err)
		}
		rec.end(id, 2)
	}

	d.mu.Lock()
	d.tr.results[i] = res
	d.tr.rejected += dt.rejected.Load()
	d.tr.shed += dt.shed.Load()
	if rotating {
		d.tr.rotations++
	}
	d.mu.Unlock()

	id = rec.begin("replay", i, -1, -1, wk)
	err = rp.device(i, id, dev, res, wl)
	rec.end(id, 1)
	if err != nil {
		return fmt.Errorf("device %d replay: %w", i, err)
	}
	return nil
}

func (d *flow) handshake(wk, i int, dev *core.Device, tenant string) error {
	id := d.rec.begin("attest.handshake", i, -1, -1, wk)
	defer d.rec.end(id, 1)
	auth := d.auth.of(tenant)
	rep, err := dev.Attest(auth.Challenge(dev.Spec.DeviceID))
	if err != nil {
		return fmt.Errorf("device %d attest: %w", i, err)
	}
	if err := auth.Verify(rep); err != nil {
		return fmt.Errorf("device %d verify: %w", i, err)
	}
	return nil
}

// rogue is an unattested client registering an endpoint and sending one
// frame per utterance; the admission gate must reject every one.
func (d *flow) rogue(wk, r int) error {
	name := fmt.Sprintf("rogue-%03d", r)
	id := d.rec.begin("cloud.probe", -1, r, -1, wk)
	defer d.rec.end(id, int64(d.cfg.Utterances))
	d.router.Register(name, rogueEndpoint{})
	defer d.router.Deregister(name)
	for j := 0; j < d.cfg.Utterances; j++ {
		_, err := d.router.Ingest(name, []byte("unattested payload"))
		if !errors.Is(err, cloud.ErrRejected) {
			return fmt.Errorf("rogue %d: frame not rejected: %v", r, err)
		}
		d.mu.Lock()
		d.tr.rejected++
		d.mu.Unlock()
	}
	return nil
}

type rogueEndpoint struct{}

func (rogueEndpoint) Deliver([]byte) ([]byte, error) { return []byte("{}"), nil }
func (rogueEndpoint) Audit() cloud.Audit             { return cloud.Audit{} }
func (rogueEndpoint) Reset()                         {}

// authorities is the attestation registry: one verifier, or one per
// tenant when the workload federates, enrolled like fleet enrolls them.
type authorities struct {
	single *attest.Verifier
	fed    *attest.Federation
}

func newAuthorities(cfg fleet.Config, specs []core.DeviceSpec) *authorities {
	keys := make(map[string]attest.DeviceKey, len(specs))
	for _, s := range specs {
		keys[s.DeviceID] = attest.KeyFromSeed(s.AttestKeySeed)
	}
	lookup := func(id string) (attest.DeviceKey, bool) {
		k, ok := keys[id]
		return k, ok
	}
	verifier := func() *attest.Verifier {
		v := attest.NewVerifier(cfg.Seed, lookup)
		v.AllowMeasurement(core.VoiceTADigest, true)
		v.AllowMeasurement(core.CameraTADigest, true)
		v.AllowMeasurement(core.BaselineAgentDigest, false)
		return v
	}
	if !cfg.Federate {
		return &authorities{single: verifier()}
	}
	a := &authorities{fed: attest.NewFederation(nil)}
	for t := 0; t < cfg.Tenants; t++ {
		a.fed.AddTenant(tenantName(t), verifier())
	}
	return a
}

// tenantName labels tenant t as fleet does: devices stripe across tenants
// by index, and the label is what the ingest frontend routes admission on.
func tenantName(t int) string { return fmt.Sprintf("tenant-%02d", t) }

func (a *authorities) of(tenant string) *attest.Verifier {
	if a.fed != nil {
		return a.fed.Tenant(tenant)
	}
	return a.single
}

func (a *authorities) gate() cloud.AdmissionGate {
	if a.fed != nil {
		return a.fed
	}
	return a.single
}

// lifecycle selects rotation and revocation targets from the root seed
// at the workload's fractions.
type lifecycle struct {
	rotate, revoke []bool
}

func newLifecycle(cfg fleet.Config, n int) *lifecycle {
	lc := &lifecycle{rotate: make([]bool, n), revoke: make([]bool, n)}
	if cfg.Lifecycle == nil {
		return lc
	}
	rng := core.NewRNG(cfg.Seed, core.SaltLifecycle)
	for i := 0; i < n; i++ {
		x := rng.Float64()
		lc.rotate[i] = x < cfg.Lifecycle.RotateFraction
		lc.revoke[i] = !lc.rotate[i] && x >= 1-cfg.Lifecycle.RevokeFraction
	}
	return lc
}

// workloadFor derives device i's inputs exactly as fleet does: the
// workload seed from the root seed, then sensitive.Generate for speakers
// or the scene draw for doorbells.
func workloadFor(cfg fleet.Config, spec core.DeviceSpec, i int) (core.DeviceWorkload, error) {
	wseed := core.DeriveSeed(cfg.Seed, core.SaltWorkload, i)
	if spec.Kind == core.DeviceSpeaker {
		utts, err := sensitive.Generate(sensitive.GenConfig{N: cfg.Utterances, SensitiveFraction: cfg.SensitiveFraction, Seed: wseed})
		return core.DeviceWorkload{Utterances: utts}, err
	}
	rng := core.NewRNG(wseed, wseed^core.SaltWorkload)
	scenes := make([]peripheral.Scene, cfg.Frames)
	for j := range scenes {
		if rng.Float64() < cfg.SensitiveFraction {
			scenes[j] = peripheral.ScenePerson
		} else {
			scenes[j] = peripheral.SceneEmpty
		}
	}
	return core.DeviceWorkload{Scenes: scenes}, nil
}
