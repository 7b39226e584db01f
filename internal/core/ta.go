package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/asr"
	"repro/internal/attest"
	"repro/internal/audio"
	"repro/internal/driver"
	"repro/internal/he"
	"repro/internal/i2s"
	"repro/internal/ml/classify"
	"repro/internal/optee"
	"repro/internal/relay"
	"repro/internal/sensitive"
	"repro/internal/tz"
)

// VoiceTADigest is the measured code identity of the voice TA — what a
// loader hashing the TA image would report, and what the fleet verifier
// expects from secure speakers.
var VoiceTADigest = attest.MeasureCode("periguard", UUIDVoiceTA)

// DriverPTA is the pseudo trusted application bridging the TA and the
// in-TEE sound driver (paper §II: a PTA "with OS-level privileges that
// could serve as an intermediary between a TA and low-level code like
// device driver software").
type DriverPTA struct {
	drv *driver.SoundDriver

	mu      sync.Mutex
	started bool
}

// PTA commands.
const (
	// CmdPTAStart probes and starts the capture stream.
	CmdPTAStart uint32 = 0x10
	// CmdPTARead drains captured bytes into params[0] (MemrefOut); the
	// number of valid bytes returns in params[1].A (ValueOut).
	CmdPTARead uint32 = 0x11
	// CmdPTAStop stops and closes the stream.
	CmdPTAStop uint32 = 0x12
)

// NewDriverPTA wraps the secure driver instance.
func NewDriverPTA(drv *driver.SoundDriver) *DriverPTA {
	return &DriverPTA{drv: drv}
}

// UUID implements optee.TA.
func (p *DriverPTA) UUID() string { return UUIDDriverPTA }

// Open implements optee.TA.
func (p *DriverPTA) Open(sessionID uint32) error { return nil }

// Close implements optee.TA.
func (p *DriverPTA) Close(sessionID uint32) {}

// Invoke implements optee.TA.
func (p *DriverPTA) Invoke(sessionID uint32, cmd uint32, params *optee.Params) error {
	switch cmd {
	case CmdPTAStart:
		return p.start()
	case CmdPTARead:
		if params[0].Type != optee.MemrefOut || params[0].Buf == nil {
			return fmt.Errorf("%w: CmdPTARead needs MemrefOut", optee.ErrBadParam)
		}
		n, err := p.drv.ReadPCM(params[0].Buf)
		if err != nil {
			return err
		}
		params[1].Type = optee.ValueOut
		params[1].A = uint64(n)
		return nil
	case CmdPTAStop:
		return p.stop()
	default:
		return fmt.Errorf("%w: pta cmd %#x", optee.ErrBadParam, cmd)
	}
}

func (p *DriverPTA) start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return nil
	}
	if err := p.drv.Probe(); err != nil {
		return err
	}
	if err := p.drv.Open(); err != nil && !errors.Is(err, driver.ErrAlreadyOpen) {
		return err
	}
	if err := p.drv.HwParams(i2s.DefaultFormat()); err != nil {
		return err
	}
	if err := p.drv.Prepare(); err != nil {
		return err
	}
	if err := p.drv.TriggerStart(); err != nil {
		return err
	}
	p.started = true
	return nil
}

func (p *DriverPTA) stop() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		return nil
	}
	p.started = false
	if err := p.drv.TriggerStop(); err != nil {
		return err
	}
	return p.drv.Close()
}

// VoiceTA commands (the management commands CmdAttest, CmdUpdateModel and
// CmdRotateKey are shared by every TA; see tacore.go).
const (
	// CmdProcessUtterance captures params[0].A bytes of audio through the
	// PTA, transcribes, (optionally) classifies and filters, and relays
	// the result: a group of one, passed as a ValueIn so the call pays no
	// shared-memory flush. Outputs: params[1] ValueOut A=forwarded(0/1)
	// B=redacted.
	CmdProcessUtterance uint32 = 0x20
	// CmdProcessBatch processes several queued utterances in ONE TA
	// invocation, amortizing the world-switch round trip and batching the
	// classifier forward pass across the queue. params[0] is a MemrefIn of
	// little-endian uint32 utterance byte lengths; outputs: params[1]
	// ValueOut A=forwarded count, B=total redacted tokens.
	CmdProcessBatch uint32 = 0x21
	// CmdTranscribeBatch runs the front half of CmdProcessBatch — capture
	// and in-TEE transcription for one queued group — then parks: the
	// group is staged for an external shared-scheduler classification
	// instead of classifying inline, so the calling thread can yield while
	// the cross-device flush forms. params[0] is a MemrefIn of
	// little-endian uint32 utterance byte lengths; params[1].A (ValueOut)
	// returns the pending count.
	CmdTranscribeBatch uint32 = 0x25
	// CmdResumeBatch completes a staged batch with verdicts from the
	// shared classifier: params[0] is a MemrefIn of 5 bytes per item
	// (flag byte + little-endian uint32 flush occupancy), params[1].A
	// (ValueIn) the virtual cycles the classification waited. The TA
	// charges the wait, applies the relay policy and forwards survivors.
	// Outputs: params[2] ValueOut A=forwarded count, B=redacted tokens.
	CmdResumeBatch uint32 = 0x26
	// CmdResumeBatchHE completes a staged batch via the HE→TEE handoff
	// (ModeHybridHE): params[0] is a MemrefIn of concatenated
	// length-prefixed ciphertext blobs (little-endian uint32 byte length
	// followed by the provider-evaluated HE layer output), one per
	// staged utterance. The TA unseals the HE secret key from secure
	// storage, decrypts each blob, runs the classifier's non-linear tail
	// inside the TEE, applies the relay policy and forwards survivors.
	// Outputs: params[1] ValueOut A=forwarded count, B=redacted tokens.
	CmdResumeBatchHE uint32 = 0x27
)

// MaxBatch bounds one CmdProcessBatch invocation; it keeps the batch's
// wire bytes comfortably inside the controller FIFO.
const MaxBatch = 8

// StageCycles decomposes one utterance's TEE processing time.
type StageCycles struct {
	Capture    tz.Cycles
	Transcribe tz.Cycles
	Classify   tz.Cycles
	Relay      tz.Cycles
}

// Total sums the stages.
func (s StageCycles) Total() tz.Cycles {
	return s.Capture + s.Transcribe + s.Classify + s.Relay
}

// ProcessedUtterance is the TA-side record of one handled utterance.
// It never leaves the secure world; experiments read it as trusted
// instrumentation.
type ProcessedUtterance struct {
	Transcript []string
	Flagged    bool
	Forwarded  bool
	// Shed marks a forwarded event the ingest frontend dropped under
	// queue pressure (the relay saw cloud.ErrShed instead of a sealed
	// directive). The event was emitted and cost-accounted; it simply
	// never reached the provider.
	Shed bool
	// Expired marks a forwarded event whose delivery retry budget ran out
	// (the relay saw cloud.ErrExpired): the uplink retried deterministically
	// and gave up explicitly. Like Shed, the event was emitted and
	// cost-accounted — it is an accounting outcome, never a silent loss.
	Expired    bool
	Redacted   int
	Stages     StageCycles
	SealedSize int
	// ClassifyBatch is the occupancy of the forward pass that classified
	// this utterance: the device's own queue length on the local path, or
	// the cross-device flush size when a shared classify service is
	// wired (0 when the filter did not run).
	ClassifyBatch int
}

// VoiceTAConfig wires the TA's dependencies.
type VoiceTAConfig struct {
	TEE        *optee.OS
	Storage    *optee.Storage
	Recognizer *asr.Session
	Arch       classify.Arch
	VocabSize  int
	Vocab      *sensitive.Vocabulary
	Policy     relay.Policy
	Filter     bool // false = secure-nofilter mode
	Identity   *relay.Identity
	CloudPub   []byte
	Clock      *tz.Clock
	Cost       tz.CostModel
	Seed       uint64
	// Attestor signs measurement reports with the device's attestation
	// key (nil outside attested fleets); ModelVersion is the provisioned
	// model-pack version the TA boots with.
	Attestor     *attest.Attestor
	ModelVersion uint64
	// Hybrid marks the HE+TEE split-inference deployment: the TA
	// accepts CmdResumeBatchHE handoffs, decrypting under the sealed
	// secret key and running the classifier tail in the TEE. HEParams
	// is the leveled-HE parameter set the fleet's key pair uses.
	Hybrid   bool
	HEParams he.Params
}

// voiceKind is the voice TA's lifecycle identity: text weights and the
// text split, under the voice-ta/ storage prefix.
var voiceKind = newTAKind("voice-ta", VoiceTADigest, func(p attest.Pack) []byte { return p.Text }, splitText)

// VoiceTA is the trusted application of Fig. 1: it pulls audio from the
// PTA, transcribes it, applies the ML filter, and relays sanitized events
// through the supplicant to the cloud.
//
// Every command runs one utterance group through the same three steps:
// stageGroup (capture and transcribe), one classify step — inline
// (classifyGroup), the shared scheduler's verdicts (applyVerdicts) or the
// HE tail (classifyHE) — and finishGroup (relay and record).
type VoiceTA struct {
	taCore
	recognizer *asr.Session
	vocab      *sensitive.Vocabulary
	policy     relay.Policy

	// Guarded by taCore.mu.
	opens     int // open-session refcount; capture runs while > 0
	processed []ProcessedUtterance
	// pending is the group CmdTranscribeBatch staged for
	// CmdResumeBatch/CmdResumeBatchHE: records carrying the capture and
	// transcribe halves. At most one group is pending per TA.
	pending []ProcessedUtterance
}

var _ optee.TA = (*VoiceTA)(nil)

// NewVoiceTA constructs the TA (registered but not yet opened).
func NewVoiceTA(cfg VoiceTAConfig) (*VoiceTA, error) {
	t := &VoiceTA{
		taCore: taCore{
			kind: voiceKind, tee: cfg.TEE, storage: cfg.Storage, clock: cfg.Clock, cost: cfg.Cost,
			filter: cfg.Filter, hybrid: cfg.Hybrid, heParams: cfg.HEParams,
			skeleton: func(seed uint64) (*classify.Classifier, error) {
				return classify.NewText(cfg.Arch, NewRNG(seed, seed^SaltClassifier), cfg.VocabSize, 12)
			},
			attestor: cfg.Attestor, modelVersion: cfg.ModelVersion, modelSeed: cfg.Seed,
		},
		recognizer: cfg.Recognizer,
		vocab:      cfg.Vocab,
		policy:     cfg.Policy,
	}
	if err := t.init(cfg.Identity, cfg.CloudPub); err != nil {
		return nil, err
	}
	return t, nil
}

// UUID implements optee.TA.
func (t *VoiceTA) UUID() string { return UUIDVoiceTA }

// Open implements optee.TA. The TA is a single multi-session instance:
// the first session starts the capture stream through the PTA; further
// sessions (a management session attesting or updating the model while
// a processing session is live) share the running instance, and capture
// stops only when the last session closes. The refcount slot is
// reserved before the side effects, so an interleaved Close of another
// session can never observe a zero count while this one is opening.
// Classifier unsealing is deferred to first classify
// (loadedClassifier), keeping management sessions lightweight.
func (t *VoiceTA) Open(sessionID uint32) error {
	t.mu.Lock()
	t.opens++
	first := t.opens == 1
	t.mu.Unlock()
	if first {
		if err := t.tee.InvokeSecure(UUIDDriverPTA, CmdPTAStart, nil); err != nil {
			t.mu.Lock()
			t.opens--
			t.mu.Unlock()
			return fmt.Errorf("voice ta pta start: %w", err)
		}
	}
	return nil
}

// Close implements optee.TA: the last session stops the capture stream.
func (t *VoiceTA) Close(sessionID uint32) {
	t.mu.Lock()
	if t.opens > 0 {
		t.opens--
	}
	last := t.opens == 0
	t.mu.Unlock()
	if last {
		_ = t.tee.InvokeSecure(UUIDDriverPTA, CmdPTAStop, nil)
	}
}

// Invoke implements optee.TA.
func (t *VoiceTA) Invoke(sessionID uint32, cmd uint32, params *optee.Params) error {
	switch cmd {
	case CmdProcessUtterance:
		if params[0].Type != optee.ValueIn {
			return fmt.Errorf("%w: CmdProcessUtterance needs ValueIn bytes", optee.ErrBadParam)
		}
		return t.processGroup([]int{int(params[0].A)}, &params[1])
	case CmdProcessBatch:
		lengths, err := parseLengths(params[0], "CmdProcessBatch")
		if err != nil {
			return err
		}
		return t.processGroup(lengths, &params[1])
	case CmdTranscribeBatch:
		lengths, err := parseLengths(params[0], "CmdTranscribeBatch")
		if err != nil {
			return err
		}
		if err := t.stagePending(lengths); err != nil {
			return err
		}
		params[1].Type = optee.ValueOut
		params[1].A = uint64(len(lengths))
		return nil
	case CmdResumeBatch:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) == 0 || len(params[0].Buf)%5 != 0 {
			return fmt.Errorf("%w: CmdResumeBatch needs MemrefIn of 5-byte verdicts", optee.ErrBadParam)
		}
		if params[1].Type != optee.ValueIn {
			return fmt.Errorf("%w: CmdResumeBatch needs ValueIn wait cycles", optee.ErrBadParam)
		}
		recs, err := t.takePending(len(params[0].Buf) / 5)
		if err != nil {
			return err
		}
		t.applyVerdicts(recs, params[0].Buf, tz.Cycles(params[1].A))
		return t.finishGroup(recs, &params[2])
	case CmdResumeBatchHE:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) == 0 {
			return fmt.Errorf("%w: CmdResumeBatchHE needs MemrefIn ciphertext blobs", optee.ErrBadParam)
		}
		blobs, err := splitLengthPrefixed(params[0].Buf)
		if err != nil {
			return fmt.Errorf("%w: CmdResumeBatchHE: %v", optee.ErrBadParam, err)
		}
		recs, err := t.takePending(len(blobs))
		if err != nil {
			return err
		}
		if err := t.classifyHE(recs, blobs); err != nil {
			return err
		}
		return t.finishGroup(recs, &params[1])
	default:
		return t.manage(cmd, params)
	}
}

// parseLengths decodes a group's MemrefIn of little-endian uint32
// utterance byte lengths.
func parseLengths(p optee.Param, cmd string) ([]int, error) {
	if p.Type != optee.MemrefIn || len(p.Buf) == 0 || len(p.Buf)%4 != 0 {
		return nil, fmt.Errorf("%w: %s needs MemrefIn of uint32 lengths", optee.ErrBadParam, cmd)
	}
	lengths := make([]int, len(p.Buf)/4)
	if len(lengths) > MaxBatch {
		return nil, fmt.Errorf("%w: batch of %d exceeds MaxBatch %d", optee.ErrBadParam, len(lengths), MaxBatch)
	}
	for i := range lengths {
		lengths[i] = int(binary.LittleEndian.Uint32(p.Buf[4*i:]))
	}
	return lengths, nil
}

// taScratch is the reusable buffer set for one in-flight TA invocation:
// capture accumulation, the PTA read chunk, and the decode pipeline's
// sample buffers. Pooled so the batched path (CmdProcessBatch) processes
// every queued utterance without per-item heap allocation, whichever TA
// instance (device) is running — the pool is package-level because fleet
// devices process in bounded worker pools, so a handful of scratch sets
// serves thousands of devices.
type taScratch struct {
	pcmBytes []byte
	chunk    []byte
	samples  []int32
	floats   []float64
}

var taScratchPool = sync.Pool{
	New: func() any { return &taScratch{chunk: make([]byte, 4096)} },
}

// captureStage pulls wantBytes of wire audio through the PTA into
// TA-private buffers (Fig. 1 step 4). The returned slice belongs to the
// scratch set and is valid until the scratch is released.
func (t *VoiceTA) captureStage(sc *taScratch, wantBytes int) ([]byte, error) {
	if cap(sc.pcmBytes) < wantBytes {
		sc.pcmBytes = make([]byte, 0, wantBytes)
	}
	pcmBytes := sc.pcmBytes[:0]
	idle := 0
	for len(pcmBytes) < wantBytes {
		p := &optee.Params{
			{Type: optee.MemrefOut, Buf: sc.chunk[:min(len(sc.chunk), wantBytes-len(pcmBytes))]},
			{},
		}
		if err := t.tee.InvokeSecure(UUIDDriverPTA, CmdPTARead, p); err != nil {
			return nil, fmt.Errorf("voice ta pta read: %w", err)
		}
		n := int(p[1].A)
		if n == 0 {
			idle++
			if idle > 1000 {
				return nil, fmt.Errorf("voice ta: capture stalled at %d/%d bytes", len(pcmBytes), wantBytes)
			}
			continue
		}
		idle = 0
		pcmBytes = append(pcmBytes, p[0].Buf[:n]...)
	}
	sc.pcmBytes = pcmBytes
	return pcmBytes, nil
}

// transcribeStage decodes the wire bytes and runs the in-TEE recognizer
// (Fig. 1 step 5). The recognizer's arithmetic is charged as the MFCC
// front end (FFT + filterbank + DCT per 10 ms hop, ~6k cycles/frame on a
// NEON-class core) plus template matching.
func (t *VoiceTA) transcribeStage(sc *taScratch, pcmBytes []byte) ([]string, error) {
	samples, err := i2s.DecodeFramesInto(sc.samples, pcmBytes, i2s.DefaultFormat())
	if err != nil {
		return nil, fmt.Errorf("voice ta decode: %w", err)
	}
	sc.samples = samples
	if cap(sc.floats) < len(samples) {
		sc.floats = make([]float64, len(samples))
	}
	floats := sc.floats[:len(samples)]
	for i, s := range samples {
		// int16 truncation then the FromInt16 scaling of the historical
		// decode path, fused into one pass over pooled scratch.
		floats[i] = float64(int16(s)) / 32768
	}
	pcm := audio.PCM{Rate: 16000, Samples: floats}
	words, err := t.recognizer.TranscribeWords(pcm)
	if err != nil {
		return nil, fmt.Errorf("voice ta asr: %w", err)
	}
	frames := len(pcm.Samples) / 160
	t.clock.Advance(tz.Cycles(frames)*6000 + tz.Cycles(t.recognizer.MemoryBytes()/8))
	return words, nil
}

// stageGroup captures and transcribes one queued group (Fig. 1 steps
// 4–5). One pooled scratch set serves the whole group: capture and
// decode buffers are recycled item to item, so a batch does not allocate
// per utterance.
func (t *VoiceTA) stageGroup(lengths []int) ([]ProcessedUtterance, error) {
	recs := make([]ProcessedUtterance, len(lengths))
	sc := taScratchPool.Get().(*taScratch)
	defer taScratchPool.Put(sc)
	for i, wantBytes := range lengths {
		start := t.clock.Now()
		pcmBytes, err := t.captureStage(sc, wantBytes)
		if err != nil {
			return nil, fmt.Errorf("utterance %d: %w", i, err)
		}
		recs[i].Stages.Capture = t.clock.Now() - start

		start = t.clock.Now()
		if recs[i].Transcript, err = t.transcribeStage(sc, pcmBytes); err != nil {
			return nil, fmt.Errorf("utterance %d: %w", i, err)
		}
		recs[i].Stages.Transcribe = t.clock.Now() - start
	}
	return recs, nil
}

// processGroup runs a group through all three steps in one invocation:
// the caller paid one world-switch round trip for the whole group.
func (t *VoiceTA) processGroup(lengths []int, out *optee.Param) error {
	recs, err := t.stageGroup(lengths)
	if err != nil {
		return err
	}
	if err := t.classifyGroup(recs); err != nil {
		return err
	}
	return t.finishGroup(recs, out)
}

// classifyGroup runs the ML filter over a staged group in one forward
// pass and attributes the pass evenly: it is shared work. On the local
// path that is one pass over the device's own queue, charged at 4
// MACs/cycle (NEON-class SIMD) per sample; with a shared classify
// service wired, the encoded tokens ride a cross-device batch and the
// device is charged the scheduler's queue wait plus its share of the
// shared pass instead. A no-filter TA skips the step.
func (t *VoiceTA) classifyGroup(recs []ProcessedUtterance) error {
	if !t.filter {
		return nil
	}
	start := t.clock.Now()
	flags, occupancy, err := t.classifyStage(recs)
	if err != nil {
		return err
	}
	spent := t.clock.Now() - start
	for i := range recs {
		recs[i].Flagged = flags[i]
		recs[i].ClassifyBatch = occupancy
		recs[i].Stages.Classify = spent / tz.Cycles(len(recs))
	}
	return nil
}

// classifyStage returns the group's verdicts and the occupancy of the
// forward pass that served it.
func (t *VoiceTA) classifyStage(recs []ProcessedUtterance) ([]bool, int, error) {
	t.mu.Lock()
	remote, device, version := t.remote, t.remoteDevice, t.modelVersion
	t.mu.Unlock()
	if remote != nil {
		tokens := make([][]int, len(recs))
		for i := range recs {
			tokens[i] = t.vocab.Encode(recs[i].Transcript)
		}
		resp, err := remote.ClassifyBatch(ClassifyRequest{
			DeviceID:     device,
			ModelVersion: version,
			Tokens:       tokens,
			Now:          t.clock.Now(),
		})
		if err != nil {
			return nil, 0, fmt.Errorf("voice ta classify (shared): %w", err)
		}
		if len(resp.Flagged) != len(recs) {
			return nil, 0, fmt.Errorf("voice ta classify (shared): %d flags for %d transcripts",
				len(resp.Flagged), len(recs))
		}
		t.clock.Advance(resp.Wait)
		return resp.Flagged, resp.Occupancy, nil
	}
	clf, err := t.loadedClassifier()
	if err != nil {
		return nil, 0, err
	}
	batch := make([][]float32, len(recs))
	for i := range recs {
		batch[i] = clf.TokensToFeatures(t.vocab.Encode(recs[i].Transcript))
	}
	classes, err := clf.PredictBatch(batch)
	if err != nil {
		return nil, 0, fmt.Errorf("voice ta classify: %w", err)
	}
	t.clock.Advance(tz.Cycles(clf.EstimateMACs() * len(batch) / 4))
	flagged := make([]bool, len(classes))
	for i, cls := range classes {
		flagged[i] = cls == 1
	}
	return flagged, len(batch), nil
}

// applyVerdicts is the classify step of a staged group the shared
// classifier served: verdicts holds 5 bytes per item (flag byte plus
// little-endian uint32 flush occupancy), and wait is the virtual cycles
// the classification waited (the shared passes overlapped — the wait is
// when the last one returned). The wait is charged and attributed evenly,
// mirroring the inline batched pass.
func (t *VoiceTA) applyVerdicts(recs []ProcessedUtterance, verdicts []byte, wait tz.Cycles) {
	t.clock.Advance(wait)
	for i := range recs {
		v := verdicts[5*i:]
		recs[i].Flagged = v[0] != 0
		recs[i].ClassifyBatch = int(binary.LittleEndian.Uint32(v[1:]))
		recs[i].Stages.Classify = wait / tz.Cycles(len(recs))
	}
}

// classifyHE is the classify step of the HE→TEE handoff: the
// classifier's first linear layer already ran homomorphically at the
// provider, and the TA decrypts each provider-evaluated ciphertext under
// the sealed secret key and runs the non-linear tail (ReLU → pool →
// dense → argmax) inside the TEE.
func (t *VoiceTA) classifyHE(recs []ProcessedUtterance, blobs [][]byte) error {
	h, err := t.openHandoff()
	if err != nil {
		return err
	}
	for i := range recs {
		start := t.clock.Now()
		if recs[i].Flagged, err = h.verdict(blobs[i]); err != nil {
			return fmt.Errorf("utterance %d: %w", i, err)
		}
		recs[i].ClassifyBatch = len(recs)
		recs[i].Stages.Classify = t.clock.Now() - start
	}
	return nil
}

// finishGroup relays each record of a classified group, records the
// group, and reports A=forwarded count, B=redacted tokens in out.
func (t *VoiceTA) finishGroup(recs []ProcessedUtterance, out *optee.Param) error {
	for i := range recs {
		start := t.clock.Now()
		if err := t.relayStage(&recs[i]); err != nil {
			return fmt.Errorf("utterance %d: %w", i, err)
		}
		recs[i].Stages.Relay = t.clock.Now() - start
	}
	t.mu.Lock()
	t.processed = append(t.processed, recs...)
	t.mu.Unlock()
	*out = optee.Param{Type: optee.ValueOut}
	for _, rec := range recs {
		if rec.Forwarded {
			out.A++
		}
		out.B += uint64(rec.Redacted)
	}
	return nil
}

// relayStage applies the filter policy and forwards the sanitized
// transcript through the shared relay send.
func (t *VoiceTA) relayStage(rec *ProcessedUtterance) error {
	policy := t.policy
	if !t.filter {
		policy = relay.PolicyPassThrough
	}
	result, err := relay.ApplyPolicy(policy, rec.Flagged, rec.Transcript)
	if err != nil {
		return err
	}
	rec.Forwarded = result.Forward
	rec.Redacted = result.Redacted
	if !result.Forward {
		return nil
	}
	out, err := t.send(relay.Event{
		Namespace:  relay.NamespaceSpeech,
		Name:       relay.NameTranscript,
		Transcript: result.Tokens,
		Redacted:   result.Redacted,
	})
	rec.SealedSize, rec.Shed, rec.Expired = out.sealedSize, out.shed, out.expired
	return err
}

// stagePending is CmdTranscribeBatch: stage a group and park it for an
// external classification, which is what lets an event-driven caller
// release its executor while a cross-device flush forms.
func (t *VoiceTA) stagePending(lengths []int) error {
	if !t.filter {
		return errors.New("voice ta: staged transcribe requires the filter")
	}
	t.mu.Lock()
	busy := len(t.pending) > 0
	t.mu.Unlock()
	if busy {
		return errors.New("voice ta: staged batch already pending")
	}
	recs, err := t.stageGroup(lengths)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.pending = recs
	t.mu.Unlock()
	return nil
}

// takePending clears the staged group and returns it for completion
// with n results.
func (t *VoiceTA) takePending(n int) ([]ProcessedUtterance, error) {
	t.mu.Lock()
	recs := t.pending
	t.pending = nil
	t.mu.Unlock()
	if len(recs) == 0 {
		return nil, errors.New("voice ta: no staged batch pending")
	}
	if n != len(recs) {
		return nil, fmt.Errorf("voice ta resume: %d results for %d pending", n, len(recs))
	}
	return recs, nil
}

// packLengthPrefixed concatenates blobs as little-endian uint32 byte
// lengths followed by the bytes — the MemrefIn wire form of the HE
// handoff commands.
func packLengthPrefixed(blobs [][]byte) []byte {
	size := 0
	for _, b := range blobs {
		size += 4 + len(b)
	}
	out := make([]byte, 0, size)
	for _, b := range blobs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

// splitLengthPrefixed is the inverse of packLengthPrefixed.
func splitLengthPrefixed(buf []byte) ([][]byte, error) {
	var out [][]byte
	for len(buf) > 0 {
		if len(buf) < 4 {
			return nil, fmt.Errorf("truncated length prefix (%d bytes)", len(buf))
		}
		n := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if n <= 0 || n > len(buf) {
			return nil, fmt.Errorf("blob length %d of %d remaining", n, len(buf))
		}
		out = append(out, buf[:n])
		buf = buf[n:]
	}
	if len(out) == 0 {
		return nil, errors.New("no blobs")
	}
	return out, nil
}

// PendingTokens returns the encoded token sequences of the group staged
// by CmdTranscribeBatch and awaiting classification (empty when nothing
// is pending). Token IDs are exactly what classifyStage submits to a
// shared classify service — vocabulary-clamped in the TA, never
// transcript words — so handing them to the scheduler keeps the trust
// boundary.
func (t *VoiceTA) PendingTokens() [][]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([][]int, len(t.pending))
	for i := range t.pending {
		out[i] = t.vocab.Encode(t.pending[i].Transcript)
	}
	return out
}

// Processed returns the TA's per-utterance records (trusted-side
// instrumentation for the experiments).
func (t *VoiceTA) Processed() []ProcessedUtterance {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]ProcessedUtterance(nil), t.processed...)
}

// ResetProcessed clears the records between runs.
func (t *VoiceTA) ResetProcessed() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.processed = nil
}
