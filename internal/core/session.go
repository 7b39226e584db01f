package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/audio"
	"repro/internal/cloud"
	"repro/internal/he"
	"repro/internal/i2s"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/optee"
	"repro/internal/power"
	"repro/internal/sensitive"
	"repro/internal/teec"
	"repro/internal/tz"
)

// ErrNoTEE is returned for TEE-only operations on baseline systems.
var ErrNoTEE = errors.New("core: operation requires a secure-mode system")

// SnoopSummary aggregates the compromised-OS adversary's results.
type SnoopSummary struct {
	Attempts       int
	Blocked        int
	BytesRecovered int
}

// add tallies one snoop attempt.
func (s *SnoopSummary) add(got kernel.SnoopResult) {
	s.Attempts++
	if got.Blocked {
		s.Blocked++
	} else {
		s.BytesRecovered += len(got.Got)
	}
}

// UtteranceOutcome pairs ground truth with what happened to one utterance.
type UtteranceOutcome struct {
	Truth      sensitive.Utterance
	Transcript []string // device transcript (secure modes)
	Flagged    bool
	Forwarded  bool
	// Shed marks an emitted event the ingest frontend dropped under
	// queue pressure (cloud.ErrShed): the device treats it as a
	// retriable network drop, not a session fault.
	Shed bool
	// Expired marks an emitted event whose uplink retry budget ran out
	// (cloud.ErrExpired): retried deterministically, given up explicitly.
	Expired  bool
	Redacted int
	Cycles   tz.Cycles
	Stages   StageCycles
}

// SessionResult aggregates one RunSession.
type SessionResult struct {
	Mode       Mode
	Utterances []UtteranceOutcome
	// ShedEvents counts emitted events the ingest frontend dropped by
	// admission policy (per-utterance detail in Utterances[i].Shed).
	ShedEvents int
	// ExpiredEvents counts emitted events whose delivery retry budget ran
	// out (per-utterance detail in Utterances[i].Expired).
	ExpiredEvents int

	// Privacy outcomes.
	CloudAudit cloud.Audit
	Snoop      SnoopSummary
	// SupplicantPlaintextTokens counts private tokens visible to the
	// (untrusted) supplicant in the payloads it forwarded — zero when the
	// relay seals correctly.
	SupplicantPlaintextTokens int

	// Performance outcomes.
	Latency      *metrics.Recorder // cycles per utterance
	MonitorStats tz.MonitorStats
	Energy       power.Report
	RadioBytes   uint64
	TotalCycles  tz.Cycles
}

// LeakageRate returns sensitive tokens seen by the cloud per utterance
// carrying sensitive content.
func (r *SessionResult) LeakageRate() float64 {
	sensCount := 0
	for _, u := range r.Utterances {
		if u.Truth.Sensitive {
			sensCount++
		}
	}
	if sensCount == 0 {
		return 0
	}
	return float64(r.CloudAudit.SensitiveTokens) / float64(sensCount)
}

// FalseBlockRate returns the fraction of benign utterances that were not
// forwarded (usability cost of the filter).
func (r *SessionResult) FalseBlockRate() float64 {
	benign, blocked := 0, 0
	for _, u := range r.Utterances {
		if !u.Truth.Sensitive {
			benign++
			if !u.Forwarded {
				blocked++
			}
		}
	}
	if benign == 0 {
		return 0
	}
	return float64(blocked) / float64(benign)
}

// RunSession synthesizes and processes each utterance end to end and
// returns the aggregated result.
func (s *System) RunSession(utterances []sensitive.Utterance) (*SessionResult, error) {
	res := &SessionResult{Mode: s.cfg.Mode, Latency: metrics.NewRecorder()}
	startCycles := s.Clock.Now()
	s.Monitor.ResetStats()

	var processOne func(i int, u sensitive.Utterance) (UtteranceOutcome, error)
	if s.cfg.Mode == ModeBaseline {
		// Hold the capture stream open across the session so the DMA
		// buffer stays live (and snoopable), mirroring a continuously
		// listening assistant.
		fd, err := s.Kernel.Open("/dev/i2s0")
		if err != nil {
			return nil, fmt.Errorf("core baseline open: %w", err)
		}
		defer func() {
			_ = s.Kernel.Close(fd)
		}()
		processOne = func(i int, u sensitive.Utterance) (UtteranceOutcome, error) {
			return s.runBaselineUtterance(fd, i, u)
		}
	} else {
		// Secure modes share one TEEC session across the run.
		ctx := teec.InitializeContext(s.TEE)
		sess, err := ctx.OpenSession(UUIDVoiceTA)
		if err != nil {
			return nil, fmt.Errorf("core session: %w", err)
		}
		defer func() {
			_ = ctx.FinalizeContext()
		}()
		processOne = func(i int, u sensitive.Utterance) (UtteranceOutcome, error) {
			return s.runSecureUtterance(sess, i, u)
		}
	}

	for i, u := range utterances {
		outcome, err := processOne(i, u)
		if err != nil {
			return nil, fmt.Errorf("utterance %d (%q): %w", i, u.Text(), err)
		}
		res.add(outcome)
		// The compromised OS sweeps the driver's capture buffer after
		// every utterance.
		s.sweepSnoop(res)
	}

	s.finalizeSession(res, startCycles)
	return res, nil
}

// add tallies one outcome into the result.
func (r *SessionResult) add(out UtteranceOutcome) {
	r.Utterances = append(r.Utterances, out)
	if out.Shed {
		r.ShedEvents++
	}
	if out.Expired {
		r.ExpiredEvents++
	}
	r.Latency.Observe(float64(out.Cycles))
}

// sweepSnoop models the compromised OS reading the driver's live capture
// buffer (blocked by the TZASC in secure modes).
func (s *System) sweepSnoop(res *SessionResult) {
	addr := s.Driver.BufferAddr()
	if addr == 0 {
		return
	}
	res.Snoop.add(s.Snooper.Capture(addr, min(64, s.cfg.BufBytes)))
}

// finalizeSession fills the cross-cutting tail of a session result:
// virtual time, monitor stats, radio bytes, cloud/supplicant audits and
// the energy model.
func (s *System) finalizeSession(res *SessionResult, startCycles tz.Cycles) {
	res.TotalCycles = s.Clock.Now() - startCycles
	res.MonitorStats = s.Monitor.Stats()
	s.mu.Lock()
	res.RadioBytes = s.radioBytes
	s.mu.Unlock()

	switch s.cfg.Mode {
	case ModeBaseline:
		res.CloudAudit = s.CloudPlain.Audit()
	default:
		res.CloudAudit = s.CloudSealed.Audit()
		res.SupplicantPlaintextTokens = s.auditSupplicant()
	}

	res.Energy = power.DefaultModel().Measure(power.Usage{
		TotalCycles:  uint64(res.TotalCycles),
		SecureCycles: uint64(res.MonitorStats.SecureCycles),
		Switches:     res.MonitorStats.Switches,
		DMABytes:     s.DMA.Stats().Bytes,
		RadioBytes:   res.RadioBytes,
		FreqHz:       s.cfg.FreqHz,
	})
}

// emitUtteranceSpans exports one processed utterance's stage timeline to
// the device's trace context. Stage starts are laid out back to back from
// start, so the timeline is a pure function of the virtual clock. The
// terminal span carries the admission verdict: a withheld utterance ends
// at classify (blocked), a forwarded one at relay (delivered or shed).
// Only sizes, timings and verdicts are exported — never transcripts.
func (s *System) emitUtteranceSpans(start tz.Cycles, rec ProcessedUtterance, batch int) {
	tc := s.trace
	if !tc.Enabled() {
		return
	}
	// The classify span reports the occupancy of the forward pass that
	// actually served the utterance: with a shared classify service this
	// is the cross-device flush size, not the device's own queue length.
	if rec.ClassifyBatch > 0 {
		batch = rec.ClassifyBatch
	}
	tc.NextItem()
	t := start
	tc.Emit(obs.StageCapture, obs.VerdictNone, t, rec.Stages.Capture, 0, 0)
	t += rec.Stages.Capture
	tc.Emit(obs.StageTranscribe, obs.VerdictNone, t, rec.Stages.Transcribe, 0, 0)
	t += rec.Stages.Transcribe
	if s.cfg.Mode == ModeSecureFilter || s.cfg.Mode == ModeHybridHE {
		v := obs.VerdictNone
		if !rec.Forwarded {
			v = obs.VerdictBlocked
		}
		tc.Emit(obs.StageClassify, v, t, rec.Stages.Classify, 0, batch)
	}
	t += rec.Stages.Classify
	if rec.Forwarded {
		v := obs.VerdictDelivered
		if rec.Shed {
			v = obs.VerdictShed
		}
		if rec.Expired {
			v = obs.VerdictExpired
		}
		tc.Emit(obs.StageRelay, v, t, rec.Stages.Relay, rec.SealedSize, 0)
	}
}

// baseScratch is the baseline app's buffer set for one utterance: the
// captured wire bytes, the read chunk, the decoded samples and the PCM16
// payload. Pooled like taScratch, and borrowed for one
// runBaselineUtterance call, so a fleet of short-lived baseline devices
// shares a few sets instead of each growing its own.
type baseScratch struct {
	captured []byte
	read     []byte
	samples  []int32
	payload  []byte
}

var baseScratchPool = sync.Pool{New: func() any { return new(baseScratch) }}

// runBaselineUtterance: mic -> untrusted driver -> user app -> raw audio
// to the cloud, which transcribes server-side.
func (s *System) runBaselineUtterance(fd int, i int, u sensitive.Utterance) (UtteranceOutcome, error) {
	out := UtteranceOutcome{Truth: u}
	start := s.Clock.Now()

	wantBytes, err := s.loadUtterance(i, u)
	if err != nil {
		return out, err
	}

	sc := baseScratchPool.Get().(*baseScratch)
	defer baseScratchPool.Put(sc)
	if cap(sc.captured) < wantBytes {
		sc.captured = make([]byte, 0, wantBytes)
	}
	captured := sc.captured[:0]
	if cap(sc.read) < s.cfg.BufBytes {
		sc.read = make([]byte, s.cfg.BufBytes)
	}
	buf := sc.read[:s.cfg.BufBytes]
	idle := 0
	for len(captured) < wantBytes {
		if _, err := s.Mic.PumpBytes(min(wantBytes-len(captured)+4096, 8192)); err != nil {
			// Signal exhausted; keep draining the FIFO.
			idle++
		}
		n, err := s.Kernel.Read(fd, buf[:min(len(buf), wantBytes-len(captured))])
		if err != nil {
			return out, err
		}
		if n == 0 {
			idle++
			if idle > 2000 {
				return out, fmt.Errorf("baseline capture stalled at %d/%d", len(captured), wantBytes)
			}
			continue
		}
		idle = 0
		captured = append(captured, buf[:n]...)
	}

	// The app decodes the I2S wire frames to PCM16 and ships the raw
	// audio; charge radio bytes and per-byte CPU cost. The historical
	// path decoded to float64 and re-quantized through EncodePCM16; the
	// round trip is exact for 16-bit samples, so the payload is built
	// from the decoded samples directly, into pooled scratch (the uplink
	// has finished with the payload when Deliver returns).
	sc.captured = captured
	samples, err := i2s.DecodeFramesInto(sc.samples, captured, i2s.DefaultFormat())
	if err != nil {
		return out, fmt.Errorf("baseline decode: %w", err)
	}
	sc.samples = samples
	if cap(sc.payload) < len(samples)*2 {
		sc.payload = make([]byte, len(samples)*2)
	}
	payload := sc.payload[:len(samples)*2]
	for j, v := range samples {
		u := uint16(int16(v))
		payload[2*j] = byte(u)
		payload[2*j+1] = byte(u >> 8)
	}
	s.Clock.Advance(tz.Cycles(len(payload)) * s.Cost.CopyPerByte)
	relayStart := s.Clock.Now()
	s.mu.Lock()
	s.radioBytes += uint64(len(payload))
	sink := s.uplink
	s.mu.Unlock()
	if _, err := sink.Deliver(payload); err != nil {
		// A shed or expired frame was emitted and paid for; the frontend
		// dropped it under pressure (shed) or the retry budget ran out
		// (expired). Both are accounting outcomes, not faults.
		switch {
		case errors.Is(err, cloud.ErrShed):
			out.Shed = true
		case errors.Is(err, cloud.ErrExpired):
			out.Expired = true
		default:
			return out, fmt.Errorf("baseline deliver: %w", err)
		}
	}
	out.Forwarded = true
	out.Cycles = s.Clock.Now() - start
	out.Stages.Capture = out.Cycles // single-stage path
	if tc := s.trace; tc.Enabled() {
		tc.NextItem()
		tc.Emit(obs.StageCapture, obs.VerdictNone, start, relayStart-start, len(payload), 0)
		v := obs.VerdictDelivered
		if out.Shed {
			v = obs.VerdictShed
		}
		if out.Expired {
			v = obs.VerdictExpired
		}
		tc.Emit(obs.StageRelay, v, relayStart, s.Clock.Now()-relayStart, len(payload), 0)
	}
	return out, nil
}

// queueGroup renders a group's utterances onto the bus back to back (the
// mic appends signals; the big controller FIFO stands in for real-time
// pacing, see NewSystem) and returns the TA's MemrefIn of little-endian
// uint32 utterance byte lengths.
func (s *System) queueGroup(lo int, group []sensitive.Utterance) ([]byte, error) {
	lens := make([]byte, 0, 4*len(group))
	for i, u := range group {
		n, err := s.loadUtterance(lo+i, u)
		if err != nil {
			return nil, err
		}
		lens = binary.LittleEndian.AppendUint32(lens, uint32(n))
	}
	for {
		if _, err := s.Mic.PumpBytes(8192); err != nil {
			break
		}
	}
	return lens, nil
}

// invokeGroup queues a group on the bus and invokes cmd with the
// group's lengths as the TA's MemrefIn.
func (s *System) invokeGroup(sess *teec.Session, cmd uint32, lo int, group []sensitive.Utterance) error {
	lens, err := s.queueGroup(lo, group)
	if err != nil {
		return err
	}
	return sess.InvokeCommand(cmd, &optee.Params{{Type: optee.MemrefIn, Buf: lens}, {}})
}

// groupRecords returns the n records a group invocation appended to the
// TA's log after the first before.
func (s *System) groupRecords(before, n int) ([]ProcessedUtterance, error) {
	records := s.VoiceTA.Processed()
	if len(records) != before+n {
		return nil, fmt.Errorf("%d records for %d utterances", len(records)-before, n)
	}
	return records[before:], nil
}

// outcome copies one TA record into a session outcome with the given
// latency and charges the record's sealed bytes to the radio.
func (s *System) outcome(truth sensitive.Utterance, rec ProcessedUtterance, cycles tz.Cycles) UtteranceOutcome {
	if rec.SealedSize > 0 {
		s.mu.Lock()
		s.radioBytes += uint64(rec.SealedSize)
		s.mu.Unlock()
	}
	return UtteranceOutcome{
		Truth:      truth,
		Transcript: rec.Transcript,
		Flagged:    rec.Flagged,
		Forwarded:  rec.Forwarded,
		Shed:       rec.Shed,
		Expired:    rec.Expired,
		Redacted:   rec.Redacted,
		Cycles:     cycles,
		Stages:     rec.Stages,
	}
}

// recordGroup folds a TA-processed group into the result. The items of a
// group share one session-clock interval, so each is laid out — spans
// and latency — at its summed stage cycles, back to back from start; the
// compromised OS then sweeps the capture buffer between groups.
func (s *System) recordGroup(res *SessionResult, start tz.Cycles, truths []sensitive.Utterance, recs []ProcessedUtterance) {
	for i, rec := range recs {
		s.emitUtteranceSpans(start, rec, len(recs))
		start += rec.Stages.Total()
		res.add(s.outcome(truths[i], rec, rec.Stages.Total()))
	}
	s.sweepSnoop(res)
}

// runSecureUtterance runs one utterance as a TA group of one: mic ->
// secure driver -> PTA -> TA (ASR [+filter]) -> sealed relay ->
// supplicant -> cloud, with the hybrid split's HE round trip between
// transcription and classification. Its latency is the session clock
// across the whole call, normal-world work included.
func (s *System) runSecureUtterance(sess *teec.Session, i int, u sensitive.Utterance) (UtteranceOutcome, error) {
	start := s.Clock.Now()
	before := len(s.VoiceTA.Processed())
	group := []sensitive.Utterance{u}
	if s.cfg.Mode == ModeHybridHE {
		if err := s.hybridProcessGroup(sess, i, group); err != nil {
			return UtteranceOutcome{}, err
		}
	} else {
		lens, err := s.queueGroup(i, group)
		if err != nil {
			return UtteranceOutcome{}, err
		}
		p := &optee.Params{{Type: optee.ValueIn, A: uint64(binary.LittleEndian.Uint32(lens))}, {}}
		if err := sess.InvokeCommand(CmdProcessUtterance, p); err != nil {
			return UtteranceOutcome{}, err
		}
	}
	recs, err := s.groupRecords(before, 1)
	if err != nil {
		return UtteranceOutcome{}, err
	}
	out := s.outcome(u, recs[0], s.Clock.Now()-start)
	s.emitUtteranceSpans(start, recs[0], 1)
	return out, nil
}

// heWire is the normal world's buffer pair for the hybrid HE round
// trip, shared by both device kinds: wire holds one device ciphertext on
// its way to the provider, and handoff collects the provider's result
// blobs, length-prefixed, for the TA command that decrypts them. The
// normal world takes one from heWirePool per speaker group or doorbell
// session and puts it back only after that command has returned: the
// TA decodes every blob into its own ciphertext before Invoke returns
// and keeps no reference into the buffer.
type heWire struct{ wire, handoff []byte }

var heWirePool = sync.Pool{New: func() any { return new(heWire) }}

// roundTrip encrypts one feature tensor under pub, marshals it into
// w.wire, and has the provider's eval append its result blob to
// w.handoff as one length-prefixed entry. It returns the hop's radio
// bytes: the ciphertext up plus the result down.
func (w *heWire) roundTrip(ev *he.Evaluator, pub he.PublicKey, data []float32, shape []int, eval func(dst, wire []byte) ([]byte, error)) (int, error) {
	ct, err := ev.Encrypt(pub, data, shape)
	if err != nil {
		return 0, fmt.Errorf("encrypt: %w", err)
	}
	w.wire = ct.AppendMarshal(w.wire[:0], ev.Params)
	before := len(w.handoff)
	w.handoff, err = appendLengthPrefixed(w.handoff, func(dst []byte) ([]byte, error) {
		return eval(dst, w.wire)
	})
	if err != nil {
		return 0, fmt.Errorf("eval: %w", err)
	}
	return len(w.wire) + len(w.handoff) - before - 4, nil
}

// hybridProcessGroup runs one group of utterances through the hybrid
// HE+TEE split. The TA captures and transcribes the group, staging it
// (CmdTranscribeBatch); the normal world runs the embedding head over
// the staged tokens and encrypts the features under the provider's HE
// public key; the provider evaluates the classifier's first conv layer
// blind over the ciphertexts; and CmdResumeBatchHE hands the results
// back into the TA, which decrypts under the sealed secret key and runs
// the non-linear tail, policy filter and sealed relay exactly as
// secure-filter does. The provider observes ciphertext bytes only —
// never a cleartext feature.
func (s *System) hybridProcessGroup(sess *teec.Session, lo int, group []sensitive.Utterance) error {
	if err := s.invokeGroup(sess, CmdTranscribeBatch, lo, group); err != nil {
		return fmt.Errorf("hybrid transcribe: %w", err)
	}

	tokens := s.VoiceTA.PendingTokens()
	if len(tokens) != len(group) {
		return fmt.Errorf("hybrid stage: %d token sets for %d utterances", len(tokens), len(group))
	}
	w := heWirePool.Get().(*heWire)
	defer heWirePool.Put(w)
	w.handoff = w.handoff[:0]
	feats := make([]float32, s.heSplit.SeqLen)
	for i, ids := range tokens {
		for j := range feats {
			feats[j] = 0
		}
		for j := 0; j < len(ids) && j < len(feats); j++ {
			feats[j] = float32(ids[j])
		}
		data, shape, err := s.heSplit.EmbedFeatures(feats)
		if err != nil {
			return fmt.Errorf("hybrid embed %d: %w", i, err)
		}
		radio, err := w.roundTrip(s.HEEval, s.HEPub, data, shape, s.HE.AppendEvalText)
		if err != nil {
			return fmt.Errorf("hybrid %d: %w", i, err)
		}
		s.mu.Lock()
		s.radioBytes += uint64(radio)
		s.mu.Unlock()
	}

	p := &optee.Params{{Type: optee.MemrefIn, Buf: w.handoff}, {}}
	if err := sess.InvokeCommand(CmdResumeBatchHE, p); err != nil {
		return fmt.Errorf("hybrid resume: %w", err)
	}
	return nil
}

// RunSessionBatched is RunSession for the secure modes with TA-side
// batching: utterances are queued onto the bus in groups of `batch` and
// each group is processed by ONE CmdProcessBatch invocation, so the
// session pays one world-switch round trip per group instead of per
// utterance, and the classifier runs one batched forward pass per group.
// The hybrid split takes two invocations per group (stage, then the HE
// handoff) around the provider round trip, still with one capture
// queueing. Baseline mode has no TA to batch into and falls back to
// RunSession.
func (s *System) RunSessionBatched(utterances []sensitive.Utterance, batch int) (*SessionResult, error) {
	if s.cfg.Mode == ModeBaseline || batch <= 1 {
		return s.RunSession(utterances)
	}
	if batch > MaxBatch {
		batch = MaxBatch
	}
	res := &SessionResult{Mode: s.cfg.Mode, Latency: metrics.NewRecorder()}
	startCycles := s.Clock.Now()
	s.Monitor.ResetStats()

	ctx := teec.InitializeContext(s.TEE)
	sess, err := ctx.OpenSession(UUIDVoiceTA)
	if err != nil {
		return nil, fmt.Errorf("core session: %w", err)
	}
	defer func() {
		_ = ctx.FinalizeContext()
	}()

	for lo := 0; lo < len(utterances); lo += batch {
		group := utterances[lo:min(lo+batch, len(utterances))]
		groupStart := s.Clock.Now()
		before := len(s.VoiceTA.Processed())
		if s.cfg.Mode == ModeHybridHE {
			err = s.hybridProcessGroup(sess, lo, group)
		} else {
			err = s.invokeGroup(sess, CmdProcessBatch, lo, group)
		}
		if err != nil {
			return nil, fmt.Errorf("batch at %d: %w", lo, err)
		}
		recs, err := s.groupRecords(before, len(group))
		if err != nil {
			return nil, fmt.Errorf("batch at %d: %w", lo, err)
		}
		s.recordGroup(res, groupStart, group, recs)
	}

	s.finalizeSession(res, startCycles)
	return res, nil
}

// utteranceAudio renders utterance i into dst's capacity with a
// per-utterance voice seed so renditions vary across the session.
func (s *System) utteranceAudio(dst []float64, i int, u sensitive.Utterance) audio.PCM {
	v := s.Voice
	v.Seed = s.cfg.Seed*1_000_003 + uint64(i)*97 + 13
	return v.SynthesizeInto(dst, u.Words)
}

// synthPool holds *[]float64 synthesis buffers. The microphone encodes
// what it loads, so a buffer is borrowed only for one loadUtterance call.
var synthPool = sync.Pool{New: func() any { return new([]float64) }}

// loadUtterance renders utterance i into a pooled buffer, loads it into
// the microphone and returns its wire length in bytes.
func (s *System) loadUtterance(i int, u sensitive.Utterance) (int, error) {
	buf := synthPool.Get().(*[]float64)
	defer synthPool.Put(buf)
	pcm := s.utteranceAudio(*buf, i, u)
	*buf = pcm.Samples[:0]
	if err := s.Mic.Load(pcm); err != nil {
		return 0, fmt.Errorf("load utterance %d: %w", i, err)
	}
	return len(pcm.Samples) * 2, nil
}

// auditSupplicant counts private plaintext tokens in the payloads the
// untrusted daemon forwarded. Sealed frames contain none; this is the
// test that the supplicant learned nothing.
func (s *System) auditSupplicant() int {
	count := 0
	for _, payload := range s.Supplicant.Observed() {
		// A hostile supplicant would scan forwarded bytes for words it
		// knows. Count lexicon words appearing verbatim.
		for _, w := range s.Vocab.Words() {
			if sensitive.IsSensitiveWord(w) && containsWord(payload, w) {
				count++
			}
		}
	}
	return count
}

func containsWord(payload []byte, word string) bool {
	if len(word) == 0 || len(payload) < len(word) {
		return false
	}
	for i := 0; i+len(word) <= len(payload); i++ {
		if string(payload[i:i+len(word)]) == word {
			return true
		}
	}
	return false
}
