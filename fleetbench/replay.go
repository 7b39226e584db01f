package main

// Replay of the in-device layers. Device.Run calls synthesis, capture,
// decode, ASR, classify, HE and relay with no seam in between, so after a
// device's run its inputs are replayed through the same public functions
// core calls, in the same order and with the same seeds, each under its
// own span. The replay checks itself against the run it shadows: every
// replayed transcript and verdict must equal the device's own, or the
// traced run fails.

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/asr"
	"repro/internal/audio"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/he"
	"repro/internal/i2s"
	"repro/internal/ml/classify"
	"repro/internal/peripheral"
	"repro/internal/relay"
	"repro/internal/sensitive"
	"repro/internal/tz"
)

// replayer holds one worker's replay state: a capture chain, recognizer
// sessions, classifiers per model seed and a relay channel pair. None of
// it is shared across workers.
type replayer struct {
	rec    *recorder
	worker int

	vocab *sensitive.Vocabulary
	ctrl  *i2s.Controller
	mic   *peripheral.Microphone

	synth   []float64
	samples []int32
	floats  []float64

	sessions map[*asr.Model]*asr.Session
	mfcc     map[*asr.Model]*dsp.Extractor
	text     map[uint64]*classify.Classifier
	image    map[uint64]*classify.Classifier
	he       map[uint64]*heKit

	client, server *relay.Channel
	ack            []byte
	messageID      uint64
}

func newReplayer(rec *recorder, worker int) *replayer {
	r := &replayer{
		rec: rec, worker: worker,
		vocab:    sensitive.NewVocabulary(),
		ctrl:     i2s.NewController("replay", 1<<20),
		sessions: make(map[*asr.Model]*asr.Session),
		mfcc:     make(map[*asr.Model]*dsp.Extractor),
		text:     make(map[uint64]*classify.Classifier),
		image:    make(map[uint64]*classify.Classifier),
		he:       make(map[uint64]*heKit),
	}
	// The register write and the constructors below cannot fail on these
	// constant arguments; a failure here is a bug in the benchmark.
	must(r.ctrl.WriteReg(i2s.RegCtrl, i2s.CtrlRXEnable))
	var err error
	r.mic, err = peripheral.NewMicrophone(r.ctrl, i2s.DefaultFormat())
	must(err)
	keys := core.NewSeedReader(uint64(worker)+1, 0x4e1a)
	cloudID, err := relay.NewIdentity(keys)
	must(err)
	taID, err := relay.NewIdentity(keys)
	must(err)
	r.client, err = relay.NewChannel(taID, cloudID.PublicKey(), true)
	must(err)
	r.server, err = relay.NewChannel(cloudID, taID.PublicKey(), false)
	must(err)
	r.ack, err = relay.EncodeEvent(relay.Event{Namespace: relay.NamespaceSystem, Name: relay.NameAckDirective, MessageID: 1})
	must(err)
	return r
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// span runs fn under a span, parented to the device's replay span.
func (r *replayer) span(name string, dev, item, parent int, fn func() (int64, error)) (int, error) {
	id := r.rec.begin(name, dev, item, parent, r.worker)
	n, err := fn()
	r.rec.end(id, n)
	return id, err
}

func (r *replayer) device(dev, parent int, d *core.Device, res *core.DeviceResult, wl core.DeviceWorkload) error {
	if d.Speaker != nil {
		return r.speaker(dev, parent, d, res, wl.Utterances)
	}
	return r.doorbell(dev, parent, d, wl.Scenes)
}

func (r *replayer) speaker(dev, parent int, d *core.Device, res *core.DeviceResult, utts []sensitive.Utterance) error {
	sys := d.Speaker
	cfg := sys.Config()
	outs := res.Session.Utterances
	if len(outs) != len(utts) {
		return fmt.Errorf("%d outcomes for %d utterances", len(outs), len(utts))
	}
	sess, ex, err := r.recognizer(sys.ASRModel)
	if err != nil {
		return err
	}
	// Baseline devices run utterance by utterance; secure devices in TA
	// batches, which is the unit their classifier pass covers.
	group := 1
	if cfg.Mode != core.ModeBaseline && d.Spec.Batch > 1 {
		group = min(d.Spec.Batch, core.MaxBatch)
	}
	for lo := 0; lo < len(utts); lo += group {
		hi := min(lo+group, len(utts))
		for i := lo; i < hi; i++ {
			if err := r.capture(dev, i, parent, sys, cfg, sess, ex, utts[i], outs[i]); err != nil {
				return fmt.Errorf("utterance %d: %w", i, err)
			}
		}
		if err := r.classifyText(dev, lo, parent, d, cfg, outs[lo:hi]); err != nil {
			return fmt.Errorf("group at %d: %w", lo, err)
		}
		if cfg.Mode == core.ModeBaseline {
			continue // the provider transcribes: timed at the provider seam
		}
		policy := cfg.Policy
		if cfg.Mode == core.ModeSecureNoFilter {
			policy = relay.PolicyPassThrough
		}
		for i := lo; i < hi; i++ {
			if !outs[i].Forwarded {
				continue
			}
			filtered, err := relay.ApplyPolicy(policy, outs[i].Flagged, outs[i].Transcript)
			if err != nil {
				return err
			}
			err = r.relay(dev, i, parent, relay.Event{
				Namespace: relay.NamespaceSpeech, Name: relay.NameTranscript,
				Transcript: filtered.Tokens, Redacted: filtered.Redacted,
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// capture replays one utterance from synthesis to transcript.
func (r *replayer) capture(dev, i, parent int, sys *core.System, cfg core.Config, sess *asr.Session, ex *dsp.Extractor, u sensitive.Utterance, out core.UtteranceOutcome) error {
	var pcm audio.PCM
	r.span("audio.synth", dev, i, parent, func() (int64, error) {
		v := sys.Voice
		v.Seed = cfg.Seed*1_000_003 + uint64(i)*97 + 13
		pcm = v.SynthesizeInto(r.synth, u.Words)
		r.synth = pcm.Samples[:0]
		return 1, nil
	})
	var wire []byte
	_, err := r.span("peripheral.capture", dev, i, parent, func() (int64, error) {
		r.mic.Load(pcm)
		for {
			if _, err := r.mic.PumpBytes(8192); err != nil {
				if errors.Is(err, peripheral.ErrNoSignal) {
					break
				}
				return 0, err
			}
		}
		wire = r.ctrl.PopBytes(r.ctrl.BytesAvailable())
		return int64(len(wire)), nil
	})
	if err != nil {
		return err
	}
	var decoded audio.PCM
	_, err = r.span("i2s.decode", dev, i, parent, func() (int64, error) {
		samples, err := i2s.DecodeFramesInto(r.samples, wire, i2s.DefaultFormat())
		if err != nil {
			return 0, err
		}
		r.samples = samples
		if cap(r.floats) < len(samples) {
			r.floats = make([]float64, len(samples))
		}
		floats := r.floats[:len(samples)]
		for j, s := range samples {
			floats[j] = float64(int16(s)) / 32768
		}
		decoded = audio.PCM{Rate: 16000, Samples: floats}
		return int64(len(samples)), nil
	})
	if err != nil || cfg.Mode == core.ModeBaseline {
		return err
	}
	var words []string
	_, err = r.span("asr.transcribe", dev, i, parent, func() (int64, error) {
		var err error
		words, err = sess.TranscribeWords(decoded)
		return 1, err
	})
	if err != nil {
		return err
	}
	if !slices.Equal(words, out.Transcript) {
		return fmt.Errorf("replayed transcript %q, device heard %q", words, out.Transcript)
	}
	// Transcription runs MFCC over the voiced segments only; re-running
	// the extractor over the same segments splits it from matching.
	segments := slices.Clone(sess.Segment(decoded))
	id, err := r.span("dsp.mfcc", dev, i, parent, func() (int64, error) {
		frames := 0
		for _, seg := range segments {
			f, err := ex.Signal(decoded.Samples[seg[0]:seg[1]])
			if err != nil {
				return 0, err
			}
			frames += len(f)
		}
		return int64(frames), nil
	})
	r.rec.shadow(id)
	return err
}

// classifyText replays the TA's classify stage for one group: one batched
// pass for secure-filter, the HE round trip per item for hybrid-he. A
// scheduled speaker's classify ran at the shared-classify seam instead.
func (r *replayer) classifyText(dev, lo, parent int, d *core.Device, cfg core.Config, outs []core.UtteranceOutcome) error {
	if (cfg.Mode != core.ModeSecureFilter && cfg.Mode != core.ModeHybridHE) || d.Spec.SharedClassify {
		return nil
	}
	clf, err := r.textClassifier(cfg)
	if err != nil {
		return err
	}
	if cfg.Mode == core.ModeHybridHE {
		kit, err := r.heKit(cfg, clf)
		if err != nil {
			return err
		}
		for k, out := range outs {
			flagged, err := kit.roundTrip(r, dev, lo+k, parent, r.vocab.Encode(out.Transcript))
			if err != nil {
				return err
			}
			if flagged != out.Flagged {
				return fmt.Errorf("utterance %d: replayed verdict %v, device %v", lo+k, flagged, out.Flagged)
			}
		}
		return nil
	}
	var classes []int
	_, err = r.span("classify.text", dev, lo, parent, func() (int64, error) {
		batch := make([][]float32, len(outs))
		for k, out := range outs {
			batch[k] = clf.TokensToFeatures(r.vocab.Encode(out.Transcript))
		}
		var err error
		classes, err = clf.PredictBatch(batch)
		return int64(len(batch)), err
	})
	if err != nil {
		return err
	}
	for k, out := range outs {
		if (classes[k] == 1) != out.Flagged {
			return fmt.Errorf("utterance %d: replayed verdict %v, device %v", lo+k, classes[k] == 1, out.Flagged)
		}
	}
	return nil
}

// relay replays one sealed event: the TA seals it, the provider's sealed
// directive comes back (shadow work: the real provider's side was timed
// at the provider seam) and the TA opens it.
func (r *replayer) relay(dev, i, parent int, ev relay.Event) error {
	var sealed []byte
	_, err := r.span("relay.seal", dev, i, parent, func() (int64, error) {
		r.messageID++
		ev.MessageID = r.messageID
		payload, err := relay.EncodeEvent(ev)
		if err != nil {
			return 0, err
		}
		sealed = r.client.Seal(payload)
		return int64(len(sealed)), nil
	})
	if err != nil {
		return err
	}
	var directive []byte
	id, _ := r.span("relay.peer", dev, i, parent, func() (int64, error) {
		directive = r.server.Seal(r.ack)
		return int64(len(directive)), nil
	})
	r.rec.shadow(id)
	_, err = r.span("relay.open", dev, i, parent, func() (int64, error) {
		_, err := r.client.Open(directive)
		return int64(len(directive)), err
	})
	return err
}

func (r *replayer) doorbell(dev, parent int, d *core.Device, scenes []peripheral.Scene) error {
	mode := d.Spec.Mode
	if mode == core.ModeHybridHE {
		return errors.New("hybrid-he doorbells have no replay")
	}
	var recs []core.ProcessedFrame
	var clf *classify.Classifier
	if mode == core.ModeSecureFilter {
		recs = d.Doorbell.TA.Processed()
		if len(recs) != len(scenes) {
			return fmt.Errorf("%d frame records for %d scenes", len(recs), len(scenes))
		}
		var err error
		seed := d.Spec.ModelSeed
		if seed == 0 {
			seed = d.Spec.Seed
		}
		if clf, err = r.imageClassifier(seed); err != nil {
			return err
		}
	}
	cam := peripheral.NewCamera(d.Spec.Seed)
	cam.Queue(scenes...)
	for j := range scenes {
		var im peripheral.Image
		r.span("peripheral.image", dev, j, parent, func() (int64, error) {
			im, _, _ = cam.Capture()
			return int64(len(im.Pix)), nil
		})
		if mode == core.ModeBaseline {
			continue
		}
		var cls int
		_, err := r.span("classify.image", dev, j, parent, func() (int64, error) {
			feats := make([]float32, len(im.Pix))
			for k, px := range im.Pix {
				feats[k] = float32(px) / 255
			}
			var err error
			cls, err = clf.Predict(feats)
			return 1, err
		})
		if err != nil {
			return err
		}
		if (cls == 1) != recs[j].Flagged {
			return fmt.Errorf("frame %d: replayed verdict %v, device %v", j, cls == 1, recs[j].Flagged)
		}
		if recs[j].Flagged {
			continue
		}
		err = r.relay(dev, j, parent, relay.Event{Namespace: relay.NamespaceSpeech, Name: core.NameFrame, Audio: im.Pix})
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *replayer) recognizer(m *asr.Model) (*asr.Session, *dsp.Extractor, error) {
	if s, ok := r.sessions[m]; ok {
		return s, r.mfcc[m], nil
	}
	s, err := m.NewSession()
	if err != nil {
		return nil, nil, err
	}
	ex, err := dsp.NewExtractor(dsp.DefaultMFCCConfig(m.Config().SampleRate))
	if err != nil {
		return nil, nil, err
	}
	r.sessions[m], r.mfcc[m] = s, ex
	return s, ex, nil
}

func (r *replayer) textClassifier(cfg core.Config) (*classify.Classifier, error) {
	if c, ok := r.text[cfg.ModelSeed]; ok {
		return c, nil
	}
	c, err := core.TrainClassifier(cfg.Arch, r.vocab, cfg.ModelSeed, cfg.TrainEpochs)
	if err != nil {
		return nil, err
	}
	r.text[cfg.ModelSeed] = c
	return c, nil
}

func (r *replayer) imageClassifier(seed uint64) (*classify.Classifier, error) {
	if c, ok := r.image[seed]; ok {
		return c, nil
	}
	c, err := core.TrainImageClassifier(seed)
	if err != nil {
		return nil, err
	}
	r.image[seed] = c
	return c, nil
}

// heKit is the hybrid split as core provisions it from the model seed:
// the key pair, the device, provider and TA evaluators (charging a
// scratch clock) and the provider's first conv layer.
type heKit struct {
	params          he.Params
	keys            he.KeyPair
	dev, prov, tail *he.Evaluator
	split           *classify.TextSplit
	op              *he.Conv1D
}

func (r *replayer) heKit(cfg core.Config, clf *classify.Classifier) (*heKit, error) {
	if k, ok := r.he[cfg.ModelSeed]; ok {
		return k, nil
	}
	k := &heKit{params: he.DefaultParams()}
	var err error
	if k.keys, err = he.KeyGen(k.params, cfg.ModelSeed); err != nil {
		return nil, err
	}
	clock, cost := tz.NewClock(), tz.DefaultCostModel()
	for _, e := range []**he.Evaluator{&k.dev, &k.prov, &k.tail} {
		if *e, err = he.NewEvaluator(k.params, clock, cost); err != nil {
			return nil, err
		}
	}
	if k.split, err = classify.SplitText(clf); err != nil {
		return nil, err
	}
	ps := k.split.Conv.Params()
	k.op = &he.Conv1D{K: k.split.Conv.K, Cin: k.split.Conv.Cin, Cout: k.split.Conv.Cout, W: ps[0].Value.Data, B: ps[1].Value.Data}
	r.he[cfg.ModelSeed] = k
	return k, nil
}

// roundTrip replays one hybrid item: the normal world embeds and
// encrypts, the provider evaluates the first conv blind, the TA decrypts
// and runs the classifier tail. It returns the verdict.
func (k *heKit) roundTrip(r *replayer, dev, i, parent int, tokens []int) (bool, error) {
	var data []float32
	var shape []int
	_, err := r.span("classify.text", dev, i, parent, func() (int64, error) {
		feats := make([]float32, k.split.SeqLen)
		for j := 0; j < len(tokens) && j < len(feats); j++ {
			feats[j] = float32(tokens[j])
		}
		var err error
		data, shape, err = k.split.EmbedFeatures(feats)
		return 0, err // the item is counted once, at the tail
	})
	if err != nil {
		return false, err
	}
	var wire []byte
	if _, err = r.span("he.encrypt", dev, i, parent, func() (int64, error) {
		ct, err := k.dev.Encrypt(k.keys.Public, data, shape)
		if err != nil {
			return 0, err
		}
		wire = ct.Marshal(k.params)
		return int64(len(wire)), nil
	}); err != nil {
		return false, err
	}
	// The provider's HEService.EvalText: wire decode, the blind conv,
	// wire encode.
	evalID := r.rec.begin("cloud.he_eval", dev, i, parent, r.worker)
	ct, err := k.prov.Unmarshal(wire)
	if err != nil {
		return false, err
	}
	var out *he.Ciphertext
	if _, err := r.span("he.eval", dev, i, evalID, func() (int64, error) {
		var err error
		out, err = k.prov.Conv1D(k.op, ct)
		return 1, err
	}); err != nil {
		return false, err
	}
	result := out.Marshal(k.params)
	r.rec.end(evalID, int64(len(result)))
	var plain []float32
	var plainShape []int
	if _, err = r.span("he.decrypt", dev, i, parent, func() (int64, error) {
		ct, err := k.tail.Unmarshal(result)
		if err != nil {
			return 0, err
		}
		plain, plainShape, err = k.tail.Decrypt(k.keys.Secret, ct)
		return 1, err
	}); err != nil {
		return false, err
	}
	var cls int
	_, err = r.span("classify.text", dev, i, parent, func() (int64, error) {
		var err error
		cls, err = k.split.TailPredict(plain, plainShape)
		return 1, err
	})
	return cls == 1, err
}
