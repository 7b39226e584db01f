package core

// Device factory: a uniform construction-and-run surface over the two
// peripheral classes (smart speaker, camera doorbell) so orchestration
// layers (internal/fleet) can instantiate mixed populations without
// caring which concrete pipeline sits behind a spec.

import (
	"fmt"

	"repro/internal/attest"
	"repro/internal/audio"
	"repro/internal/cloud"
	"repro/internal/metrics"
	"repro/internal/ml/classify"
	"repro/internal/obs"
	"repro/internal/peripheral"
	"repro/internal/relay"
	"repro/internal/sensitive"
	"repro/internal/supplicant"
	"repro/internal/tz"
)

// BaselineAgentDigest is the measured identity of the normal-world
// baseline agent. Baseline deployments have no TEE, so their
// "attestation" is software-only — exactly as trustworthy as the OS it
// runs on. The verifier's policy makes that explicit by enrolling this
// digest as unversioned (baseline devices hold no provisioned model and
// are exempt from the minimum-version admission policy).
var BaselineAgentDigest = attest.MeasureCode("periguard", "normal-world/baseline-agent")

// DeviceKind selects the peripheral class.
type DeviceKind int

const (
	// DeviceSpeaker is the paper's smart speaker (mic → ASR → filter).
	DeviceSpeaker DeviceKind = iota + 1
	// DeviceDoorbell is the §IV.6 camera doorbell (frames → image filter).
	DeviceDoorbell
)

// String returns the kind name.
func (k DeviceKind) String() string {
	switch k {
	case DeviceSpeaker:
		return "speaker"
	case DeviceDoorbell:
		return "doorbell"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ErrBadKind is returned for unknown device kinds.
var ErrBadKind = fmt.Errorf("%w: unknown device kind", ErrBadConfig)

// DeviceSpec parameterizes one fleet member.
type DeviceSpec struct {
	Kind DeviceKind
	Mode Mode
	// Arch and Policy apply to secure-filter speakers.
	Arch   classify.Arch
	Policy relay.Policy
	// Seed is the device's own randomness; ModelSeed the provisioned
	// model's (0 = Seed). Fleets share one ModelSeed across members.
	Seed      uint64
	ModelSeed uint64
	FreqHz    uint64
	NoiseAmp  float64
	BufBytes  int
	// Batch > 1 enables TA-side batched processing on secure speakers
	// (capped at MaxBatch).
	Batch int
	// DeviceID names the device on an attested ingest tier;
	// AttestKeySeed derives its attestation key (0 disables attestation);
	// ModelVersion is the provisioned pack version it boots with (0 = 1
	// when attestation is enabled). See Config.
	DeviceID      string
	AttestKeySeed uint64
	ModelVersion  uint64
	// SharedClassify marks a secure-filter speaker whose classify stage
	// is served by a shared cross-device scheduler; the per-device
	// classifier build is skipped. See Config.SharedClassify.
	SharedClassify bool
}

// Pretrain warms every shared-model cache the given population needs —
// the ASR template pack per training condition, the text classifier per
// (arch, model seed) and the image classifier per model seed — so that
// lazily constructed devices only ever hit memoized models. It mirrors
// the defaulting rules the per-device constructors apply.
func Pretrain(specs []DeviceSpec) error {
	vocab := sensitive.NewVocabulary()
	type textKey struct {
		arch classify.Arch
		seed uint64
	}
	asrDone := make(map[float64]bool)
	textDone := make(map[textKey]bool)
	imageDone := make(map[uint64]bool)
	for _, spec := range specs {
		switch spec.Kind {
		case DeviceSpeaker:
			// Run the spec through the same defaulting NewSystem applies,
			// so the warmed cache keys are exactly the ones lazy
			// construction will look up.
			cfg := Config{
				Mode:      spec.Mode,
				Arch:      spec.Arch,
				Policy:    spec.Policy,
				BufBytes:  spec.BufBytes,
				Seed:      spec.Seed,
				ModelSeed: spec.ModelSeed,
				FreqHz:    spec.FreqHz,
				NoiseAmp:  spec.NoiseAmp,
			}
			if err := cfg.fillDefaults(); err != nil {
				return fmt.Errorf("pretrain: %w", err)
			}
			if !asrDone[cfg.NoiseAmp] {
				voice := audio.DefaultVoice(cfg.Seed)
				voice.NoiseAmp = cfg.NoiseAmp
				if _, err := trainedModel(vocab, voice); err != nil {
					return fmt.Errorf("pretrain asr: %w", err)
				}
				asrDone[cfg.NoiseAmp] = true
			}
			if cfg.Mode == ModeSecureFilter || cfg.Mode == ModeHybridHE {
				k := textKey{cfg.Arch, cfg.ModelSeed}
				if !textDone[k] {
					if _, err := TrainClassifier(cfg.Arch, vocab, cfg.ModelSeed, cfg.TrainEpochs); err != nil {
						return fmt.Errorf("pretrain classifier: %w", err)
					}
					textDone[k] = true
				}
			}
		case DeviceDoorbell:
			modelSeed := spec.ModelSeed
			if modelSeed == 0 {
				modelSeed = spec.Seed // CameraConfig defaulting
			}
			if (spec.Mode == ModeSecureFilter || spec.Mode == ModeHybridHE) && !imageDone[modelSeed] {
				if _, err := TrainImageClassifier(modelSeed); err != nil {
					return fmt.Errorf("pretrain image classifier: %w", err)
				}
				imageDone[modelSeed] = true
			}
		}
	}
	return nil
}

// Device is one constructed fleet member. Exactly one of Speaker and
// Doorbell is non-nil, matching Spec.Kind.
type Device struct {
	Spec     DeviceSpec
	Speaker  *System
	Doorbell *CameraSystem

	// ta is the kind's management surface onto its TA (zero for
	// baseline devices, which have none).
	ta *taHandle

	// softAttestor signs for baseline devices, which have no TEE to
	// attest from; see BaselineAgentDigest.
	softAttestor *attest.Attestor
}

// NewDevice builds the pipeline for the spec.
func NewDevice(spec DeviceSpec) (*Device, error) {
	switch spec.Kind {
	case DeviceSpeaker:
		sys, err := NewSystem(Config{
			Mode:           spec.Mode,
			Arch:           spec.Arch,
			Policy:         spec.Policy,
			BufBytes:       spec.BufBytes,
			Seed:           spec.Seed,
			ModelSeed:      spec.ModelSeed,
			FreqHz:         spec.FreqHz,
			NoiseAmp:       spec.NoiseAmp,
			DeviceID:       spec.DeviceID,
			AttestKeySeed:  spec.AttestKeySeed,
			ModelVersion:   spec.ModelVersion,
			SharedClassify: spec.SharedClassify,
		})
		if err != nil {
			return nil, fmt.Errorf("speaker: %w", err)
		}
		d := &Device{Spec: spec, Speaker: sys, ta: &sys.taHandle}
		d.initSoftAttestor()
		return d, nil
	case DeviceDoorbell:
		sys, err := NewCameraSystem(CameraConfig{
			Mode:          spec.Mode,
			Seed:          spec.Seed,
			ModelSeed:     spec.ModelSeed,
			FreqHz:        spec.FreqHz,
			DeviceID:      spec.DeviceID,
			AttestKeySeed: spec.AttestKeySeed,
			ModelVersion:  spec.ModelVersion,
		})
		if err != nil {
			return nil, fmt.Errorf("doorbell: %w", err)
		}
		d := &Device{Spec: spec, Doorbell: sys, ta: &sys.taHandle}
		d.initSoftAttestor()
		return d, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, int(spec.Kind))
	}
}

// SetClassifyService wires the shared cross-device classify service into
// a secure speaker (no-op for doorbells and baseline devices).
func (d *Device) SetClassifyService(svc ClassifyService) {
	if d.Speaker != nil {
		d.Speaker.SetClassifyService(svc)
	}
}

func (d *Device) initSoftAttestor() {
	if d.Spec.AttestKeySeed != 0 && d.Spec.Mode == ModeBaseline {
		d.softAttestor = attest.NewAttestor(d.Spec.DeviceID, attest.KeyFromSeed(d.Spec.AttestKeySeed))
	}
}

// Attest produces the device's attestation evidence for a verifier
// challenge: secure devices sign inside their TA; baseline devices sign
// with the software agent (BaselineAgentDigest, model version 0).
func (d *Device) Attest(nonce attest.Nonce) (attest.Report, error) {
	if d.Spec.Mode == ModeBaseline {
		if d.softAttestor == nil {
			return attest.Report{}, fmt.Errorf("device %s: attestation not provisioned", d.Spec.DeviceID)
		}
		return d.softAttestor.Attest(nonce, attest.Measurement{Code: BaselineAgentDigest}), nil
	}
	return d.ta.Attest(nonce)
}

// UpdateModel delivers a published model pack to the device; baseline
// devices hold no on-device model and return nil.
func (d *Device) UpdateModel(pack attest.Pack, tok attest.ManifestToken) error {
	if d.Spec.Mode == ModeBaseline {
		return nil
	}
	return d.ta.UpdateModel(pack, tok)
}

// ModelVersion returns the model-pack version the device holds (0 for
// baseline devices).
func (d *Device) ModelVersion() uint64 { return d.ta.ModelVersion() }

// RotateKey redeems a verifier-issued key-rotation token: secure devices
// verify and redeem it inside their TA (sealing the new epoch next to
// their model weights); baseline devices rotate the software agent's
// signer. Returns the key epoch the device signs under after the
// rotation.
func (d *Device) RotateKey(tok attest.RotationToken) (uint64, error) {
	if d.Spec.Mode == ModeBaseline {
		if d.softAttestor == nil {
			return 0, fmt.Errorf("device %s: attestation not provisioned", d.Spec.DeviceID)
		}
		next, err := d.softAttestor.Rotated(tok)
		if err != nil {
			return 0, fmt.Errorf("device %s: %w", d.Spec.DeviceID, err)
		}
		d.softAttestor = next
		return next.Epoch(), nil
	}
	return d.ta.RotateKey(tok)
}

// KeyEpoch returns the attestation key epoch the device signs under.
func (d *Device) KeyEpoch() uint64 {
	if d.Spec.Mode == ModeBaseline {
		if d.softAttestor == nil {
			return 0
		}
		return d.softAttestor.Epoch()
	}
	return d.ta.KeyEpoch()
}

// SetTrace installs the device's sampled telemetry trace context (nil
// for untraced runs and sampled-out devices — the zero-cost path).
func (d *Device) SetTrace(tc *obs.TraceContext) {
	if d.Speaker != nil {
		d.Speaker.SetTrace(tc)
		return
	}
	d.Doorbell.SetTrace(tc)
}

// Clock returns the device's virtual clock, so delivery-path wrappers
// (retry backoff, fault injectors) charge their virtual time to the
// right device.
func (d *Device) Clock() *tz.Clock {
	if d.Speaker != nil {
		return d.Speaker.Clock
	}
	return d.Doorbell.Clock
}

// SetUplink reroutes the device's cloud-bound traffic through sink.
func (d *Device) SetUplink(sink supplicant.NetSink) {
	if d.Speaker != nil {
		d.Speaker.SetUplink(sink)
		return
	}
	d.Doorbell.SetUplink(sink)
}

// CloudEndpoint returns the provider-side terminator of the device's
// traffic (nil for devices that never uplink: baseline doorbells).
func (d *Device) CloudEndpoint() cloud.Provider {
	if d.Speaker != nil {
		return d.Speaker.CloudEndpoint()
	}
	return d.Doorbell.CloudEndpoint()
}

// DeviceWorkload is the input stream for one device run; the field
// matching the device's kind is used.
type DeviceWorkload struct {
	Utterances []sensitive.Utterance
	Scenes     []peripheral.Scene
}

// DeviceResult pairs a spec with the session outcome of its kind.
type DeviceResult struct {
	Spec    DeviceSpec
	Session *SessionResult       // speakers
	Camera  *CameraSessionResult // doorbells
}

// Run processes the workload end to end. Secure speakers with
// Spec.Batch > 1 take the TA-batched path.
func (d *Device) Run(w DeviceWorkload) (*DeviceResult, error) {
	if d.Speaker != nil {
		res, err := d.Speaker.RunSessionBatched(w.Utterances, d.Spec.Batch)
		if err != nil {
			return nil, err
		}
		return &DeviceResult{Spec: d.Spec, Session: res}, nil
	}
	res, err := d.Doorbell.RunSession(w.Scenes)
	if err != nil {
		return nil, err
	}
	return &DeviceResult{Spec: d.Spec, Camera: res}, nil
}

// Latency returns the run's per-item virtual-cycle recorder.
func (r *DeviceResult) Latency() *metrics.Recorder {
	if r.Session != nil {
		return r.Session.Latency
	}
	return r.Camera.Latency
}

// CloudEvents returns how many cloud-bound payloads the device emitted
// (the number its shard must have ingested for no frame to be lost).
func (r *DeviceResult) CloudEvents() int {
	if r.Session != nil {
		n := 0
		if r.Spec.Mode == ModeBaseline {
			return len(r.Session.Utterances)
		}
		for _, u := range r.Session.Utterances {
			if u.Forwarded {
				n++
			}
		}
		return n
	}
	if r.Spec.Mode == ModeBaseline {
		return 0 // baseline doorbells never uplink in this model
	}
	return r.Camera.ForwardedFrames
}
