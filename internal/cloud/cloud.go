// Package cloud simulates the untrusted cloud service provider of the
// paper's threat model (§I): an honest-but-curious voice-assistant backend
// that faithfully serves requests and records *everything* it receives.
// The auditor quantifies leakage as the number of private tokens the
// provider observed — the paper's central privacy metric.
//
// Two ingestion paths model the two deployments:
//
//   - Service (sealed relay frames): the paper's design. The cloud is the
//     legitimate TLS peer, so it decrypts events — filtering must happen
//     before sealing, on the device.
//   - PlainIngest (raw audio): the §I baseline, where devices ship raw
//     microphone audio; the cloud runs its own large speech model.
//
// At fleet scale (shard.go) the provider runs many per-device channel
// terminators behind consistent-hash shards: Router places device IDs on
// Shards, each Shard serializes its devices' frames through a bounded
// worker pool with queue backpressure, and per-shard/per-fleet Audits
// aggregate what the provider learned. In attested deployments every
// frame additionally passes an AdmissionGate before reaching a worker,
// so unattested or stale-model devices are rejected at the frontend —
// the cloud half of the remote-attestation handshake implemented in
// internal/attest.
package cloud

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/asr"
	"repro/internal/audio"
	"repro/internal/relay"
	"repro/internal/sensitive"
	"repro/internal/supplicant"
)

// ErrNoChannel is returned when sealed frames arrive before a handshake.
var ErrNoChannel = errors.New("cloud: no established channel")

// Observation is one recorded cloud-side datum.
type Observation struct {
	Kind       string // "transcript" or "audio"
	Tokens     []string
	AudioBytes int
}

// Audit summarizes what the provider (or anyone who compromises it)
// learned.
type Audit struct {
	Events          int
	TokensSeen      int
	SensitiveTokens int
	AudioBytes      int
	Transcripts     [][]string
}

// Service is the AVS-like backend speaking the sealed relay protocol.
type Service struct {
	identity *Identity

	mu           sync.Mutex
	channel      *relay.Channel
	observed     []Observation
	directiveSeq uint64
}

// Identity wraps the service's key pair so callers cannot touch the
// private half.
type Identity struct {
	id *relay.Identity
}

// NewIdentity creates the cloud's key pair (rand as in relay.NewIdentity).
func NewIdentity(id *relay.Identity) *Identity { return &Identity{id: id} }

// NewService creates a backend with the given identity.
func NewService(id *Identity) *Service {
	return &Service{identity: id}
}

// PublicKey returns the service's public key for client handshakes.
func (s *Service) PublicKey() []byte { return s.identity.id.PublicKey() }

// Handshake completes the server side of the channel with a client's
// public key.
func (s *Service) Handshake(clientPub []byte) error {
	ch, err := relay.NewChannel(s.identity.id, clientPub, false)
	if err != nil {
		return fmt.Errorf("cloud handshake: %w", err)
	}
	s.mu.Lock()
	s.channel = ch
	s.mu.Unlock()
	return nil
}

var _ supplicant.NetSink = (*Service)(nil)

// Deliver implements supplicant.NetSink: the cloud terminates the secure
// channel, records the decrypted event, and returns a sealed directive.
func (s *Service) Deliver(frame []byte) ([]byte, error) {
	s.mu.Lock()
	ch := s.channel
	s.mu.Unlock()
	if ch == nil {
		return nil, ErrNoChannel
	}
	plain, err := ch.Open(frame)
	if err != nil {
		return nil, fmt.Errorf("cloud open: %w", err)
	}
	event, err := relay.DecodeEvent(plain)
	if err != nil {
		return nil, fmt.Errorf("cloud decode: %w", err)
	}
	s.record(event)
	s.mu.Lock()
	s.directiveSeq++
	seq := s.directiveSeq
	s.mu.Unlock()
	ack, err := relay.EncodeEvent(relay.Event{
		Namespace: relay.NamespaceSystem,
		Name:      relay.NameAckDirective,
		MessageID: seq,
	})
	if err != nil {
		return nil, err
	}
	return ch.Seal(ack), nil
}

func (s *Service) record(e relay.Event) {
	obs := Observation{}
	switch e.Name {
	case relay.NameTranscript:
		obs.Kind = "transcript"
		obs.Tokens = append([]string(nil), e.Transcript...)
	case relay.NameAudio:
		obs.Kind = "audio"
		obs.AudioBytes = len(e.Audio)
	default:
		obs.Kind = e.Name
	}
	s.mu.Lock()
	s.observed = append(s.observed, obs)
	s.mu.Unlock()
}

// Audit returns the provider's accumulated view.
func (s *Service) Audit() Audit {
	s.mu.Lock()
	defer s.mu.Unlock()
	return buildAudit(s.observed)
}

// Reset clears the recorded observations (between experiment runs).
func (s *Service) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observed = nil
}

func buildAudit(obs []Observation) Audit {
	var a Audit
	for _, o := range obs {
		a.Events++
		a.TokensSeen += len(o.Tokens)
		a.SensitiveTokens += sensitive.CountSensitiveTokens(o.Tokens)
		a.AudioBytes += o.AudioBytes
		if len(o.Tokens) > 0 {
			a.Transcripts = append(a.Transcripts, o.Tokens)
		}
	}
	return a
}

// Transcriber is the server-side ASR contract PlainService needs; both
// *asr.Recognizer and the fleet-shared *asr.Session satisfy it.
type Transcriber interface {
	TranscribeWords(pcm audio.PCM) ([]string, error)
}

var (
	_ Transcriber = (*asr.Recognizer)(nil)
	_ Transcriber = (*asr.Session)(nil)
)

// PlainService is the baseline backend: it ingests raw (unfiltered,
// unsealed) audio, transcribes it with the provider's own large speech
// model, and records the result. This is the deployment the paper's §I
// incidents describe.
type PlainService struct {
	mu         sync.Mutex
	recognizer Transcriber
	observed   []Observation
}

// decodePool holds *[]float64 PCM decode buffers, borrowed for one
// PlainService.Deliver call.
var decodePool = sync.Pool{New: func() any { return new([]float64) }}

// NewPlainService creates the baseline backend. The recognizer stands in
// for the provider's server-side ASR; callers train it on the experiment
// voice (providers have far better models than any device).
func NewPlainService(recognizer Transcriber) *PlainService {
	return &PlainService{recognizer: recognizer}
}

var _ supplicant.NetSink = (*PlainService)(nil)

// Deliver implements supplicant.NetSink for raw 16-bit PCM payloads.
// Transcription happens under the service lock: recognizer sessions
// carry scratch state, and the lock serializes them even if a shard
// pool ever delivers two of a device's frames concurrently.
func (p *PlainService) Deliver(payload []byte) ([]byte, error) {
	buf := decodePool.Get().(*[]float64)
	defer decodePool.Put(buf)
	floats, err := audio.DecodePCM16Into(*buf, payload)
	if err != nil {
		return nil, err
	}
	*buf = floats[:0]
	p.mu.Lock()
	pcm := audio.PCM{Rate: 16000, Samples: floats}
	tokens, err := p.recognizer.TranscribeWords(pcm)
	if err != nil {
		p.mu.Unlock()
		return nil, fmt.Errorf("cloud asr: %w", err)
	}
	p.observed = append(p.observed, Observation{
		Kind: "audio", Tokens: tokens, AudioBytes: len(payload),
	})
	p.mu.Unlock()
	return []byte(`{"name":"Directive.Ack"}`), nil
}

// Audit returns the provider's accumulated view.
func (p *PlainService) Audit() Audit {
	p.mu.Lock()
	defer p.mu.Unlock()
	return buildAudit(p.observed)
}

// Reset clears recorded observations.
func (p *PlainService) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observed = nil
}

func decodePCM16(payload []byte) (audio.PCM, error) {
	samples, err := audio.DecodePCM16Into(nil, payload)
	if err != nil {
		return audio.PCM{}, fmt.Errorf("cloud: %w", err)
	}
	return audio.PCM{Rate: 16000, Samples: samples}, nil
}

// EncodePCM16 is the inverse wire helper used by device-side senders.
func EncodePCM16(pcm audio.PCM) []byte {
	samples := pcm.ToInt16()
	out := make([]byte, len(samples)*2)
	for i, s := range samples {
		out[2*i] = byte(uint16(s))
		out[2*i+1] = byte(uint16(s) >> 8)
	}
	return out
}
