// Package audio provides PCM buffers, deterministic signal generators, a
// WAV codec, and a synthetic speech synthesizer.
//
// The synthesizer stands in for the human speech the paper's microphone
// captures: every vocabulary word maps to a stable formant signature
// (three resonant frequencies derived from the word), so a word is
// acoustically recognizable by the MFCC front end exactly the way real
// words are — while remaining fully deterministic and generatable offline.
package audio

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"time"
)

// PCM is a mono pulse-code-modulated signal with samples in [-1, 1].
type PCM struct {
	Rate    int
	Samples []float64
}

// NewPCM returns a zeroed signal of the given duration.
func NewPCM(rate int, d time.Duration) PCM {
	n := int(float64(rate) * d.Seconds())
	return PCM{Rate: rate, Samples: make([]float64, n)}
}

// Duration returns the signal length.
func (p PCM) Duration() time.Duration {
	if p.Rate == 0 {
		return 0
	}
	return time.Duration(float64(len(p.Samples)) / float64(p.Rate) * float64(time.Second))
}

// Clone returns a deep copy.
func (p PCM) Clone() PCM {
	s := make([]float64, len(p.Samples))
	copy(s, p.Samples)
	return PCM{Rate: p.Rate, Samples: s}
}

// Append concatenates q after p (rates must match; mismatch appends nothing).
func (p *PCM) Append(q PCM) {
	if p.Rate == 0 {
		p.Rate = q.Rate
	}
	if q.Rate != p.Rate {
		return
	}
	p.Samples = append(p.Samples, q.Samples...)
}

// Gain scales the signal in place and returns it.
func (p PCM) Gain(g float64) PCM {
	for i := range p.Samples {
		p.Samples[i] *= g
	}
	return p
}

// Clamp limits all samples to [-1, 1] in place and returns the signal.
func (p PCM) Clamp() PCM {
	for i, s := range p.Samples {
		if s > 1 {
			p.Samples[i] = 1
		} else if s < -1 {
			p.Samples[i] = -1
		}
	}
	return p
}

// RMS returns the root-mean-square level of the signal.
func (p PCM) RMS() float64 {
	if len(p.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range p.Samples {
		sum += s * s
	}
	return math.Sqrt(sum / float64(len(p.Samples)))
}

// Peak returns the maximum absolute sample value.
func (p PCM) Peak() float64 {
	var peak float64
	for _, s := range p.Samples {
		if a := math.Abs(s); a > peak {
			peak = a
		}
	}
	return peak
}

// ToInt16 quantizes to signed 16-bit samples (the I2S wire format used in
// the experiments).
func (p PCM) ToInt16() []int16 {
	out := make([]int16, len(p.Samples))
	for i, s := range p.Samples {
		v := math.Round(s * 32768)
		if v > 32767 {
			v = 32767
		} else if v < -32768 {
			v = -32768
		}
		out[i] = int16(v)
	}
	return out
}

// FromInt16 builds a PCM signal from 16-bit samples.
func FromInt16(rate int, samples []int16) PCM {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s) / 32768
	}
	return PCM{Rate: rate, Samples: out}
}

// ErrBadPCM16 is returned for a PCM16 payload that is not a whole
// number of 16-bit samples.
var ErrBadPCM16 = errors.New("audio: malformed PCM16 payload")

// DecodePCM16Into decodes a little-endian 16-bit wire payload into dst's
// capacity (grown when needed), applying the FromInt16 scaling. It is
// the shared scratch-reusing decode for provider-side ingest paths.
func DecodePCM16Into(dst []float64, payload []byte) ([]float64, error) {
	if len(payload)%2 != 0 {
		return nil, fmt.Errorf("%w: odd length %d", ErrBadPCM16, len(payload))
	}
	n := len(payload) / 2
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	out := dst[:n]
	for i := range out {
		s := int16(uint16(payload[2*i]) | uint16(payload[2*i+1])<<8)
		out[i] = float64(s) / 32768
	}
	return out, nil
}

// Frames splits the signal into overlapping frames of frameLen samples
// advancing by hop. The tail that does not fill a frame is discarded.
func (p PCM) Frames(frameLen, hop int) [][]float64 {
	if frameLen <= 0 || hop <= 0 || len(p.Samples) < frameLen {
		return nil
	}
	n := (len(p.Samples)-frameLen)/hop + 1
	frames := make([][]float64, 0, n)
	for i := 0; i+frameLen <= len(p.Samples); i += hop {
		frames = append(frames, p.Samples[i:i+frameLen])
	}
	return frames
}

// Sine generates a sine tone.
func Sine(rate int, freq, amp float64, d time.Duration) PCM {
	p := NewPCM(rate, d)
	w := 2 * math.Pi * freq / float64(rate)
	for i := range p.Samples {
		p.Samples[i] = amp * math.Sin(w*float64(i))
	}
	return p
}

// Silence generates a zero signal.
func Silence(rate int, d time.Duration) PCM { return NewPCM(rate, d) }

// WhiteNoise generates seeded uniform noise with the given amplitude.
func WhiteNoise(rate int, amp float64, d time.Duration, seed uint64) PCM {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	p := NewPCM(rate, d)
	for i := range p.Samples {
		p.Samples[i] = amp * (2*rng.Float64() - 1)
	}
	return p
}

// MixInto adds src into dst starting at sample offset, clamping afterwards.
func MixInto(dst PCM, src PCM, offset int) PCM {
	for i, s := range src.Samples {
		j := offset + i
		if j < 0 || j >= len(dst.Samples) {
			continue
		}
		dst.Samples[j] += s
	}
	return dst.Clamp()
}

// Formants are the resonant frequencies giving a synthetic word its
// acoustic identity.
type Formants [3]float64

// WordFormants derives the stable formant signature of a word. The three
// frequencies land in disjoint speech-plausible bands (F1 300–800 Hz,
// F2 900–1800 Hz, F3 2000–3400 Hz), so distinct words are spectrally
// separable while all remaining inside a 16 kHz capture band.
func WordFormants(word string) Formants {
	h := fnv.New64a()
	_, _ = h.Write([]byte(strings.ToLower(word)))
	v := h.Sum64()
	f1 := 300 + float64(v%500)
	f2 := 900 + float64((v>>16)%900)
	f3 := 2000 + float64((v>>32)%1400)
	return Formants{f1, f2, f3}
}

// Voice configures the synthetic speaker.
type Voice struct {
	// Rate is the output sample rate in Hz.
	Rate int
	// WordDur is the voiced duration of each word.
	WordDur time.Duration
	// GapDur is the silence between words.
	GapDur time.Duration
	// NoiseAmp is the amplitude of additive background noise (0 disables).
	NoiseAmp float64
	// Seed drives all randomness (jitter and noise); same seed, same audio.
	Seed uint64
}

// DefaultVoice returns the speaker used across the experiments:
// 16 kHz, 220 ms words, 120 ms gaps, mild background noise.
func DefaultVoice(seed uint64) Voice {
	return Voice{
		Rate:     16000,
		WordDur:  220 * time.Millisecond,
		GapDur:   120 * time.Millisecond,
		NoiseAmp: 0.01,
		Seed:     seed,
	}
}

// envCache memoizes the raised-cosine word envelope per sample count.
// Every word of a given Voice has the same duration, so the per-sample
// math.Cos of the historical inner loop collapses to one table lookup;
// the cached values are the exact floats the inline computation produced.
var envCache sync.Map // int -> []float64

func wordEnvelope(n int) []float64 {
	if v, ok := envCache.Load(n); ok {
		return v.([]float64)
	}
	env := make([]float64, n)
	for i := range env {
		env[i] = 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	v, _ := envCache.LoadOrStore(n, env)
	return v.([]float64)
}

// renderWordInto synthesizes one word into dst (the word's sample span),
// including the per-word noise mix and clamp. It draws from the same RNG
// streams in the same order as the historical SynthesizeWord, producing
// bit-identical samples while touching each sample O(1) times with no
// intermediate buffers.
func (v Voice) renderWordInto(dst []float64, word string) {
	f := WordFormants(word)
	rng := rand.New(rand.NewPCG(v.Seed, fnvMix(word, v.Seed)))
	n := len(dst)
	if n == 0 {
		return
	}
	// Small random detune (±1.5%) models speaker variability.
	detune := 1 + (rng.Float64()-0.5)*0.03
	amps := [3]float64{0.5, 0.3, 0.2}
	phases := [3]float64{rng.Float64() * 2 * math.Pi, rng.Float64() * 2 * math.Pi, rng.Float64() * 2 * math.Pi}
	w := [3]float64{2 * math.Pi * f[0] * detune, 2 * math.Pi * f[1] * detune, 2 * math.Pi * f[2] * detune}
	env := wordEnvelope(n)
	// The formant arguments w[k]*t + phase form arithmetic progressions,
	// so each sine is generated by a complex-rotation recurrence instead
	// of a math.Sin call per sample. The oscillator is resynchronized to
	// the exact math.Sin/Cos value every oscResync samples, bounding the
	// accumulated rounding drift to ~1e-14 absolute — twelve orders of
	// magnitude below the synthesizer's own noise floor, so downstream
	// VAD/matching decisions are unaffected.
	const oscResync = 64
	var sn, cs, rotS, rotC [3]float64
	for k := 0; k < 3; k++ {
		step := w[k] / float64(v.Rate)
		rotS[k], rotC[k] = math.Sin(step), math.Cos(step)
	}
	for i := 0; i < n; i++ {
		if i%oscResync == 0 {
			t := float64(i) / float64(v.Rate)
			for k := 0; k < 3; k++ {
				a := w[k]*t + phases[k]
				sn[k], cs[k] = math.Sin(a), math.Cos(a)
			}
		}
		s := amps[0]*sn[0] + amps[1]*sn[1] + amps[2]*sn[2]
		dst[i] = s * env[i] * 0.6
		for k := 0; k < 3; k++ {
			sn[k], cs[k] = sn[k]*rotC[k]+cs[k]*rotS[k], cs[k]*rotC[k]-sn[k]*rotS[k]
		}
	}
	if v.NoiseAmp > 0 {
		seed := rng.Uint64()
		nr := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		for i := 0; i < n; i++ {
			dst[i] += v.NoiseAmp * (2*nr.Float64() - 1)
		}
	}
	if !clampNeverFires(v.NoiseAmp) {
		clampInPlace(dst)
	}
}

func clampInPlace(s []float64) {
	for i, v := range s {
		if v > 1 {
			s[i] = 1
		} else if v < -1 {
			s[i] = -1
		}
	}
}

// clampNeverFires reports whether clamping a signal whose clean part is
// bounded by 0.61 plus noise of the given amplitude is provably the
// identity, letting the synthesizer skip the pass. The formant sum is
// ≤ (0.5+0.3+0.2)·env·0.6 ≤ 0.6 with at most a few ulps of rounding;
// 0.61 absorbs that slack with twelve orders of magnitude to spare.
func clampNeverFires(noiseAmp float64) bool {
	return 0.61+noiseAmp <= 1
}

// SynthesizeWord renders one word: its three formants with harmonic
// rolloff, an attack/release envelope, and per-utterance jitter so repeated
// words are similar but not identical (as in real speech).
func (v Voice) SynthesizeWord(word string) PCM {
	p := NewPCM(v.Rate, v.WordDur)
	v.renderWordInto(p.Samples, word)
	return p
}

// Synthesize renders an utterance: words separated by gaps, with leading
// and trailing silence so voice-activity detection has room to settle.
// The utterance is rendered directly into one exact-size buffer — same
// samples as concatenating SynthesizeWord outputs, without the repeated
// growth, noise and clamp passes.
func (v Voice) Synthesize(words []string) PCM {
	return v.SynthesizeInto(nil, words)
}

// SynthesizeInto is Synthesize rendering into buf's capacity (grown when
// needed), so per-utterance synthesis in a streaming loop reuses one
// buffer. The returned PCM aliases buf; hand its Samples back as the
// next call's buf once the signal has been consumed.
func (v Voice) SynthesizeInto(buf []float64, words []string) PCM {
	gapN := int(float64(v.Rate) * v.GapDur.Seconds())
	wordN := int(float64(v.Rate) * v.WordDur.Seconds())
	gaps := len(words) + 1
	if len(words) == 0 {
		gaps = 2
	}
	total := gaps*gapN + len(words)*wordN
	if cap(buf) < total {
		buf = make([]float64, total)
	}
	out := PCM{Rate: v.Rate, Samples: buf[:total]}
	// Words fully overwrite their spans, so only the gap regions need
	// zeroing (buf may hold a previous utterance).
	clear(out.Samples[:gapN])
	for i, w := range words {
		start := gapN + i*(wordN+gapN)
		v.renderWordInto(out.Samples[start:start+wordN], w)
		clear(out.Samples[start+wordN : start+wordN+gapN])
	}
	if len(words) == 0 {
		clear(out.Samples[gapN:])
	}
	if v.NoiseAmp > 0 {
		// Historical path: WhiteNoise over out.Duration() mixed at offset
		// 0 then a whole-signal clamp. The noise length is re-derived the
		// same way (duration round trip), as it can differ from len(out).
		seed := v.Seed ^ 0xabcdef
		nr := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		amp := v.NoiseAmp / 2
		nn := int(float64(v.Rate) * out.Duration().Seconds())
		if nn > len(out.Samples) {
			nn = len(out.Samples)
		}
		for i := 0; i < nn; i++ {
			out.Samples[i] += amp * (2*nr.Float64() - 1)
		}
		// Word samples are bounded by 0.61 + NoiseAmp, the utterance
		// noise adds NoiseAmp/2 more; when that total cannot reach ±1 the
		// clamp is the identity and is skipped.
		if !clampNeverFires(1.5 * v.NoiseAmp) {
			clampInPlace(out.Samples)
		}
	}
	return out
}

func fnvMix(s string, seed uint64) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64() ^ seed
}
