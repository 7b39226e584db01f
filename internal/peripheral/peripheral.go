// Package peripheral models the user-facing input devices of the paper's
// smart-home setup: an I2S digital microphone (the POC's primary target)
// and a simple camera. Both produce deterministic synthetic data so
// experiments are reproducible end to end.
package peripheral

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"repro/internal/audio"
	"repro/internal/i2s"
)

// Errors returned by the package.
var (
	// ErrNoSignal is returned when pumping a microphone with nothing loaded.
	ErrNoSignal = errors.New("peripheral: no signal loaded")
	// ErrRateMismatch is returned when loading a signal whose sample rate
	// differs from the unplayed remainder it would queue behind.
	ErrRateMismatch = errors.New("peripheral: sample rate differs from queued signal")
	// ErrBadImage is returned for invalid image dimensions.
	ErrBadImage = errors.New("peripheral: invalid image")
)

// Microphone is an I2S digital microphone wired to a controller. Loading a
// PCM signal models sound reaching the diaphragm; Pump shifts the next
// samples onto the I2S bus (a real mic is clocked continuously; the pump
// granularity stands in for elapsed bus time).
//
// The microphone's ADC runs at Load: each sample is quantized and
// encoded into its I2S wire word once, into a wire-width byte queue, so
// pumping only moves bytes. The queue's slab is borrowed from wirePool
// and returned when the queue drains to empty.
type Microphone struct {
	ctrl   *i2s.Controller
	format i2s.Format

	mu       sync.Mutex
	rate     int     // sample rate of the queued signal
	slab     *[]byte // pool box of wire; nil while the queue holds no slab
	wire     []byte  // queued wire bytes; wire[pos:] is unplayed
	pos      int
	inflight int // pumps handing wire[...] to the controller outside mu
	pushed   uint64
}

// wirePool holds *[]byte wire-queue slabs shared by every microphone.
var wirePool = sync.Pool{New: func() any { return new([]byte) }}

// NewMicrophone wires a microphone to the controller with the format.
func NewMicrophone(ctrl *i2s.Controller, f i2s.Format) (*Microphone, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if f.Channels != 1 {
		return nil, fmt.Errorf("%w: microphone is mono", i2s.ErrBadFormat)
	}
	return &Microphone{ctrl: ctrl, format: f}, nil
}

// Load quantizes a PCM signal and queues its wire encoding behind any
// unplayed remainder; the caller may reuse p's backing slice as soon as
// Load returns. A signal whose rate differs from a non-empty remainder
// is rejected with ErrRateMismatch and nothing is queued.
func (m *Microphone) Load(p audio.PCM) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pos >= len(m.wire) {
		m.rate = p.Rate
	} else {
		if m.rate == 0 {
			m.rate = p.Rate
		}
		if p.Rate != m.rate {
			return fmt.Errorf("%w: %d Hz behind %d Hz", ErrRateMismatch, p.Rate, m.rate)
		}
	}
	if m.slab == nil {
		m.slab = wirePool.Get().(*[]byte)
		m.wire, m.pos = (*m.slab)[:0], 0
	}
	if m.inflight == 0 {
		// Compact the unplayed remainder to the front. Skipped while a
		// pump is pushing a chunk of the queue: appending below writes
		// only past len(m.wire), never into bytes a pump may still read.
		m.wire = m.wire[:copy(m.wire, m.wire[m.pos:])]
		m.pos = 0
	}
	bpw := m.format.BytesPerWord()
	m.wire = slices.Grow(m.wire, len(p.Samples)*bpw)
	var words [256]int32
	for rest := p.Samples; len(rest) > 0; {
		chunk := words[:min(len(words), len(rest))]
		for i := range chunk {
			chunk[i] = quantize(rest[i])
		}
		rest = rest[len(chunk):]
		end := len(m.wire) + len(chunk)*bpw
		// A mono format is valid (NewMicrophone checked it), so encoding
		// into the grown tail cannot fail or reallocate.
		_, _ = i2s.EncodeFramesInto(m.wire[len(m.wire):end], chunk, m.format)
		m.wire = m.wire[:end]
	}
	return nil
}

// quantize is the microphone's ADC: full scale maps to the signed 16-bit
// range, rounded half away from zero and clamped.
func quantize(s float64) int32 {
	v := math.Round(s * 32768)
	if v > 32767 {
		v = 32767
	} else if v < -32768 {
		v = -32768
	}
	return int32(v)
}

// Remaining returns the number of unplayed samples.
func (m *Microphone) Remaining() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return (len(m.wire) - m.pos) / m.format.BytesPerWord()
}

// PumpBytes shifts up to n bytes of encoded audio (whole words) into the
// controller and returns the number of wire bytes pushed. Returns
// ErrNoSignal when the loaded signal is exhausted.
func (m *Microphone) PumpBytes(n int) (int, error) {
	m.mu.Lock()
	avail := len(m.wire) - m.pos
	if avail <= 0 {
		m.mu.Unlock()
		return 0, ErrNoSignal
	}
	bpw := m.format.BytesPerWord()
	take := min(n/bpw*bpw, avail)
	if take <= 0 {
		m.mu.Unlock()
		return 0, nil
	}
	chunk := m.wire[m.pos : m.pos+take]
	m.pos += take
	m.inflight++
	m.mu.Unlock()

	// PushWire runs outside m.mu: the controller copies the bytes into
	// its FIFO and may invoke the IRQ callback synchronously, which must
	// be free to call back into the microphone. inflight keeps Load from
	// compacting, and the queue from returning to the pool, under chunk.
	pushErr := m.ctrl.PushWire(chunk)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inflight--
	if pushErr != nil {
		// The receiver rejected the data (e.g. RX disabled); rewind so the
		// signal is not silently consumed.
		m.pos -= take
		return 0, pushErr
	}
	m.pushed += uint64(take)
	if m.pos == len(m.wire) && m.inflight == 0 {
		*m.slab = m.wire[:0]
		wirePool.Put(m.slab)
		m.slab, m.wire, m.pos = nil, nil, 0
	}
	return take, nil
}

// BytesPushed returns the total wire bytes delivered to the controller.
func (m *Microphone) BytesPushed() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pushed
}

// Image is a grayscale frame with pixel values in [0,255].
type Image struct {
	W, H int
	Pix  []uint8
}

// NewImage allocates a zeroed frame.
func NewImage(w, h int) (Image, error) {
	if w <= 0 || h <= 0 {
		return Image{}, fmt.Errorf("%w: %dx%d", ErrBadImage, w, h)
	}
	return Image{W: w, H: h, Pix: make([]uint8, w*h)}, nil
}

// At returns the pixel at (x, y).
func (im Image) At(x, y int) uint8 { return im.Pix[y*im.W+x] }

// Set writes the pixel at (x, y).
func (im Image) Set(x, y int, v uint8) { im.Pix[y*im.W+x] = v }

// Floats returns the pixels normalized to [0,1].
func (im Image) Floats() []float32 {
	out := make([]float32, len(im.Pix))
	for i, p := range im.Pix {
		out[i] = float32(p) / 255
	}
	return out
}

// Scene labels what the synthetic camera sees.
type Scene int

const (
	// SceneEmpty is an unoccupied room: sensor noise and a weak gradient.
	SceneEmpty Scene = iota + 1
	// ScenePerson adds a bright person-like blob with a vertical torso
	// edge — the sensitive content the camera classifier must catch.
	ScenePerson
)

// String returns the scene name.
func (s Scene) String() string {
	switch s {
	case SceneEmpty:
		return "empty"
	case ScenePerson:
		return "person"
	default:
		return fmt.Sprintf("scene(%d)", int(s))
	}
}

// Sensitive reports whether the scene counts as sensitive content.
func (s Scene) Sensitive() bool { return s == ScenePerson }

// SynthesizeImage renders a deterministic 24x24 frame of the scene.
func SynthesizeImage(s Scene, seed uint64) Image {
	const size = 24
	rng := rand.New(rand.NewPCG(seed, uint64(s)*0x9e3779b97f4a7c15+1))
	im, _ := NewImage(size, size)
	// Base: sensor noise over a soft vertical illumination gradient.
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			base := 40 + 40*float64(y)/size
			noise := rng.Float64() * 25
			im.Set(x, y, clampPix(base+noise))
		}
	}
	if s != ScenePerson {
		return im
	}
	// Person: head blob + torso column, position jittered per frame.
	cx := 8 + rng.IntN(8)
	cy := 6 + rng.IntN(4)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			dx, dy := float64(x-cx), float64(y-cy)
			head := 170 * math.Exp(-(dx*dx+dy*dy)/9)
			var torso float64
			if y > cy+2 && x >= cx-2 && x <= cx+2 {
				torso = 120
			}
			v := float64(im.At(x, y)) + head + torso
			im.Set(x, y, clampPix(v))
		}
	}
	return im
}

func clampPix(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// Camera produces frames of queued scenes.
type Camera struct {
	mu     sync.Mutex
	queue  []Scene
	seed   uint64
	frames uint64
}

// NewCamera creates a camera with a deterministic seed.
func NewCamera(seed uint64) *Camera { return &Camera{seed: seed} }

// Queue appends scenes to capture.
func (c *Camera) Queue(scenes ...Scene) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queue = append(c.queue, scenes...)
}

// Pending returns the number of queued scenes.
func (c *Camera) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// Capture renders the next queued scene. The boolean is false when the
// queue is empty.
func (c *Camera) Capture() (Image, Scene, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) == 0 {
		return Image{}, 0, false
	}
	s := c.queue[0]
	c.queue = c.queue[1:]
	c.frames++
	return SynthesizeImage(s, c.seed+c.frames), s, true
}
