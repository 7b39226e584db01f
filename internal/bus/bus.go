// Package bus models the SoC peripheral interconnect: memory-mapped device
// registers and a DMA engine that moves data between device FIFOs and
// physical RAM. Every transaction carries the initiating TrustZone world,
// so register files and DMA destinations can be protected exactly like RAM.
package bus

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/memory"
	"repro/internal/tz"
)

// Errors returned by the bus.
var (
	// ErrNoDevice is returned when no device is mapped at the address.
	ErrNoDevice = errors.New("bus: no device at address")
	// ErrMapConflict is returned when two mappings overlap.
	ErrMapConflict = errors.New("bus: mapping overlaps existing device")
	// ErrBadRegister is returned by devices for unknown register offsets.
	ErrBadRegister = errors.New("bus: unknown register offset")
	// ErrSecureDevice is returned for normal-world access to a device whose
	// MMIO window was marked secure (TrustZone peripheral protection).
	ErrSecureDevice = errors.New("bus: normal-world access to secure device")
)

// Device is a memory-mapped peripheral's register interface.
type Device interface {
	// Name identifies the device in diagnostics.
	Name() string
	// ReadReg reads the 32-bit register at byte offset off.
	ReadReg(off uint32) (uint32, error)
	// WriteReg writes the 32-bit register at byte offset off.
	WriteReg(off uint32, val uint32) error
}

// mapping binds a device to an address window.
type mapping struct {
	base   uint64
	size   uint64
	secure bool
	dev    Device
}

// Bus routes MMIO transactions to mapped devices with cost accounting.
type Bus struct {
	clock *tz.Clock
	cost  tz.CostModel

	mu   sync.RWMutex
	maps []mapping // sorted by base
}

// New creates an empty bus.
func New(clock *tz.Clock, cost tz.CostModel) *Bus {
	return &Bus{clock: clock, cost: cost}
}

// Map attaches dev at [base, base+size). If secure is true, only the secure
// world may touch the window — this models TrustZone-aware peripheral
// protection (the TZPC), which the paper's design uses to keep the I2S
// controller reachable only from the in-TEE driver.
func (b *Bus) Map(base, size uint64, secure bool, dev Device) error {
	if size == 0 || base+size < base {
		return fmt.Errorf("%w: bad window [%#x,+%d)", ErrMapConflict, base, size)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, m := range b.maps {
		if base < m.base+m.size && m.base < base+size {
			return fmt.Errorf("%w: %q at [%#x,+%d)", ErrMapConflict, m.dev.Name(), m.base, m.size)
		}
	}
	b.maps = append(b.maps, mapping{base: base, size: size, secure: secure, dev: dev})
	sort.Slice(b.maps, func(i, j int) bool { return b.maps[i].base < b.maps[j].base })
	return nil
}

// SetSecure flips the TZPC protection bit of the device window containing
// addr. Returns ErrNoDevice if nothing is mapped there.
func (b *Bus) SetSecure(addr uint64, secure bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.maps {
		m := &b.maps[i]
		if addr >= m.base && addr < m.base+m.size {
			m.secure = secure
			return nil
		}
	}
	return fmt.Errorf("%w: %#x", ErrNoDevice, addr)
}

func (b *Bus) find(w tz.World, addr uint64) (mapping, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, m := range b.maps {
		if addr >= m.base && addr < m.base+m.size {
			if m.secure && w != tz.WorldSecure {
				return mapping{}, fmt.Errorf("%w: %q at %#x", ErrSecureDevice, m.dev.Name(), addr)
			}
			return m, nil
		}
	}
	return mapping{}, fmt.Errorf("%w: %#x", ErrNoDevice, addr)
}

// Read32 performs an MMIO read on behalf of world w.
func (b *Bus) Read32(w tz.World, addr uint64) (uint32, error) {
	m, err := b.find(w, addr)
	if err != nil {
		return 0, err
	}
	b.clock.Advance(b.cost.RegAccess)
	v, err := m.dev.ReadReg(uint32(addr - m.base))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", m.dev.Name(), err)
	}
	return v, nil
}

// Write32 performs an MMIO write on behalf of world w.
func (b *Bus) Write32(w tz.World, addr uint64, val uint32) error {
	m, err := b.find(w, addr)
	if err != nil {
		return err
	}
	b.clock.Advance(b.cost.RegAccess)
	if err := m.dev.WriteReg(uint32(addr-m.base), val); err != nil {
		return fmt.Errorf("%s: %w", m.dev.Name(), err)
	}
	return nil
}

// Devices returns the names of all mapped devices in address order.
func (b *Bus) Devices() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	names := make([]string, 0, len(b.maps))
	for _, m := range b.maps {
		names = append(names, m.dev.Name())
	}
	return names
}

// FIFOSource is a device-side byte producer a DMA channel can drain
// (e.g. the I2S controller's receive FIFO).
type FIFOSource interface {
	// PopInto moves up to len(dst) bytes from the FIFO into dst and
	// returns the count.
	PopInto(dst []byte) int
}

// DMAStats summarizes engine activity.
type DMAStats struct {
	Transfers uint64
	Bytes     uint64
	Faults    uint64 // transfers rejected by the TZASC
}

// DMA is a single-channel DMA engine that drains a device FIFO into RAM.
// Transfers carry the configuring world's identity: a DMA programmed by the
// normal world cannot write into the secure carve-out, which is the property
// the paper's secure-driver design relies on (I/O buffers allocated from
// TZASC-carved secure RAM).
type DMA struct {
	clock *tz.Clock
	cost  tz.CostModel
	mem   *memory.PhysMem

	mu    sync.Mutex
	stats DMAStats
}

// NewDMA creates a DMA engine writing through mem.
func NewDMA(clock *tz.Clock, cost tz.CostModel, mem *memory.PhysMem) *DMA {
	return &DMA{clock: clock, cost: cost, mem: mem}
}

// bouncePool holds *[]byte staging buffers for FromDevice: the FIFO
// drains into one, RAM is written from it, and it goes back before the
// transfer returns, so no caller ever sees or retains it.
var bouncePool = sync.Pool{New: func() any { return new([]byte) }}

// FromDevice drains up to n bytes from src into RAM at dst on behalf of
// world w. It returns the number of bytes actually transferred.
func (d *DMA) FromDevice(w tz.World, src FIFOSource, dst uint64, n int) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	bounce := bouncePool.Get().(*[]byte)
	defer bouncePool.Put(bounce)
	if cap(*bounce) < n {
		*bounce = make([]byte, n)
	}
	data := (*bounce)[:src.PopInto((*bounce)[:n])]
	if len(data) == 0 {
		return 0, nil
	}
	if err := d.mem.WriteAt(w, dst, data); err != nil {
		d.mu.Lock()
		d.stats.Faults++
		d.mu.Unlock()
		return 0, fmt.Errorf("dma write: %w", err)
	}
	d.clock.Advance(tz.Cycles(len(data)) * d.cost.DMAPerByte)
	d.mu.Lock()
	d.stats.Transfers++
	d.stats.Bytes += uint64(len(data))
	d.mu.Unlock()
	return len(data), nil
}

// ToDevice would feed a playback FIFO; provided for API symmetry with real
// sound DMA controllers, used by the driver's (unported) playback path.
func (d *DMA) ToDevice(w tz.World, src uint64, sink func([]byte) int, n int) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	buf := make([]byte, n)
	if err := d.mem.ReadAt(w, src, buf); err != nil {
		d.mu.Lock()
		d.stats.Faults++
		d.mu.Unlock()
		return 0, fmt.Errorf("dma read: %w", err)
	}
	written := sink(buf)
	d.clock.Advance(tz.Cycles(written) * d.cost.DMAPerByte)
	d.mu.Lock()
	d.stats.Transfers++
	d.stats.Bytes += uint64(written)
	d.mu.Unlock()
	return written, nil
}

// Stats returns a snapshot of DMA activity.
func (d *DMA) Stats() DMAStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
