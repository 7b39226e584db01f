package experiments

import (
	"fmt"
	"time"

	"repro/internal/audio"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/i2s"
	"repro/internal/kernel"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/optee"
	"repro/internal/teec"
	"repro/internal/tz"
)

// E1Result holds the world-boundary microbenchmark (Table-1).
type E1Result struct {
	SyscallCycles   float64 // null ioctl round trip
	SMCCycles       float64 // null SMC round trip
	TAInvokeCycles  float64 // TEEC null command (SMC + TEE dispatch)
	PTAInvokeCycles float64 // TA -> PTA TEE-internal call
	RPCCycles       float64 // TA -> supplicant round trip
	SMCOverSyscall  float64 // the paper's headline overhead ratio
}

// nullDevice is a no-op char device for the syscall baseline.
type nullDevice struct{}

func (nullDevice) DevOpen() error                          { return nil }
func (nullDevice) DevRead(buf []byte) (int, error)         { return 0, nil }
func (nullDevice) DevIoctl(uint32, uint64) (uint64, error) { return 0, nil }
func (nullDevice) DevClose() error                         { return nil }

// nullTA answers every command immediately; cmd 2 performs one RPC.
type nullTA struct {
	os *optee.OS
}

func (n *nullTA) UUID() string                { return "ta.null" }
func (n *nullTA) Open(sessionID uint32) error { return nil }
func (n *nullTA) Close(sessionID uint32)      {}

func (n *nullTA) Invoke(sessionID uint32, cmd uint32, p *optee.Params) error {
	switch cmd {
	case 1:
		return nil
	case 2:
		_, err := n.os.RPC(optee.RPCRequest{Kind: optee.RPCTimeGet})
		return err
	case 3:
		return n.os.InvokeSecure("pta.null", 1, nil)
	default:
		return fmt.Errorf("nullTA: cmd %d", cmd)
	}
}

// nullPTA is the no-op pseudo TA.
type nullPTA struct{}

func (nullPTA) UUID() string                { return "pta.null" }
func (nullPTA) Open(sessionID uint32) error { return nil }
func (nullPTA) Close(sessionID uint32)      {}
func (nullPTA) Invoke(sessionID uint32, cmd uint32, p *optee.Params) error {
	return nil
}

// nullRPC services supplicant requests with no work.
type nullRPC struct{}

func (nullRPC) HandleRPC(req optee.RPCRequest) (optee.RPCResponse, error) {
	return optee.RPCResponse{}, nil
}

// E1WorldSwitch measures the boundary-crossing primitives (paper §V:
// "securing programs within a TEE usually introduces additional overhead,
// e.g., through context switches between the trusted and untrusted
// worlds").
func E1WorldSwitch(iters int, cost tz.CostModel) (*metrics.Table, E1Result, error) {
	if iters <= 0 {
		iters = 1000
	}
	var res E1Result

	// Syscall baseline.
	{
		clock := tz.NewClock()
		kern := kernel.New(clock, cost, nil)
		kern.RegisterDevice("/dev/null0", nullDevice{})
		fd, err := kern.Open("/dev/null0")
		if err != nil {
			return nil, res, err
		}
		start := clock.Now()
		for i := 0; i < iters; i++ {
			if _, err := kern.Ioctl(fd, 0, 0); err != nil {
				return nil, res, err
			}
		}
		res.SyscallCycles = float64(clock.Now()-start) / float64(iters)
	}

	// Raw SMC round trip.
	{
		clock := tz.NewClock()
		mon := tz.NewMonitor(clock, cost)
		mon.Register(1, func(args [4]uint64) ([4]uint64, error) { return [4]uint64{}, nil })
		start := clock.Now()
		for i := 0; i < iters; i++ {
			if _, err := mon.SMC(1, [4]uint64{}); err != nil {
				return nil, res, err
			}
		}
		res.SMCCycles = float64(clock.Now()-start) / float64(iters)
	}

	// TEEC null invoke, TA->PTA, TA->RPC.
	{
		clock := tz.NewClock()
		mon := tz.NewMonitor(clock, cost)
		plat, err := memory.NewPlatform(memory.DefaultLayout())
		if err != nil {
			return nil, res, err
		}
		os := optee.New(mon, plat.SecureHeap)
		ta := &nullTA{os: os}
		os.RegisterTA(ta)
		os.RegisterPTA(nullPTA{})
		os.SetRPCHandler(nullRPC{})
		ctx := teec.InitializeContext(os)
		sess, err := ctx.OpenSession("ta.null")
		if err != nil {
			return nil, res, err
		}
		measure := func(cmd uint32) (float64, error) {
			start := clock.Now()
			for i := 0; i < iters; i++ {
				if err := sess.InvokeCommand(cmd, nil); err != nil {
					return 0, err
				}
			}
			return float64(clock.Now()-start) / float64(iters), nil
		}
		if res.TAInvokeCycles, err = measure(1); err != nil {
			return nil, res, err
		}
		full, err := measure(3) // includes the nested PTA call
		if err != nil {
			return nil, res, err
		}
		res.PTAInvokeCycles = full - res.TAInvokeCycles
		fullRPC, err := measure(2)
		if err != nil {
			return nil, res, err
		}
		res.RPCCycles = fullRPC - res.TAInvokeCycles
		if err := ctx.FinalizeContext(); err != nil {
			return nil, res, err
		}
	}

	res.SMCOverSyscall = res.SMCCycles / res.SyscallCycles
	tbl := metrics.NewTable("E1 (Table-1): world-boundary crossing costs",
		"mechanism", "cycles/call", "us @1GHz", "vs syscall")
	add := func(name string, cycles float64) {
		tbl.AddRow(name, cycles, cyclesToUs(cycles), fmt.Sprintf("%.1fx", cycles/res.SyscallCycles))
	}
	add("null syscall (ioctl)", res.SyscallCycles)
	add("null SMC round trip", res.SMCCycles)
	add("TEEC null TA invoke", res.TAInvokeCycles)
	add("TA->PTA internal call", res.PTAInvokeCycles)
	add("TA->supplicant RPC", res.RPCCycles)
	return tbl, res, nil
}

// E2Point is one measurement of the capture sweep.
type E2Point struct {
	ChunkBytes     int
	NormalCycles   float64 // per captured KiB, read via syscalls
	SecureCycles   float64 // per captured KiB, read via TEEC/SMC
	OverheadFactor float64
}

// forwardTA bridges normal-world reads to the capture PTA, the realistic
// path for consuming in-TEE audio from outside (Fig. 1's TA position, with
// the processing stripped so only the crossing cost remains).
type forwardTA struct {
	os *optee.OS
}

func (f *forwardTA) UUID() string                { return "ta.forward" }
func (f *forwardTA) Open(sessionID uint32) error { return nil }
func (f *forwardTA) Close(sessionID uint32)      {}

func (f *forwardTA) Invoke(sessionID uint32, cmd uint32, p *optee.Params) error {
	return f.os.InvokeSecure(core.UUIDDriverPTA, cmd, p)
}

// E2CaptureSweep measures the consumer-visible capture cost: the baseline
// reads the normal-world driver through syscalls; the secure deployment
// reads the in-TEE driver through TEEC commands, paying an SMC round trip
// per chunk (Fig-A). Bigger chunks amortize the crossings — the paper's
// §V mitigation.
func E2CaptureSweep() (*metrics.Figure, []E2Point, error) {
	const totalBytes = 64 << 10
	sizes := []int{256, 512, 1024, 2048, 4096, 8192, 16384}
	normal := &metrics.Series{Name: "normal-world driver (syscall reads)", XLabel: "chunk bytes", YLabel: "cycles/KiB"}
	secure := &metrics.Series{Name: "in-TEE driver (TEEC reads)", XLabel: "chunk bytes", YLabel: "cycles/KiB"}
	overhead := &metrics.Series{Name: "secure/normal factor", XLabel: "chunk bytes", YLabel: "factor"}
	var points []E2Point
	for _, size := range sizes {
		n, err := e2NormalRead(size, totalBytes)
		if err != nil {
			return nil, nil, fmt.Errorf("e2 normal %d: %w", size, err)
		}
		s, err := e2SecureRead(size, totalBytes)
		if err != nil {
			return nil, nil, fmt.Errorf("e2 secure %d: %w", size, err)
		}
		normal.Add(float64(size), n)
		secure.Add(float64(size), s)
		overhead.Add(float64(size), s/n)
		points = append(points, E2Point{
			ChunkBytes: size, NormalCycles: n, SecureCycles: s, OverheadFactor: s / n,
		})
	}
	fig := &metrics.Figure{
		Title:  "E2 (Fig-A): consumer-visible capture cost vs chunk size",
		Series: []*metrics.Series{normal, secure, overhead},
	}
	return fig, points, nil
}

// loadSignal queues totalBytes worth of tone in the microphone without
// pushing it onto the bus (the stream may not be started yet).
func (r *driverRig) loadSignal(totalBytes int) {
	seconds := float64(totalBytes) / 2 / 16000
	tone := audio.Sine(16000, 440, 0.4, time.Duration(seconds*float64(time.Second)))
	_ = r.Mic.Load(tone) // the rig's microphone only ever holds 16 kHz tones
}

// loadTone queues totalBytes worth of tone and streams it all into the
// (already enabled) controller FIFO.
func (r *driverRig) loadTone(totalBytes int) {
	r.loadSignal(totalBytes)
	for {
		if _, err := r.Mic.PumpBytes(8192); err != nil {
			break
		}
	}
}

func e2NormalRead(chunk, total int) (float64, error) {
	rig, err := newDriverRig(tz.WorldNormal, chunk)
	if err != nil {
		return 0, err
	}
	kern := kernel.New(rig.Clock, tz.DefaultCostModel(), rig.Plat.Mem)
	kern.RegisterDevice("/dev/i2s0", driver.NewCharDev(rig.Drv, i2s.DefaultFormat()))
	fd, err := kern.Open("/dev/i2s0") // starts the stream; RX now enabled
	if err != nil {
		return 0, err
	}
	rig.loadTone(total)
	defer func() { _ = kern.Close(fd) }()
	start := rig.Clock.Now()
	buf := make([]byte, chunk)
	got := 0
	for got < total {
		n, err := kern.Read(fd, buf[:min(chunk, total-got)])
		if err != nil {
			return 0, err
		}
		if n == 0 {
			break
		}
		got += n
	}
	if got < total {
		return 0, fmt.Errorf("normal read stalled at %d/%d", got, total)
	}
	return float64(rig.Clock.Now()-start) / (float64(total) / 1024), nil
}

func e2SecureRead(chunk, total int) (float64, error) {
	rig, err := newDriverRig(tz.WorldSecure, chunk)
	if err != nil {
		return 0, err
	}
	cost := tz.DefaultCostModel()
	mon := tz.NewMonitor(rig.Clock, cost)
	os := optee.New(mon, rig.Plat.SecureHeap)
	os.RegisterPTA(core.NewDriverPTA(rig.Drv))
	os.RegisterTA(&forwardTA{os: os})

	ctx := teec.InitializeContext(os)
	sess, err := ctx.OpenSession("ta.forward")
	if err != nil {
		return 0, err
	}
	defer func() { _ = ctx.FinalizeContext() }()
	if err := sess.InvokeCommand(core.CmdPTAStart, nil); err != nil {
		return 0, err
	}
	rig.loadTone(total)

	start := rig.Clock.Now()
	buf := make([]byte, chunk)
	got := 0
	for got < total {
		p := &optee.Params{
			{Type: optee.MemrefOut, Buf: buf[:min(chunk, total-got)]},
			{},
		}
		if err := sess.InvokeCommand(core.CmdPTARead, p); err != nil {
			return 0, err
		}
		n := int(p[1].A)
		if n == 0 {
			break
		}
		got += n
	}
	elapsed := rig.Clock.Now() - start
	if got < total {
		return 0, fmt.Errorf("secure read stalled at %d/%d", got, total)
	}
	if err := sess.InvokeCommand(core.CmdPTAStop, nil); err != nil {
		return 0, err
	}
	return float64(elapsed) / (float64(total) / 1024), nil
}
