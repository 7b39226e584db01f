package repro

import (
	"fmt"
	"time"

	"repro/internal/audio"
	"repro/internal/bus"
	"repro/internal/driver"
	"repro/internal/ftrace"
	"repro/internal/i2s"
	"repro/internal/memory"
	"repro/internal/peripheral"
	"repro/internal/tz"
)

// tcbRig is a minimal single-driver platform used by MinimizeTCB to run
// one traced capture task.
type tcbRig struct {
	drv    *driver.SoundDriver
	mic    *peripheral.Microphone
	tracer *ftrace.Tracer
}

func newTCBRig() (*tcbRig, error) {
	const ctrlBase = 0x7000_9000
	plat, err := memory.NewPlatform(memory.DefaultLayout())
	if err != nil {
		return nil, fmt.Errorf("tcb rig: %w", err)
	}
	clock := tz.NewClock()
	cost := tz.DefaultCostModel()
	b := bus.New(clock, cost)
	ctrl := i2s.NewController("i2s0", 1<<16)
	if err := b.Map(ctrlBase, i2s.RegSize, false, ctrl); err != nil {
		return nil, fmt.Errorf("tcb rig: %w", err)
	}
	tracer := ftrace.New(clock)
	drv, err := driver.New(driver.Config{
		Name:     "i2s0-trace",
		World:    tz.WorldNormal,
		Bus:      b,
		Ctrl:     ctrl,
		CtrlBase: ctrlBase,
		DMA:      bus.NewDMA(clock, cost, plat.Mem),
		Mem:      plat.Mem,
		Heap:     plat.DMAHeap,
		Clock:    clock,
		Cost:     cost,
		Tracer:   tracer,
		BufBytes: 4096,
	})
	if err != nil {
		return nil, fmt.Errorf("tcb rig: %w", err)
	}
	mic, err := peripheral.NewMicrophone(ctrl, i2s.DefaultFormat())
	if err != nil {
		return nil, fmt.Errorf("tcb rig: %w", err)
	}
	return &tcbRig{drv: drv, mic: mic, tracer: tracer}, nil
}

// traceCaptureTask records one sound (the paper's canonical traced task)
// and returns the minimal function set.
func (r *tcbRig) traceCaptureTask() (map[string]bool, error) {
	tone := audio.Sine(16000, 440, 0.4, 100*time.Millisecond)
	if err := r.mic.Load(tone); err != nil {
		return nil, fmt.Errorf("tcb trace: %w", err)
	}
	r.tracer.Start("record-a-sound")
	want := len(tone.Samples) * 2
	_, err := r.drv.CaptureTask(i2s.DefaultFormat(), want, func(need int) {
		n := need
		if n > 2048 {
			n = 2048
		}
		_, _ = r.mic.PumpBytes(n)
	})
	trace := r.tracer.Stop()
	if err != nil {
		return nil, fmt.Errorf("tcb trace: %w", err)
	}
	return ftrace.MinimalSet(trace), nil
}
