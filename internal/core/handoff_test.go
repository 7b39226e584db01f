package core

// Hostile HE→TEE handoffs: the normal world and the provider control
// every byte of a CmdResumeBatchHE / CmdCameraFinishHE ciphertext, so a
// forged one must end in a typed error inside the TA, never a panic.

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/he"
	"repro/internal/optee"
	"repro/internal/teec"
)

// forgedOverflowCiphertext is a well-framed ciphertext under keyID whose
// shape [2^22, 2^21, 2^21] has an element count that wraps int to 0, so
// it claims (and carries) zero slots.
func forgedOverflowCiphertext(keyID uint64) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, 0x48454331) // "HEC1"
	b = binary.LittleEndian.AppendUint64(b, keyID)
	b = binary.LittleEndian.AppendUint32(b, 1)   // level
	b = binary.LittleEndian.AppendUint32(b, 100) // noise budget
	b = binary.LittleEndian.AppendUint32(b, 3)   // dims
	for _, d := range []uint32{4194304, 2097152, 2097152} {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	return binary.LittleEndian.AppendUint32(b, 0) // slots
}

// wrongShapeCiphertext is an honestly encrypted ciphertext whose shape
// is valid but is not the split's HE-layer output shape.
func wrongShapeCiphertext(t *testing.T, eval *he.Evaluator, pub he.PublicKey) []byte {
	t.Helper()
	ct, err := eval.Encrypt(pub, []float32{0.5, 0.25}, []int{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	return ct.Marshal(eval.Params)
}

// resumeHE stages one utterance in the voice TA and resumes it with blob.
func resumeHE(t *testing.T, sys *System, blob []byte) error {
	t.Helper()
	ctx := teec.InitializeContext(sys.TEE)
	sess, err := ctx.OpenSession(UUIDVoiceTA)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ctx.FinalizeContext() }()
	lens, err := sys.queueGroup(0, testUtterances()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.InvokeCommand(CmdTranscribeBatch, &optee.Params{{Type: optee.MemrefIn, Buf: lens}, {}}); err != nil {
		t.Fatal(err)
	}
	return sess.InvokeCommand(CmdResumeBatchHE, &optee.Params{{Type: optee.MemrefIn, Buf: packLengthPrefixed([][]byte{blob})}, {}})
}

// finishHE hands blob to the camera TA as one frame's HE-layer output.
func finishHE(t *testing.T, sys *CameraSystem, blob []byte) error {
	t.Helper()
	ctx := teec.InitializeContext(sys.TEE)
	sess, err := ctx.OpenSession(UUIDCameraTA)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ctx.FinalizeContext() }()
	return sess.InvokeCommand(CmdCameraFinishHE, &optee.Params{
		{Type: optee.MemrefIn, Buf: blob},
		{Type: optee.MemrefIn, Buf: make([]byte, cameraFrameBytes)},
		{},
	})
}

func TestForgedHandoffRejected(t *testing.T) {
	speaker, err := NewSystem(Config{Mode: ModeHybridHE, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	doorbell, err := NewCameraSystem(CameraConfig{Mode: ModeHybridHE, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() error
		want error
	}{
		{"speaker/overflow", func() error { return resumeHE(t, speaker, forgedOverflowCiphertext(speaker.HEPub.ID)) }, he.ErrCorrupt},
		{"doorbell/overflow", func() error { return finishHE(t, doorbell, forgedOverflowCiphertext(doorbell.HEPub.ID)) }, he.ErrCorrupt},
		{"speaker/wrong-shape", func() error { return resumeHE(t, speaker, wrongShapeCiphertext(t, speaker.HEEval, speaker.HEPub)) }, ErrBadHandoff},
		{"doorbell/wrong-shape", func() error { return finishHE(t, doorbell, wrongShapeCiphertext(t, doorbell.HEEval, doorbell.HEPub)) }, ErrBadHandoff},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(); !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
		})
	}
}
