package core

// The TA lifecycle — attestation, model rollout, key rotation and
// restart — is one implementation shared by every TA kind, so it is
// tested as one table over the kinds.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/attest"
	"repro/internal/he"
	"repro/internal/optee"
	"repro/internal/relay"
)

// lifecycleRig is one attested secure device of a kind, enrolled with a
// test verifier.
type lifecycleRig struct {
	kind     *taKind
	id       string
	key      attest.DeviceKey
	verifier *attest.Verifier
	handle   *taHandle
	storage  *optee.Storage
	// pack publishes a version-2 pack of the kind's model, and payload
	// points at the pack field holding its weights.
	pack    func(t *testing.T) attest.Pack
	payload func(p *attest.Pack) *[]byte
	// run processes a short workload on the device.
	run func() error
	// restart rebuilds the TA over the same sealed storage with a fresh
	// provisioning-epoch attestor, as a reboot would.
	restart func(t *testing.T) *taCore
}

// lifecycleKinds builds one rig per TA kind.
func lifecycleKinds(t *testing.T) []*lifecycleRig {
	t.Helper()
	speaker := newAttestRig(t, ModeSecureFilter)
	doorbell, err := NewCameraSystem(CameraConfig{
		Mode:          ModeSecureFilter,
		Seed:          42,
		DeviceID:      "cam-under-test",
		AttestKeySeed: 888,
	})
	if err != nil {
		t.Fatal(err)
	}
	camKey := attest.KeyFromSeed(888)
	camVerifier := attest.NewVerifier(1, func(id string) (attest.DeviceKey, bool) {
		return camKey, id == "cam-under-test"
	})
	camVerifier.AllowMeasurement(CameraTADigest, true)
	// A restarted TA's channel is never used by these tests; any peer
	// key opens one.
	channelKeys := func(t *testing.T) (*relay.Identity, []byte) {
		t.Helper()
		id, err := relay.NewIdentity(NewSeedReader(5, 6))
		if err != nil {
			t.Fatal(err)
		}
		return id, id.PublicKey()
	}

	return []*lifecycleRig{
		{
			kind: voiceKind, id: "dev-under-test", key: speaker.key, verifier: speaker.verifier,
			handle: &speaker.sys.taHandle, storage: speaker.sys.Storage,
			pack: func(t *testing.T) attest.Pack {
				pack, _ := speaker.packV2(t)
				return pack
			},
			payload: func(p *attest.Pack) *[]byte { return &p.Text },
			run: func() error {
				_, err := speaker.sys.RunSession(testUtterances()[:2])
				return err
			},
			restart: func(t *testing.T) *taCore {
				sys := speaker.sys
				id, pub := channelKeys(t)
				ta, err := NewVoiceTA(VoiceTAConfig{
					TEE: sys.TEE, Storage: sys.Storage, Recognizer: sys.Recognizer,
					Arch: sys.cfg.Arch, VocabSize: sys.Vocab.Size(), Vocab: sys.Vocab, Filter: true,
					Identity: id, CloudPub: pub, Clock: sys.Clock, Cost: sys.Cost, Seed: sys.cfg.ModelSeed,
					Attestor: attest.NewAttestor("dev-under-test", speaker.key), ModelVersion: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				return &ta.taCore
			},
		},
		{
			kind: cameraKind, id: "cam-under-test", key: camKey, verifier: camVerifier,
			handle: &doorbell.taHandle, storage: doorbell.Storage,
			pack: func(t *testing.T) attest.Pack {
				clf, err := TrainImageClassifier(5150)
				if err != nil {
					t.Fatal(err)
				}
				return attest.Pack{Version: 2, ModelSeed: 5150, Image: clf.SerializeWeights()}
			},
			payload: func(p *attest.Pack) *[]byte { return &p.Image },
			run: func() error {
				res, err := doorbell.RunSession(daySenes()[:4])
				if err == nil && res.Frames != 4 {
					err = errors.New("frames lost")
				}
				return err
			},
			restart: func(t *testing.T) *taCore {
				id, pub := channelKeys(t)
				ta, err := NewCameraTA(doorbell.TEE, doorbell.Storage, id, pub, doorbell.Clock, doorbell.Cost,
					42, attest.NewAttestor("cam-under-test", camKey), 1, false, he.Params{})
				if err != nil {
					t.Fatal(err)
				}
				return &ta.taCore
			},
		},
	}
}

// TestRotateKeySealsEpochAndReattests: each TA redeems a rotation token
// (CmdRotateKey), seals the new epoch next to its model weights, and
// signs subsequent evidence under the new epoch key — while a handshake
// minted before the rotation still verifies inside the grace window. A
// TA restarted over the same storage resumes signing at the sealed epoch.
func TestRotateKeySealsEpochAndReattests(t *testing.T) {
	for _, r := range lifecycleKinds(t) {
		t.Run(r.kind.name, func(t *testing.T) {
			// Evidence signed at epoch 0, before the rotation is issued...
			inFlight, err := r.handle.Attest(r.verifier.Challenge(r.id))
			if err != nil {
				t.Fatal(err)
			}
			tok, err := r.verifier.Rotate(r.id)
			if err != nil {
				t.Fatalf("Rotate: %v", err)
			}
			// ...is still honored after it (the grace window).
			if err := r.verifier.Verify(inFlight); err != nil {
				t.Fatalf("in-flight handshake across a rotation: %v", err)
			}

			epoch, err := r.handle.RotateKey(tok)
			if err != nil {
				t.Fatalf("RotateKey: %v", err)
			}
			if epoch != 1 || r.handle.KeyEpoch() != 1 {
				t.Fatalf("key epoch = %d/%d, want 1", epoch, r.handle.KeyEpoch())
			}
			// The epoch record is sealed into secure storage next to the
			// model objects: present, confidential, and unsealing to the
			// new epoch.
			sealed, ok := r.storage.SealedBytes(r.kind.keyEpochID)
			if !ok {
				t.Fatal("key-epoch record not persisted in secure storage")
			}
			var plain [8]byte
			binary.LittleEndian.PutUint64(plain[:], 1)
			if len(sealed) <= len(plain) {
				t.Fatalf("key-epoch record not sealed: %d bytes", len(sealed))
			}
			blob, err := r.storage.Get(r.kind.keyEpochID)
			if err != nil {
				t.Fatal(err)
			}
			if binary.LittleEndian.Uint64(blob) != 1 {
				t.Fatalf("sealed epoch = %d, want 1", binary.LittleEndian.Uint64(blob))
			}

			// Re-attestation at the new epoch verifies and closes the window.
			rep, err := r.handle.Attest(r.verifier.Challenge(r.id))
			if err != nil {
				t.Fatal(err)
			}
			if rep.KeyEpoch != 1 {
				t.Fatalf("report epoch %d, want 1", rep.KeyEpoch)
			}
			if err := r.verifier.Verify(rep); err != nil {
				t.Fatalf("re-attest at new epoch: %v", err)
			}

			// A replayed (stale) token no longer redeems, and a forged one
			// (wrong key) is rejected in the TA; the epoch stays put.
			if _, err := r.handle.RotateKey(tok); !errors.Is(err, attest.ErrBadRotation) {
				t.Fatalf("stale token: got %v, want ErrBadRotation", err)
			}
			forged := attest.RotationToken{DeviceID: r.id, NewEpoch: 2}
			if _, err := r.handle.RotateKey(forged); !errors.Is(err, attest.ErrBadRotation) {
				t.Fatalf("forged token: got %v, want ErrBadRotation", err)
			}
			if r.handle.KeyEpoch() != 1 {
				t.Fatalf("epoch moved to %d on a rejected token", r.handle.KeyEpoch())
			}

			// "Restart": the sealed record is not write-only provenance.
			restarted := r.restart(t)
			if got := restarted.KeyEpoch(); got != 1 {
				t.Fatalf("restarted TA signs at epoch %d, want the sealed epoch 1", got)
			}
			// Its evidence verifies at the rotated epoch without a new redeem.
			rep, err = restarted.attestReport(r.verifier.Challenge(r.id))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.verifier.Verify(rep); err != nil {
				t.Fatalf("restarted TA evidence: %v", err)
			}
		})
	}
}

// TestUpdateModelPersistsThroughSealedStorage: each TA attests its code
// digest and provisioned version, refuses a tampered pack, then
// installs a verified one through sealed storage — idempotently, with
// no rollback — and keeps processing on the new model.
func TestUpdateModelPersistsThroughSealedStorage(t *testing.T) {
	for _, r := range lifecycleKinds(t) {
		t.Run(r.kind.name, func(t *testing.T) {
			rep, err := r.handle.Attest(r.verifier.Challenge(r.id))
			if err != nil {
				t.Fatalf("Attest: %v", err)
			}
			if err := r.verifier.Verify(rep); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if rep.Code != r.kind.digest || rep.ModelVersion != 1 {
				t.Fatalf("unexpected measurement: %+v", rep)
			}

			pack := r.pack(t)
			tok, err := r.verifier.Manifest(r.id, pack)
			if err != nil {
				t.Fatalf("manifest: %v", err)
			}
			// Payload tampered in transit: the manifest digest no longer
			// matches.
			bad := pack
			w := r.payload(&bad)
			*w = append([]byte(nil), *w...)
			(*w)[0] ^= 0xff
			if err := r.handle.UpdateModel(bad, tok); !errors.Is(err, attest.ErrBadPack) {
				t.Fatalf("tampered pack: got %v, want ErrBadPack", err)
			}
			if got := r.handle.ModelVersion(); got != 1 {
				t.Fatalf("version moved to %d after rejected update", got)
			}

			if err := r.handle.UpdateModel(pack, tok); err != nil {
				t.Fatalf("UpdateModel: %v", err)
			}
			if got := r.handle.ModelVersion(); got != 2 {
				t.Fatalf("ModelVersion = %d, want 2", got)
			}
			// The versioned pack is sealed into secure storage, not
			// plaintext.
			weights := *r.payload(&pack)
			sealed, ok := r.storage.SealedBytes(r.kind.packID(2))
			if !ok {
				t.Fatal("model pack not persisted in secure storage")
			}
			if bytes.Contains(sealed, weights[:32]) {
				t.Fatal("sealed pack leaks plaintext weights")
			}
			// The current-weights object now unseals to the v2 weights, so
			// a fresh session open picks the new model up from storage.
			blob, err := r.storage.Get(r.kind.weightsID)
			if err != nil {
				t.Fatalf("weights object: %v", err)
			}
			if !bytes.Equal(blob, weights) {
				t.Fatal("current-weights object does not hold the v2 weights")
			}
			// Idempotent re-delivery of the installed version is a no-op.
			if err := r.handle.UpdateModel(pack, tok); err != nil {
				t.Fatalf("re-delivery: %v", err)
			}
			// An older pack is rejected (no rollback).
			old := pack
			old.Version = 1
			oldTok, err := r.verifier.Manifest(r.id, old)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.handle.UpdateModel(old, oldTok); !errors.Is(err, attest.ErrBadPack) {
				t.Fatalf("rollback: got %v, want ErrBadPack", err)
			}
			// The device still processes on the new model.
			if err := r.run(); err != nil {
				t.Fatalf("session after update: %v", err)
			}
		})
	}
}
