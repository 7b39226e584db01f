package core

// The lifecycle every trusted application shares. The voice TA and the
// camera TA differ in what they capture and classify, not in how they
// are attested, updated, re-keyed or relay an event: taCore holds that
// common half once, and each TA embeds it. The kind-specific inputs are
// a taKind (object-id prefix, code digest, pack field, hybrid split) and
// the classifier skeleton the TA is built with.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/attest"
	"repro/internal/cloud"
	"repro/internal/he"
	"repro/internal/ml/classify"
	"repro/internal/ml/layers"
	"repro/internal/optee"
	"repro/internal/relay"
	"repro/internal/teec"
	"repro/internal/tz"
)

// ErrBadHandoff is returned when a decrypted HE→TEE handoff does not
// have the shape of the split's HE-layer output.
var ErrBadHandoff = errors.New("core: HE handoff shape mismatch")

// Management commands every TA answers.
const (
	// CmdAttest produces attestation evidence: params[0] is a MemrefIn
	// challenge nonce, params[1] a MemrefOut the marshalled report is
	// written into, params[2].A (ValueOut) the report length.
	CmdAttest uint32 = 0x22
	// CmdUpdateModel installs a newer model pack: params[0] is a MemrefIn
	// encoded attest.Pack, params[1] a MemrefIn marshalled manifest token.
	// The TA verifies the manifest against its device key, seals the pack
	// into secure storage and hot-swaps the classifier without disturbing
	// in-flight batches; params[2].A (ValueOut) returns the new version.
	CmdUpdateModel uint32 = 0x23
	// CmdRotateKey redeems a verifier-issued key-rotation token:
	// params[0] is a MemrefIn marshalled attest.RotationToken. The TA
	// verifies the token under its current attestation key, derives the
	// next epoch key, seals the epoch record to secure storage (next to
	// current-weights) and swaps the signer without disturbing in-flight
	// work; params[1].A (ValueOut) returns the new key epoch.
	CmdRotateKey uint32 = 0x24
)

// taKind is what tells one TA kind's lifecycle from another's.
type taKind struct {
	// name prefixes the kind's secure-storage objects and its errors.
	name   string
	digest attest.Digest
	// weights picks the kind's model out of a rollout pack.
	weights func(attest.Pack) []byte
	// split cuts the kind's classifier for the HE→TEE handoff.
	split func(*classify.Classifier) (heTail, error)

	// Secure-storage ids: the current classifier weights, the sealed HE
	// secret key (ModeHybridHE) and the sealed key-epoch record.
	weightsID, heKeyID, keyEpochID string
}

func newTAKind(name string, digest attest.Digest, weights func(attest.Pack) []byte, split func(*classify.Classifier) (heTail, error)) *taKind {
	return &taKind{
		name: name, digest: digest, weights: weights, split: split,
		weightsID:  name + "/classifier-weights",
		heKeyID:    name + "/he-secret-key",
		keyEpochID: name + "/key-epoch",
	}
}

// packID is the secure-storage id of a provisioned model pack.
func (k *taKind) packID(version uint64) string {
	return fmt.Sprintf("%s/model-pack-v%d", k.name, version)
}

// heTail is the in-TA half of a hybrid split: the tail forward, the
// HE-layer output shape it accepts, and the cycles it is charged.
type heTail struct {
	split interface {
		TailPredict(data []float32, shape []int) (int, error)
	}
	shape  []int
	cycles tz.Cycles
}

// tailCycles charges a tail forward at the inline classify path's 4
// MACs/cycle.
func tailCycles(tail layers.Layer) tz.Cycles {
	return tz.Cycles(2 * layers.ParamCount([]layers.Layer{tail}) / 4)
}

func splitText(clf *classify.Classifier) (heTail, error) {
	s, err := classify.SplitText(clf)
	if err != nil {
		return heTail{}, err
	}
	return heTail{split: s, shape: []int{s.SeqLen - s.Conv.K + 1, s.Conv.Cout}, cycles: tailCycles(s.Tail)}, nil
}

func splitImage(clf *classify.Classifier) (heTail, error) {
	s, err := classify.SplitImage(clf)
	if err != nil {
		return heTail{}, err
	}
	return heTail{split: s, shape: []int{s.H - s.Conv.K + 1, s.W - s.Conv.K + 1, s.Conv.Cout}, cycles: tailCycles(s.Tail)}, nil
}

// taCore is the lifecycle half of a TA: storage, clock, cost, the sealed
// channel to the cloud, the attestor, the model version and seed, and
// the lazily unsealed classifier.
type taCore struct {
	kind    *taKind
	tee     *optee.OS
	storage *optee.Storage
	clock   *tz.Clock
	cost    tz.CostModel
	channel *relay.Channel
	// filter is false only for a secure-nofilter speaker, which holds no
	// classifier; hybrid arms the HE→TEE handoff under heParams.
	filter   bool
	hybrid   bool
	heParams he.Params
	// skeleton builds the kind's untrained classifier for a model seed.
	skeleton func(seed uint64) (*classify.Classifier, error)

	// mu guards the fields below and the embedding TA's own state.
	mu           sync.Mutex
	attestor     *attest.Attestor
	modelVersion uint64
	modelSeed    uint64
	classifier   *classify.Classifier // nil until first classify (unsealed from storage) or updateModel
	remote       ClassifyService      // non-nil: classify via the shared cross-device scheduler
	remoteDevice string               // device id submitted with shared-classify requests
	messageID    uint64
}

// init opens the TA's sealed channel to the cloud and restores a key
// epoch an earlier instance sealed with CmdRotateKey, so a restarted TA
// resumes signing at the rotated epoch instead of the provisioning key.
func (c *taCore) init(id *relay.Identity, cloudPub []byte) error {
	ch, err := relay.NewChannel(id, cloudPub, true)
	if err != nil {
		return fmt.Errorf("%s channel: %w", c.kind.name, err)
	}
	c.channel = ch
	if c.attestor != nil {
		if blob, err := c.storage.Get(c.kind.keyEpochID); err == nil && len(blob) >= 8 {
			c.attestor = c.attestor.AtEpoch(binary.LittleEndian.Uint64(blob))
		}
	}
	return nil
}

// ModelVersion returns the version of the model pack the TA holds.
func (c *taCore) ModelVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.modelVersion
}

// KeyEpoch returns the key epoch the TA currently signs evidence under.
func (c *taCore) KeyEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attestor == nil {
		return 0
	}
	return c.attestor.Epoch()
}

func (c *taCore) errNotProvisioned() error {
	return fmt.Errorf("%s: attestation not provisioned", c.kind.name)
}

// manage answers the management commands every TA shares.
func (c *taCore) manage(cmd uint32, params *optee.Params) error {
	switch cmd {
	case CmdAttest:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) != len(attest.Nonce{}) {
			return fmt.Errorf("%w: CmdAttest needs a %d-byte MemrefIn nonce", optee.ErrBadParam, len(attest.Nonce{}))
		}
		if params[1].Type != optee.MemrefOut || params[1].Buf == nil {
			return fmt.Errorf("%w: CmdAttest needs a MemrefOut report buffer", optee.ErrBadParam)
		}
		rep, err := c.attestReport(attest.Nonce(params[0].Buf))
		if err != nil {
			return err
		}
		blob := rep.Marshal()
		if len(params[1].Buf) < len(blob) {
			return fmt.Errorf("%w: report buffer %d < %d", optee.ErrBadParam, len(params[1].Buf), len(blob))
		}
		copy(params[1].Buf, blob)
		params[2].Type = optee.ValueOut
		params[2].A = uint64(len(blob))
		return nil
	case CmdUpdateModel:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) == 0 {
			return fmt.Errorf("%w: CmdUpdateModel needs a MemrefIn pack", optee.ErrBadParam)
		}
		if params[1].Type != optee.MemrefIn || len(params[1].Buf) == 0 {
			return fmt.Errorf("%w: CmdUpdateModel needs a MemrefIn manifest", optee.ErrBadParam)
		}
		version, err := c.updateModel(params[0].Buf, params[1].Buf)
		if err != nil {
			return err
		}
		params[2].Type = optee.ValueOut
		params[2].A = version
		return nil
	case CmdRotateKey:
		if params[0].Type != optee.MemrefIn || len(params[0].Buf) == 0 {
			return fmt.Errorf("%w: CmdRotateKey needs a MemrefIn token", optee.ErrBadParam)
		}
		epoch, err := c.rotateKey(params[0].Buf)
		if err != nil {
			return err
		}
		params[1].Type = optee.ValueOut
		params[1].A = epoch
		return nil
	default:
		return fmt.Errorf("%w: %s cmd %#x", optee.ErrBadParam, c.kind.name, cmd)
	}
}

// attestReport signs the TA's current measurement — its code digest and
// the model-pack version it holds — over the verifier's challenge. The
// attestor pointer is read under the TA lock: a concurrent CmdRotateKey
// swaps it, and a report must be signed entirely under one epoch key.
func (c *taCore) attestReport(nonce attest.Nonce) (attest.Report, error) {
	c.mu.Lock()
	attestor := c.attestor
	m := attest.Measurement{Code: c.kind.digest, ModelVersion: c.modelVersion}
	c.mu.Unlock()
	if attestor == nil {
		return attest.Report{}, c.errNotProvisioned()
	}
	// HMAC evidence over the measurement (~1k cycles of SHA-256 on a
	// NEON-class core, rounded up for the report assembly).
	c.clock.Advance(2000)
	return attestor.Attest(nonce, m), nil
}

// rotateKey redeems a key-rotation token: the token must verify under
// the TA's current attestation key and advance the epoch by exactly one.
// The epoch record is sealed to secure storage next to current-weights —
// a TA restart resumes signing at the rotated epoch — and the signer is
// swapped under the TA lock, so a concurrent attestReport signs either
// wholly under the old epoch (honored by the verifier's grace window) or
// wholly under the new one; in-flight work is never disturbed.
func (c *taCore) rotateKey(tokenBytes []byte) (uint64, error) {
	tok, err := attest.UnmarshalRotationToken(tokenBytes)
	if err != nil {
		return 0, fmt.Errorf("%s rotate: %w", c.kind.name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attestor == nil {
		return 0, c.errNotProvisioned()
	}
	next, err := c.attestor.Rotated(tok)
	if err != nil {
		return 0, fmt.Errorf("%s rotate: %w", c.kind.name, err)
	}
	var rec [8]byte
	binary.LittleEndian.PutUint64(rec[:], next.Epoch())
	c.storage.Put(c.kind.keyEpochID, rec[:])
	// MAC verification plus one HMAC key derivation; see attestReport.
	c.clock.Advance(4000)
	c.attestor = next
	return next.Epoch(), nil
}

// updateModel is the online-rollout sink: it authenticates a published
// model pack against the per-device manifest, persists it through sealed
// storage, and hot-swaps the live classifier. Swapping happens under the
// TA lock while in-flight batches keep the classifier pointer they read
// at classify time, so no batch is dropped or torn mid-run.
func (c *taCore) updateModel(packBytes, tokenBytes []byte) (uint64, error) {
	c.mu.Lock()
	attestor, shared := c.attestor, c.remote != nil
	c.mu.Unlock()
	if attestor == nil {
		return 0, c.errNotProvisioned()
	}
	pack, err := attest.DecodePack(packBytes)
	if err != nil {
		return 0, fmt.Errorf("%s update: %w", c.kind.name, err)
	}
	tok, err := attest.UnmarshalManifestToken(tokenBytes)
	if err != nil {
		return 0, fmt.Errorf("%s update: %w", c.kind.name, err)
	}
	if err := attestor.VerifyManifest(tok, pack); err != nil {
		return 0, fmt.Errorf("%s update: %w", c.kind.name, err)
	}
	// With a shared classify service wired, the device never runs the
	// pack's weights itself — the scheduler's per-version classifier
	// does — so the per-device rebuild is skipped. The pack is still
	// verified, sealed, and version-advanced below.
	var clf *classify.Classifier
	if c.filter && !shared {
		if clf, err = c.buildClassifier(pack.ModelSeed, c.kind.weights(pack)); err != nil {
			return 0, fmt.Errorf("%s update: %w", c.kind.name, err)
		}
	}
	// Version check and install form one critical section, so two
	// concurrent updates cannot interleave into a downgrade: the loser
	// of the race re-checks against the winner's installed version.
	c.mu.Lock()
	defer c.mu.Unlock()
	if pack.Version == c.modelVersion {
		return c.modelVersion, nil // idempotent re-delivery
	}
	if pack.Version < c.modelVersion {
		return 0, fmt.Errorf("%s update: %w: pack v%d older than installed v%d",
			c.kind.name, attest.ErrBadPack, pack.Version, c.modelVersion)
	}
	// Persist through sealed storage: the versioned pack for provenance,
	// and the current-weights object the next unseal picks up.
	c.storage.Put(c.kind.packID(pack.Version), packBytes)
	if c.filter {
		c.storage.Put(c.kind.weightsID, c.kind.weights(pack))
		if clf != nil {
			c.classifier = clf
		}
	}
	// Charge the copy+seal of the pack through the TEE.
	c.clock.Advance(tz.Cycles(len(packBytes)) * c.cost.CopyPerByte)
	c.modelVersion = pack.Version
	c.modelSeed = pack.ModelSeed
	return pack.Version, nil
}

// buildClassifier reconstructs the classifier skeleton for a model seed
// and restores the given serialized weights into it.
func (c *taCore) buildClassifier(seed uint64, blob []byte) (*classify.Classifier, error) {
	clf, err := c.skeleton(seed)
	if err != nil {
		return nil, err
	}
	if err := clf.LoadWeights(blob); err != nil {
		return nil, fmt.Errorf("%s weights: %w", c.kind.name, err)
	}
	return clf, nil
}

// loadedClassifier returns the live classifier, unsealing it from
// secure storage on first use (an installed rollout pack takes
// precedence: updateModel swaps the pointer directly). Deferring the
// unseal keeps management sessions lightweight.
func (c *taCore) loadedClassifier() (*classify.Classifier, error) {
	c.mu.Lock()
	clf, seed := c.classifier, c.modelSeed
	c.mu.Unlock()
	if clf != nil {
		return clf, nil
	}
	if !c.filter {
		return nil, fmt.Errorf("%s: classifier disabled (no-filter mode)", c.kind.name)
	}
	blob, err := c.storage.Get(c.kind.weightsID)
	if err != nil {
		return nil, fmt.Errorf("%s weights: %w", c.kind.name, err)
	}
	built, err := c.buildClassifier(seed, blob)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.classifier == nil {
		c.classifier = built
	}
	clf = c.classifier
	c.mu.Unlock()
	return clf, nil
}

// sent is what one relay send reports back into a TA record.
type sent struct {
	sealedSize    int
	shed, expired bool
}

// send seals ev under the TA's next message id and relays it through
// the supplicant, verifying the cloud's sealed directive (Fig. 1 steps
// 6–7). A frontend shed under queue pressure (cloud.ErrShed) or an
// exhausted uplink retry budget (cloud.ErrExpired) is an accounting
// outcome, not a fault: the event was emitted and paid for, and there is
// no directive to verify.
func (c *taCore) send(ev relay.Event) (sent, error) {
	c.mu.Lock()
	c.messageID++
	ev.MessageID = c.messageID
	c.mu.Unlock()
	payload, err := relay.EncodeEvent(ev)
	if err != nil {
		return sent{}, err
	}
	sealed := c.channel.Seal(payload)
	out := sent{sealedSize: len(sealed)}
	resp, err := c.tee.RPC(optee.RPCRequest{Kind: optee.RPCNetSend, Target: CloudTarget, Payload: sealed})
	switch {
	case err == nil:
		if _, err := c.channel.Open(resp.Payload); err != nil {
			return out, fmt.Errorf("%s directive: %w", c.kind.name, err)
		}
	case errors.Is(err, cloud.ErrShed):
		out.shed = true
	case errors.Is(err, cloud.ErrExpired):
		out.expired = true
	default:
		return out, fmt.Errorf("%s relay: %w", c.kind.name, err)
	}
	return out, nil
}

// heHandoff is one HE→TEE handoff opened inside the TA: the secret key
// unsealed from secure storage, an evaluator charging the decrypt to the
// TA's clock, and the classifier tail.
type heHandoff struct {
	sk   he.SecretKey
	eval *he.Evaluator
	heTail
}

// openHandoff unseals the HE secret key and splits the live classifier.
// The seal read happens per handoff, mirroring how the weights object is
// the unit of sealed-storage traffic.
func (c *taCore) openHandoff() (*heHandoff, error) {
	if !c.hybrid {
		return nil, fmt.Errorf("%s: HE handoff outside hybrid mode", c.kind.name)
	}
	blob, err := c.storage.Get(c.kind.heKeyID)
	if err != nil {
		return nil, fmt.Errorf("%s he key: %w", c.kind.name, err)
	}
	sk, err := he.ParseSecretKey(blob)
	if err != nil {
		return nil, fmt.Errorf("%s he key: %w", c.kind.name, err)
	}
	eval, err := he.NewEvaluator(c.heParams, c.clock, c.cost)
	if err != nil {
		return nil, fmt.Errorf("%s he eval: %w", c.kind.name, err)
	}
	clf, err := c.loadedClassifier()
	if err != nil {
		return nil, err
	}
	tail, err := c.kind.split(clf)
	if err != nil {
		return nil, fmt.Errorf("%s he split: %w", c.kind.name, err)
	}
	return &heHandoff{sk: sk, eval: eval, heTail: tail}, nil
}

// verdict decrypts one provider-evaluated HE-layer output and runs the
// non-linear tail over it inside the TEE; true means flagged. The
// normal world and the provider control every byte of blob, so anything
// but the split's HE-layer output shape is refused before the tail runs.
func (h *heHandoff) verdict(blob []byte) (bool, error) {
	ct, err := h.eval.Unmarshal(blob)
	if err != nil {
		return false, err
	}
	data, shape, err := h.eval.Decrypt(h.sk, ct)
	if err != nil {
		return false, err
	}
	if !slices.Equal(shape, h.shape) {
		return false, fmt.Errorf("%w: %v, want %v", ErrBadHandoff, shape, h.shape)
	}
	cls, err := h.split.TailPredict(data, shape)
	if err != nil {
		return false, err
	}
	// The decrypt was charged by the evaluator; the tail is charged here.
	h.eval.Clock.Advance(h.cycles)
	return cls == 1, nil
}

// taHandle is the normal world's management surface onto a TA. Every
// call opens a short-lived management session, so it pays the same
// session and SMC costs whichever TA it reaches. The zero handle, held
// by baseline systems (no TEE), answers ErrNoTEE and version/epoch 0.
type taHandle struct {
	tee  *optee.OS
	uuid string
	core *taCore
}

// withTA runs fn over a management session. A TA refcounts sessions, so
// one opened while a processing session is live shares the running
// instance (and a speaker's capture stream keeps going).
func (h *taHandle) withTA(fn func(sess *teec.Session) error) error {
	if h.core == nil {
		return ErrNoTEE
	}
	ctx := teec.InitializeContext(h.tee)
	sess, err := ctx.OpenSession(h.uuid)
	if err != nil {
		return fmt.Errorf("core management session: %w", err)
	}
	defer func() { _ = ctx.FinalizeContext() }()
	return fn(sess)
}

// Attest asks the TA for attestation evidence over the verifier's
// challenge nonce (fleet handshake, Fig. 1 extended: the provider admits
// the device's traffic only after this report verifies).
func (h *taHandle) Attest(nonce attest.Nonce) (attest.Report, error) {
	var rep attest.Report
	err := h.withTA(func(sess *teec.Session) error {
		buf := make([]byte, 512)
		p := &optee.Params{{Type: optee.MemrefIn, Buf: nonce[:]}, {Type: optee.MemrefOut, Buf: buf}, {}}
		if err := sess.InvokeCommand(CmdAttest, p); err != nil {
			return err
		}
		var err error
		rep, err = attest.UnmarshalReport(buf[:p[2].A])
		return err
	})
	return rep, err
}

// UpdateModel delivers a published model pack and its per-device
// manifest token to the TA, which authenticates, seals and hot-swaps it.
func (h *taHandle) UpdateModel(pack attest.Pack, tok attest.ManifestToken) error {
	return h.withTA(func(sess *teec.Session) error {
		p := &optee.Params{{Type: optee.MemrefIn, Buf: pack.Encode()}, {Type: optee.MemrefIn, Buf: tok.Marshal()}, {}}
		return sess.InvokeCommand(CmdUpdateModel, p)
	})
}

// RotateKey redeems a verifier-issued key-rotation token in the TA,
// which verifies it under the current attestation key, seals the new
// epoch and swaps the evidence signer. Returns the new key epoch.
func (h *taHandle) RotateKey(tok attest.RotationToken) (uint64, error) {
	var epoch uint64
	err := h.withTA(func(sess *teec.Session) error {
		p := &optee.Params{{Type: optee.MemrefIn, Buf: tok.Marshal()}, {}}
		if err := sess.InvokeCommand(CmdRotateKey, p); err != nil {
			return err
		}
		epoch = p[1].A
		return nil
	})
	return epoch, err
}

// ModelVersion returns the model-pack version the device holds (0 for
// baseline systems, which hold no on-device model).
func (h *taHandle) ModelVersion() uint64 {
	if h.core == nil {
		return 0
	}
	return h.core.ModelVersion()
}

// KeyEpoch returns the attestation key epoch the device signs evidence
// under (0 for baseline systems).
func (h *taHandle) KeyEpoch() uint64 {
	if h.core == nil {
		return 0
	}
	return h.core.KeyEpoch()
}
