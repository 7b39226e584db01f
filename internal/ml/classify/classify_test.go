package classify

import (
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/ml/tensor"
	"repro/internal/ml/train"
	"repro/internal/peripheral"
	"repro/internal/sensitive"
)

func corpusSamples(t *testing.T, c *Classifier, utts []sensitive.Utterance, vocab *sensitive.Vocabulary) []train.Sample {
	t.Helper()
	out := make([]train.Sample, 0, len(utts))
	for _, u := range utts {
		out = append(out, train.Sample{
			X: c.TokensToFeatures(vocab.Encode(u.Words)),
			Y: u.Label(),
		})
	}
	return out
}

// trainText trains a small text classifier on the synthetic corpus and
// returns its test metrics.
func trainText(t *testing.T, arch Arch, seed uint64) (train.Metrics, *Classifier, *sensitive.Vocabulary) {
	t.Helper()
	vocab := sensitive.NewVocabulary()
	corpus, err := sensitive.Generate(sensitive.GenConfig{N: 240, SensitiveFraction: 0.45, Seed: seed})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	trainSet, testSet := sensitive.Split(corpus, 0.8, seed)

	rng := rand.New(rand.NewPCG(seed, seed^0xc1a))
	const seqLen = 12
	clf, err := NewText(arch, rng, vocab.Size(), seqLen)
	if err != nil {
		t.Fatalf("NewText(%v): %v", arch, err)
	}
	_, err = train.Fit(clf.Model(), train.NewAdam(0.01),
		corpusSamples(t, clf, trainSet, vocab),
		train.Config{Epochs: 8, BatchSize: 16, Seed: seed, Shape: clf.InputShape()})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	m, err := train.Evaluate(clf.Model(), corpusSamples(t, clf, testSet, vocab), clf.InputShape())
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return m, clf, vocab
}

func TestCNNLearnsSensitiveDetection(t *testing.T) {
	m, _, _ := trainText(t, ArchCNN, 11)
	if m.Accuracy() < 0.9 {
		t.Errorf("cnn accuracy = %v, want >= 0.9", m.Accuracy())
	}
	if m.Recall() < 0.9 {
		t.Errorf("cnn recall = %v, want >= 0.9 (missed sensitive content leaks)", m.Recall())
	}
}

func TestTransformerLearnsSensitiveDetection(t *testing.T) {
	m, _, _ := trainText(t, ArchTransformer, 12)
	if m.Accuracy() < 0.85 {
		t.Errorf("transformer accuracy = %v, want >= 0.85", m.Accuracy())
	}
}

func TestHybridLearnsSensitiveDetection(t *testing.T) {
	m, _, _ := trainText(t, ArchHybrid, 13)
	if m.Accuracy() < 0.85 {
		t.Errorf("hybrid accuracy = %v, want >= 0.85", m.Accuracy())
	}
}

func TestPredictMatchesEvaluate(t *testing.T) {
	_, clf, vocab := trainText(t, ArchCNN, 14)
	u := sensitive.Utterance{Words: []string{"my", "password", "is", "tango"}, Sensitive: true}
	cls, err := clf.Predict(clf.TokensToFeatures(vocab.Encode(u.Words)))
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if cls != 1 {
		t.Errorf("password utterance classified %d, want 1 (sensitive)", cls)
	}
	benign := []string{"turn", "on", "the", "light"}
	cls, err = clf.Predict(clf.TokensToFeatures(vocab.Encode(benign)))
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if cls != 0 {
		t.Errorf("benign utterance classified %d, want 0", cls)
	}
}

func TestArchParsingAndStrings(t *testing.T) {
	for _, name := range []string{"cnn", "transformer", "hybrid"} {
		a, err := ParseArch(name)
		if err != nil {
			t.Errorf("ParseArch(%q): %v", name, err)
		}
		if a.String() != name {
			t.Errorf("round trip %q -> %q", name, a.String())
		}
	}
	if _, err := ParseArch("lstm"); !errors.Is(err, ErrBadArch) {
		t.Errorf("ParseArch(lstm) = %v", err)
	}
	if Arch(9).String() != "arch(9)" {
		t.Error("unknown arch string")
	}
}

func TestNewTextBadArch(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := NewText(Arch(9), rng, 10, 8); !errors.Is(err, ErrBadArch) {
		t.Errorf("NewText bad arch = %v", err)
	}
}

func TestParamAccountingOrdering(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	vocabSize, seqLen := 50, 12
	cnn, err := NewText(ArchCNN, rng, vocabSize, seqLen)
	if err != nil {
		t.Fatalf("cnn: %v", err)
	}
	tr, err := NewText(ArchTransformer, rng, vocabSize, seqLen)
	if err != nil {
		t.Fatalf("transformer: %v", err)
	}
	hy, err := NewText(ArchHybrid, rng, vocabSize, seqLen)
	if err != nil {
		t.Fatalf("hybrid: %v", err)
	}
	for _, c := range []*Classifier{cnn, tr, hy} {
		if c.ParamCount() <= 0 || c.MemoryBytes() <= c.ParamCount()*4-1 {
			t.Errorf("%v accounting: params=%d mem=%d", c.Arch(), c.ParamCount(), c.MemoryBytes())
		}
		if c.EstimateMACs() != 2*c.ParamCount() {
			t.Errorf("%v MACs = %d", c.Arch(), c.EstimateMACs())
		}
	}
	// The hybrid stacks CNN + attention, so it must be the largest.
	if hy.ParamCount() <= cnn.ParamCount() || hy.ParamCount() <= tr.ParamCount() {
		t.Errorf("param ordering: cnn=%d tr=%d hybrid=%d",
			cnn.ParamCount(), tr.ParamCount(), hy.ParamCount())
	}
	// All of them must fit a 1 MiB TEE model budget (paper §V smallness).
	for _, c := range []*Classifier{cnn, tr, hy} {
		if !c.FitsIn(1 << 20) {
			t.Errorf("%v does not fit 1 MiB (needs %d)", c.Arch(), c.MemoryBytes())
		}
	}
	if cnn.FitsIn(10) {
		t.Error("FitsIn(10) should be false")
	}
}

func TestWeightsSerializationRoundTrip(t *testing.T) {
	_, clf, vocab := trainText(t, ArchCNN, 15)
	blob := clf.SerializeWeights()

	rng := rand.New(rand.NewPCG(99, 99))
	fresh, err := NewText(ArchCNN, rng, vocab.Size(), 12)
	if err != nil {
		t.Fatalf("NewText: %v", err)
	}
	feats := clf.TokensToFeatures(vocab.Encode([]string{"my", "password", "is", "tango"}))
	before, err := fresh.Predict(feats)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	_ = before // untrained prediction may be anything
	if err := fresh.LoadWeights(blob); err != nil {
		t.Fatalf("LoadWeights: %v", err)
	}
	orig, err := clf.Predict(feats)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	loaded, err := fresh.Predict(feats)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if orig != loaded {
		t.Errorf("loaded model predicts %d, original %d", loaded, orig)
	}
}

func TestLoadWeightsErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	cnn, _ := NewText(ArchCNN, rng, 20, 8)
	tr, _ := NewText(ArchTransformer, rng, 20, 8)
	if err := cnn.LoadWeights([]byte{1, 2}); !errors.Is(err, ErrBadWeights) {
		t.Errorf("truncated blob = %v", err)
	}
	if err := tr.LoadWeights(cnn.SerializeWeights()); !errors.Is(err, ErrBadWeights) {
		t.Errorf("cross-arch load = %v", err)
	}
	blob := cnn.SerializeWeights()
	if err := cnn.LoadWeights(blob[:len(blob)-2]); !errors.Is(err, ErrBadWeights) {
		t.Errorf("truncated data = %v", err)
	}
	if err := cnn.LoadWeights(append(blob, 0)); !errors.Is(err, ErrBadWeights) {
		t.Errorf("trailing bytes = %v", err)
	}
}

func TestImageClassifierLearnsPersonDetection(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	clf, err := NewImage(rng, 24, 24)
	if err != nil {
		t.Fatalf("NewImage: %v", err)
	}
	samples := imageSamples(t, 120, 20)
	_, err = train.Fit(clf.Model(), train.NewAdam(0.005), samples[:100],
		train.Config{Epochs: 6, BatchSize: 10, Seed: 5, Shape: clf.InputShape()})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	m, err := train.Evaluate(clf.Model(), samples[100:], clf.InputShape())
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if m.Accuracy() < 0.85 {
		t.Errorf("image accuracy = %v, want >= 0.85", m.Accuracy())
	}
}

// imageSamples renders synthetic empty/person frames.
func imageSamples(t *testing.T, n, _ int) []train.Sample {
	t.Helper()
	out := make([]train.Sample, 0, n)
	for i := 0; i < n; i++ {
		label := i % 2
		scene := peripheral.SceneEmpty
		if label == 1 {
			scene = peripheral.ScenePerson
		}
		im := peripheral.SynthesizeImage(scene, uint64(i))
		out = append(out, train.Sample{X: im.Floats(), Y: label})
	}
	return out
}

func TestNewImageBadDims(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	if _, err := NewImage(rng, 3, 3); !errors.Is(err, ErrBadArch) {
		t.Errorf("NewImage(3,3) = %v", err)
	}
	if _, err := NewImage(rng, 23, 24); !errors.Is(err, ErrBadArch) {
		t.Errorf("NewImage(23,24) = %v", err)
	}
}

func TestPredictBatchShapeError(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	clf, _ := NewText(ArchCNN, rng, 10, 8)
	if _, err := clf.PredictBatch([][]float32{{1, 2}}); !errors.Is(err, ErrBadWeights) {
		t.Errorf("short features = %v", err)
	}
	got, err := clf.PredictBatch(nil)
	if err != nil || got != nil {
		t.Errorf("empty batch = %v, %v", got, err)
	}
}

// The TA's tail refuses a shape whose product only matches the data by
// wrapping or by a pair of negative dimensions, and the constructors
// refuse dimensions no input could have; none of them reaches
// tensor.New's panic.
func TestShapeProductsChecked(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	clf, err := NewText(ArchCNN, rng, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	split, err := SplitText(clf)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range [][]int{{-1, -1}, {7, 0x6db6db6db6db6db7}, {1 << 32, 1 << 32}} {
		data := make([]float32, 1)
		if shape[0] == 1<<32 {
			data = nil
		}
		if _, err := split.TailPredict(data, shape); !errors.Is(err, ErrBadWeights) || !errors.Is(err, tensor.ErrDims) {
			t.Errorf("TailPredict(%d values, %v) = %v, want ErrBadWeights and tensor.ErrDims", len(data), shape, err)
		}
	}
	if _, err := NewText(ArchCNN, rng, 20, 0); !errors.Is(err, ErrBadArch) {
		t.Errorf("NewText(seqLen 0) = %v, want ErrBadArch", err)
	}
	if _, err := NewImage(rng, 1<<32, 1<<32); !errors.Is(err, ErrBadArch) {
		t.Errorf("NewImage(2^32, 2^32) = %v, want ErrBadArch", err)
	}
	if n := clf.FeatureLen(); n != 8 {
		t.Errorf("FeatureLen = %d, want 8", n)
	}
}
