package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/version"
)

// writeTable1 writes the paper's running example to a temp item-list file.
func writeTable1(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "table1.bool")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteBool(f, dataset.PaperTable1()); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeContinuous(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cont.tsv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := &dataset.Continuous{
		GeneNames:  []string{"sep", "flat"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{0, 0, 0, 1, 1, 1},
		Values: [][]float64{
			{1.0, 7}, {1.2, 7}, {1.4, 7},
			{8.0, 7}, {8.2, 7}, {8.4, 7},
		},
	}
	if err := dataset.WriteContinuous(f, c); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"bogus"},
		{"classify"},
		{"classify", "-train", "x"},
		{"mine", "-train", "x"},
		{"table", "-train", "x"},
		{"discretize"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should error", args)
		}
	}
}

// TestRunVersionFlag: `bstc -version` prints build identity and exits clean,
// without requiring a subcommand.
func TestRunVersionFlag(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run([]string{"-version"})
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatalf("run(-version): %v", runErr)
	}
	if want := version.Get().String(); strings.TrimSpace(string(out)) != want {
		t.Errorf("output %q, want %q", out, want)
	}
}

func TestClassifySelf(t *testing.T) {
	path := writeTable1(t)
	if err := run([]string{"classify", "-train", path, "-test", path, "-explain", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainModelThenClassify(t *testing.T) {
	path := writeTable1(t)
	model := filepath.Join(t.TempDir(), "m.gob")
	if err := run([]string{"train", "-train", path, "-out", model}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"classify", "-model", model, "-test", path}); err != nil {
		t.Fatal(err)
	}
	// -train and -model are mutually exclusive; neither is also an error.
	if err := run([]string{"classify", "-model", model, "-train", path, "-test", path}); err == nil {
		t.Error("both -train and -model should error")
	}
	if err := run([]string{"classify", "-test", path}); err == nil {
		t.Error("neither -train nor -model should error")
	}
	if err := run([]string{"train", "-train", path}); err == nil {
		t.Error("train without -out should error")
	}
}

func TestMineAndTable(t *testing.T) {
	path := writeTable1(t)
	if err := run([]string{"mine", "-train", path, "-class", "Cancer", "-k", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"mine", "-train", path, "-class", "Cancer", "-k", "2", "-per-sample", "-tie-break"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"table", "-train", path, "-class", "Healthy"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"mine", "-train", path, "-class", "Nope", "-k", "2"}); err == nil {
		t.Error("unknown class should error")
	}
}

func TestDiscretizePipeline(t *testing.T) {
	in := writeContinuous(t)
	out := filepath.Join(t.TempDir(), "out.bool")
	if err := run([]string{"discretize", "-in", in, "-out", out}); err != nil {
		t.Fatal(err)
	}
	// The output must be readable and classify cleanly against itself.
	if err := run([]string{"classify", "-train", out, "-test", out}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalKFold(t *testing.T) {
	in := writeContinuousBig(t)
	if err := run([]string{"eval", "-in", in, "-folds", "3", "-classifiers", "bstc,cba"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"eval", "-in", in, "-classifiers", "nope"}); err == nil {
		t.Error("unknown classifier should error")
	}
	if err := run([]string{"eval"}); err == nil {
		t.Error("missing -in should error")
	}
	if err := run([]string{"eval", "-in", in, "-folds", "1"}); err == nil {
		t.Error("folds=1 should error")
	}
}

func TestEvalReadsARFF(t *testing.T) {
	c := &dataset.Continuous{
		GeneNames:  []string{"f1"},
		ClassNames: []string{"a", "b"},
		Classes:    []int{0, 0, 0, 1, 1, 1, 0, 1},
		Values: [][]float64{
			{1}, {1.1}, {0.9}, {5}, {5.1}, {4.9}, {1.05}, {5.05},
		},
	}
	path := filepath.Join(t.TempDir(), "d.arff")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteARFF(f, "d", c); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run([]string{"eval", "-in", path, "-folds", "2", "-classifiers", "bstc"}); err != nil {
		t.Fatal(err)
	}
}

// writeContinuousBig writes a separable 2-class matrix with enough samples
// for 3-fold evaluation.
func writeContinuousBig(t *testing.T) string {
	t.Helper()
	c := &dataset.Continuous{
		GeneNames:  []string{"sep", "noise"},
		ClassNames: []string{"A", "B"},
	}
	for i := 0; i < 12; i++ {
		v := 1.0 + float64(i)*0.05
		cl := 0
		if i%2 == 1 {
			v += 7
			cl = 1
		}
		c.Values = append(c.Values, []float64{v, 3})
		c.Classes = append(c.Classes, cl)
	}
	path := filepath.Join(t.TempDir(), "big.tsv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteContinuous(f, c); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGlobalProfilingFlags(t *testing.T) {
	path := writeTable1(t)
	mem := filepath.Join(t.TempDir(), "mem.out")
	if err := run([]string{"-memprofile", mem, "table", "-train", path, "-class", "Cancer"}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(mem); err != nil || st.Size() == 0 {
		t.Errorf("heap profile missing or empty: %v", err)
	}
	cpu := filepath.Join(t.TempDir(), "cpu.out")
	if err := run([]string{"-cpuprofile", cpu, "classify", "-train", path, "-test", path}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(cpu); err != nil || st.Size() == 0 {
		t.Errorf("cpu profile missing or empty: %v", err)
	}
}

func TestClassifyVocabularyMismatch(t *testing.T) {
	a := writeTable1(t)
	in := writeContinuous(t)
	out := filepath.Join(t.TempDir(), "other.bool")
	if err := run([]string{"discretize", "-in", in, "-out", out}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"classify", "-train", a, "-test", out}); err == nil {
		t.Error("item vocabulary mismatch should error")
	}
}

func TestArtifactSubcommand(t *testing.T) {
	in := writeContinuous(t)
	out := filepath.Join(t.TempDir(), "model.bstc")
	if err := run([]string{"artifact", "-in", in, "-out", out, "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	art, err := eval.LoadArtifact(f)
	if err != nil {
		t.Fatal(err)
	}
	class, _, err := art.ClassifyRow([]float64{1.1, 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := art.Classifier.ClassNames[class]; got != "A" {
		t.Errorf("classified training-like sample as %q, want A", got)
	}
	if err := run([]string{"artifact", "-in", in}); err == nil {
		t.Error("artifact without -out should error")
	}
}

// TestArtifactFormats checks the written artifact loads through both read
// paths — mapped zero-copy and the copying reader — with identical
// predictions.
func TestArtifactFormats(t *testing.T) {
	in := writeContinuous(t)
	path := filepath.Join(t.TempDir(), "model.bstc")
	if err := run([]string{"artifact", "-in", in, "-out", path}); err != nil {
		t.Fatal(err)
	}
	mapped, err := eval.LoadArtifactMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	copied, err := eval.LoadArtifact(f)
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{1.1, 7}
	mc, mconf, err := mapped.ClassifyRow(row)
	if err != nil {
		t.Fatal(err)
	}
	cc, cconf, err := copied.ClassifyRow(row)
	if err != nil {
		t.Fatal(err)
	}
	if mc != cc || mconf != cconf {
		t.Fatalf("mapped load predicts (%d, %v), copying load (%d, %v)", mc, mconf, cc, cconf)
	}
	// There is one artifact format, so there is no -format flag.
	if err := run([]string{"artifact", "-in", in, "-out", path, "-format", "gob"}); err == nil {
		t.Error("-format should be an unknown flag")
	}
}
