package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one cmd/ binary into the test's temp dir once.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// TestCLIPipeline drives the full toolchain end to end: generate a corpus
// matrix, reorder it, verify the kernel on the reordered file, and
// simulate its cache behaviour.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	mtxgen := buildTool(t, dir, "mtxgen")
	reorderBin := buildTool(t, dir, "reorder")
	spmv := buildTool(t, dir, "spmv")
	cachesimBin := buildTool(t, dir, "cachesim")

	out := runTool(t, mtxgen, "-out", dir, "-matrices", "soc-tight-2")
	if !strings.Contains(out, "soc-tight-2") {
		t.Fatalf("mtxgen output: %s", out)
	}
	mtx := filepath.Join(dir, "soc-tight-2.mtx")
	if _, err := os.Stat(mtx); err != nil {
		t.Fatal(err)
	}

	reordered := filepath.Join(dir, "reordered.mtx")
	permFile := filepath.Join(dir, "perm.txt")
	out = runTool(t, reorderBin, "-in", mtx, "-out", reordered, "-technique", "RABBIT++", "-perm", permFile, "-stats")
	if !strings.Contains(out, "RABBIT++") || !strings.Contains(out, "insularity=") {
		t.Fatalf("reorder output: %s", out)
	}
	if _, err := os.Stat(permFile); err != nil {
		t.Fatal(err)
	}

	out = runTool(t, spmv, "-in", reordered, "-iters", "2")
	if !strings.Contains(out, "verified: max abs error") {
		t.Fatalf("spmv output: %s", out)
	}

	out = runTool(t, cachesimBin, "-in", mtx, "-l2", "32768", "-techniques", "RANDOM,RABBIT++")
	if !strings.Contains(out, "RABBIT++") || !strings.Contains(out, "traffic") {
		t.Fatalf("cachesim output: %s", out)
	}
}

// TestCLIExperiments runs the experiments binary on a tiny subset.
func TestCLIExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "experiments")

	out := runTool(t, bin, "-list")
	for _, want := range []string{"fig2", "table2", "abl-policy", "mawi-like"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}

	out = runTool(t, bin, "-corpus", "small", "-matrices", "er-deg16", "-run", "device,fig2")
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "er-deg16") {
		t.Fatalf("experiments output:\n%s", out)
	}

	// CSV mode emits a parseable header row.
	out = runTool(t, bin, "-corpus", "small", "-matrices", "er-deg16", "-run", "device", "-csv")
	if !strings.Contains(out, "spec,") {
		t.Fatalf("csv output:\n%s", out)
	}
}

// TestCLIErrors checks the tools fail cleanly on bad input.
func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	reorderBin := buildTool(t, dir, "reorder")
	if err := exec.Command(reorderBin, "-in", "/no/such.mtx", "-out", "/tmp/x.mtx").Run(); err == nil {
		t.Fatal("missing input accepted")
	}
	if err := exec.Command(reorderBin).Run(); err == nil {
		t.Fatal("missing flags accepted")
	}
	bad := filepath.Join(dir, "bad.mtx")
	if err := os.WriteFile(bad, []byte("not a matrix\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := exec.Command(reorderBin, "-in", bad, "-out", filepath.Join(dir, "o.mtx")).Run(); err == nil {
		t.Fatal("garbage matrix accepted")
	}
}

// TestCLISpGEMM drives the spgemm binary: row-wise and cluster-wise
// products on a corpus matrix with the -verify cross-check, product
// output to a file, and the cachesim SpGEMM kernels on the same matrix.
func TestCLISpGEMM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	mtxgen := buildTool(t, dir, "mtxgen")
	spgemmBin := buildTool(t, dir, "spgemm")
	cachesimBin := buildTool(t, dir, "cachesim")

	runTool(t, mtxgen, "-out", dir, "-matrices", "soc-tight-2")
	mtx := filepath.Join(dir, "soc-tight-2.mtx")

	out := runTool(t, spgemmBin, "-in", mtx, "-strategy", "merge", "-verify")
	for _, want := range []string{"compression=", "row-wise (merge)", "bit-identical"} {
		if !strings.Contains(out, want) {
			t.Fatalf("spgemm row-wise output missing %q:\n%s", want, out)
		}
	}

	product := filepath.Join(dir, "c.mtx")
	out = runTool(t, spgemmBin, "-in", mtx, "-cluster", "-technique", "RABBIT", "-out", product)
	for _, want := range []string{"reordered with RABBIT", "tiles", "accumulator", "distinct B-row loads"} {
		if !strings.Contains(out, want) {
			t.Fatalf("spgemm cluster output missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(product); err != nil {
		t.Fatal(err)
	}

	// Unknown strategy must fail cleanly.
	if err := exec.Command(spgemmBin, "-in", mtx, "-strategy", "hash").Run(); err == nil {
		t.Fatal("unknown strategy accepted")
	}

	for _, kernel := range []string{"spgemm", "spgemm-cluster"} {
		out = runTool(t, cachesimBin, "-in", mtx, "-l2", "32768", "-kernel", kernel, "-techniques", "ORIGINAL,RABBIT")
		if !strings.Contains(out, "RABBIT") || !strings.Contains(out, "traffic") {
			t.Fatalf("cachesim -kernel %s output:\n%s", kernel, out)
		}
	}
}

// TestCLIRectangularInput checks the square-only paths reject a
// rectangular matrix with a diagnostic naming the shape (the typed
// sparse.ErrNotSquare path), while plain SpMV on the same file works.
func TestCLIRectangularInput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	spmvBin := buildTool(t, dir, "spmv")

	rect := filepath.Join(dir, "rect.mtx")
	content := "%%MatrixMarket matrix coordinate real general\n3 4 3\n1 2 1.0\n2 3 2.0\n3 4 0.5\n"
	if err := os.WriteFile(rect, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	// Plain SpMV is defined for rectangular matrices and must succeed.
	out := runTool(t, spmvBin, "-in", rect, "-iters", "1")
	if !strings.Contains(out, "verified: max abs error") {
		t.Fatalf("plain rectangular spmv output:\n%s", out)
	}

	// Asking for a symmetric reordering must fail with the shape named.
	cmd := exec.Command(spmvBin, "-in", rect, "-technique", "RABBIT")
	got, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("spmv -technique accepted a rectangular matrix:\n%s", got)
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("spmv did not run: %v", err)
	}
	for _, want := range []string{"3x4", "not square"} {
		if !strings.Contains(string(got), want) {
			t.Fatalf("diagnostic should contain %q, got:\n%s", want, got)
		}
	}
}

// TestCLITruncatedInput feeds reorder and spmv a MatrixMarket file whose
// header declares more entries than the file holds; both must exit non-zero
// with a diagnostic naming the truncated entry, not panic.
func TestCLITruncatedInput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	reorderBin := buildTool(t, dir, "reorder")
	spmvBin := buildTool(t, dir, "spmv")

	truncated := filepath.Join(dir, "truncated.mtx")
	content := "%%MatrixMarket matrix coordinate real general\n4 4 5\n1 2 1.0\n2 3 1.0\n"
	if err := os.WriteFile(truncated, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		cmd  *exec.Cmd
	}{
		{"reorder", exec.Command(reorderBin, "-in", truncated, "-out", filepath.Join(dir, "o.mtx"))},
		{"spmv", exec.Command(spmvBin, "-in", truncated)},
	} {
		out, err := tc.cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s accepted a truncated file:\n%s", tc.name, out)
		}
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%s did not run: %v", tc.name, err)
		}
		if !strings.Contains(string(out), "entry") || !strings.Contains(string(out), "truncated.mtx") {
			t.Fatalf("%s diagnostic should name the file and failing entry, got:\n%s", tc.name, out)
		}
		if strings.Contains(string(out), "panic") {
			t.Fatalf("%s panicked on truncated input:\n%s", tc.name, out)
		}
	}
}

var updateCLI = flag.Bool("update", false, "rewrite the cachesim CLI goldens under testdata/cachesim")

// TestCLICachesimGolden pins cmd/cachesim's rendered tables byte for byte
// on one corpus matrix: every non-default kernel with -belady, and the
// multi-device path for each kernel that has an owned trace. The input
// path in the title is replaced by the file's base name. Regenerate after
// an intentional modeling change with:
//
//	go test . -run TestCLICachesimGolden -update
func TestCLICachesimGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	mtxgen := buildTool(t, dir, "mtxgen")
	cachesimBin := buildTool(t, dir, "cachesim")
	runTool(t, mtxgen, "-out", dir, "-matrices", "soc-tight-2")
	mtx := filepath.Join(dir, "soc-tight-2.mtx")

	type run struct {
		golden string
		args   []string
	}
	var runs []run
	for _, k := range []string{"spmv-coo", "spmm-4", "spgemm", "spgemm-cluster"} {
		runs = append(runs, run{k + "-belady", []string{"-kernel", k, "-belady"}})
	}
	for _, k := range []string{"spmv-csr", "spmv-coo", "spmm-4", "spgemm"} {
		runs = append(runs, run{k + "-devices4", []string{"-kernel", k, "-devices", "4", "-partition", "rowblock"}})
	}
	for _, r := range runs {
		args := append([]string{"-in", mtx, "-l2", "32768"}, r.args...)
		got := strings.ReplaceAll(runTool(t, cachesimBin, args...), mtx, "soc-tight-2.mtx")
		path := filepath.Join("testdata", "cachesim", r.golden+".txt")
		if *updateCLI {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (regenerate with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("cachesim %v drifted from %s\n--- got ---\n%s--- want ---\n%s", r.args, path, got, want)
		}
	}
}
