package dfs_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExampleGoldens builds each program under examples/ and compares its
// stdout with testdata/golden/example_<name>.txt. Every example is seeded
// and prints trees, counts and model costs but no timings, so a change that
// alters any tree the library builds, or any model count, shows here.
func TestExampleGoldens(t *testing.T) {
	names := []string{"cluster", "faulttolerance", "overlaynet", "quickstart", "streamlog"}
	bin := t.TempDir()
	// One build on one core: go test runs other packages' tests beside this
	// one, and some of them weigh work by wall-clock time.
	build := exec.Command("go", "build", "-p", "1", "-o", bin+string(filepath.Separator))
	for _, name := range names {
		build.Args = append(build.Args, "./examples/"+name)
	}
	build.Env = append(os.Environ(), "GOMAXPROCS=1")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			got, err := exec.Command(filepath.Join(bin, name)).Output()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", "example_"+name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from the golden file\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
