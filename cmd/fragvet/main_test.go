package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildFragvet compiles this command into a temporary directory and
// returns the binary's path.
func buildFragvet(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds fragvet")
	}
	bin := filepath.Join(t.TempDir(), "fragvet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestGoVetVettool builds fragvet and runs it the way CI does, through
// go vet -vettool, over a testdata module with one known ctxflow
// violation: the run must fail and name the finding.
func TestGoVetVettool(t *testing.T) {
	vet := exec.Command("go", "vet", "-vettool="+buildFragvet(t), "./...")
	vet.Dir = filepath.Join("testdata", "violation")
	vet.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	out, err := vet.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("go vet on a known violation: err = %v, want a non-zero exit\n%s", err, out)
	}
	for _, want := range []string{"sim.go:9:", "context.Background() minted while a caller's context is in scope", "(ctxflow)"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("go vet output lacks %q:\n%s", want, out)
		}
	}
}

// TestUsageWithoutVetArgs pins the hand-run path: without vet's
// arguments fragvet prints how to run it and exits 2.
func TestUsageWithoutVetArgs(t *testing.T) {
	out, err := exec.Command(buildFragvet(t), "./...").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("fragvet ./... = %v, want exit status 2", err)
	}
	if !strings.Contains(string(out), "go vet -vettool=") {
		t.Fatalf("usage does not name go vet -vettool:\n%s", out)
	}
}
