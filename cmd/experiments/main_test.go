package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlagValidation: invalid flags exit 2 without running a sweep.
func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "nope"},
		{"-reps", "0"},
		{"-ci", "1.5"},
		{"-format", "yaml"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, &stderr)
		}
	}
}

// failAfter is a writer that starts failing after n bytes, like a pipe
// whose reader died or a filesystem that ran out of space mid-write.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	if f.n == 0 {
		return len(p), f.err
	}
	return len(p), nil
}

// TestRunStdoutWriteFailure: a write error on the table output must
// surface as a nonzero exit code, not a silently truncated report.
func TestRunStdoutWriteFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	stdout := &failAfter{n: 16, err: errors.New("broken pipe")}
	var stderr bytes.Buffer
	code := run([]string{"-fig", "1c", "-scale", "quick"}, stdout, &stderr)
	if code != 1 {
		t.Errorf("run with failing stdout = %d, want 1 (stderr: %s)", code, &stderr)
	}
	if !strings.Contains(stderr.String(), "broken pipe") {
		t.Errorf("stderr %q does not report the write error", &stderr)
	}
}

// TestRunOutWriteFailure: an unwritable -out path exits 1 after the sweep.
func TestRunOutWriteFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var stdout, stderr bytes.Buffer
	// A directory path: os.Create fails, and so must the command.
	code := run([]string{"-fig", "1c", "-scale", "quick", "-out", t.TempDir()}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("run with directory -out = %d, want 1 (stderr: %s)", code, &stderr)
	}
}

// TestRunWritesCSV: the happy path exits 0 and leaves a parseable CSV.
func TestRunWritesCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	path := filepath.Join(t.TempDir(), "rows.csv")
	code := run([]string{"-fig", "1c", "-scale", "quick", "-out", path}, io.Discard, io.Discard)
	if code != 0 {
		t.Fatalf("run = %d, want 0", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines < 2 {
		t.Errorf("CSV has %d lines, want header plus rows", lines)
	}
}
