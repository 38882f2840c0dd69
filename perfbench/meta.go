package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runMeta describes the environment and inputs of a run; steal0 is
// stealTicks at the run's start.
func runMeta(o runOpts, started time.Time, steal0 int64) map[string]any {
	steal := int64(-1)
	if s := stealTicks(); s >= 0 && steal0 >= 0 {
		steal = s - steal0
	}
	return map[string]any{
		"steal_ticks": steal,
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"cpu":         cpuModel(),
		"commit":      commit(),
		"source":      sourceDigest(),
		"seed":        o.seed,
		"seconds":     o.seconds,
		"run_s":       time.Since(started).Seconds(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the repository's Go sources and testdata, so runs of
// a checkout without VCS metadata still name the code they measured.
func sourceDigest() string {
	h := sha256.New()
	var paths []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // unreadable entries are skipped
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod") || strings.HasPrefix(path, "testdata"+string(filepath.Separator))) {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// loadFingerprints reads every run record of a results directory, keyed by
// "workload seed=N".
func loadFingerprints(dir string) (map[string][]fingerprint, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]fingerprint{}
	for _, f := range files {
		if strings.HasSuffix(f, ".spans.json") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec struct {
			Workload    string        `json:"workload"`
			Seed        int64         `json:"seed"`
			Fingerprint []fingerprint `json:"fingerprint"`
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		key := fmt.Sprintf("%s seed=%d", rec.Workload, rec.Seed)
		out[key] = mergeFingerprints(out[key], rec.Fingerprint)
	}
	return out, nil
}

// mergeFingerprints adds the units of b that a lacks, and the kernel counts
// b observed where a did not.
func mergeFingerprints(a, b []fingerprint) []fingerprint {
	idx := map[int]int{}
	for i, f := range a {
		idx[f.Unit] = i
	}
	for _, f := range b {
		i, ok := idx[f.Unit]
		if !ok {
			idx[f.Unit] = len(a)
			a = append(a, f)
			continue
		}
		if a[i].Events == 0 {
			a[i].Events, a[i].Spawns = f.Events, f.Spawns
		}
	}
	return a
}

// modelChanges compares a run's fingerprints with the records earlier runs
// of the same workload and seed left in dir.
func modelChanges(dir, workload string, seed int64, fp []fingerprint) []string {
	prev, err := loadFingerprints(dir)
	if err != nil {
		return []string{err.Error()}
	}
	return diffFingerprints(fp, prev[fmt.Sprintf("%s seed=%d", workload, seed)])
}

func diffLine(unit int, field string, a, b any) string {
	return fmt.Sprintf("unit %d %s: %v vs %v", unit, field, a, b)
}
