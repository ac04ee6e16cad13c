// Package telemetry is the run ledger: one JSON record per invocation
// of figures, sasmvet or diffhunt (cli.App.Record behind the -ledger
// flags), appended to a JSONL file that `perf ledger` (cmd/perf) gates
// regressions on. A record carries enough identity to compare runs
// across commits — the git revision, a fingerprint of the run's
// configuration — plus a flat map of what the run itself counted: wall
// time, compile-cache hits and misses, campaign counts. Appends are
// O_APPEND single writes, so concurrent tools interleave whole records.
package telemetry

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// RunRecord is one ledger line.
type RunRecord struct {
	// Time is the RFC 3339 timestamp of the run (NowRFC3339).
	Time string `json:"time,omitempty"`
	// Tool identifies the appender: "figures", "sasmvet", "diffhunt-sched"...
	Tool string `json:"tool"`
	// GitRev is the short revision of the working tree (GitRev; may be
	// "unknown" outside a checkout).
	GitRev string `json:"git_rev,omitempty"`
	// Config fingerprints the run's configuration (Fingerprint), so
	// perf ledger only compares like with like.
	Config string `json:"config,omitempty"`
	// Note is free-form context ("nightly", "pre-refactor").
	Note string `json:"note,omitempty"`
	// Metrics is the flat metric map; perf ledger gates on ratios of
	// these between consecutive records.
	Metrics map[string]float64 `json:"metrics"`
}

// NowRFC3339 formats the current UTC time for RunRecord.Time.
func NowRFC3339() string { return time.Now().UTC().Format(time.RFC3339) }

// GitRev returns the working tree's short revision via git rev-parse,
// or "unknown" when git or the repository is unavailable — a ledger
// record is still useful without one.
func GitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Fingerprint hashes v's JSON encoding into a short hex string; ledger
// records carry it so runs under different configurations are never
// compared against each other.
func Fingerprint(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprint(v))
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:6])
}

// AppendRecord appends rec to the JSONL ledger at path (created with
// its parent assumed to exist), one compact JSON object per line.
func AppendRecord(path string, rec RunRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("telemetry: encoding ledger record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("telemetry: opening ledger: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("telemetry: appending ledger record: %w", err)
	}
	return f.Close()
}

// ReadLedger parses every record in the JSONL ledger at path, oldest
// first. Blank lines are skipped; a malformed line is an error naming
// its line number.
func ReadLedger(path string) ([]RunRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: opening ledger: %w", err)
	}
	defer f.Close()
	var recs []RunRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("telemetry: %s:%d: malformed ledger record: %w", path, lineNo, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading ledger: %w", err)
	}
	return recs, nil
}
