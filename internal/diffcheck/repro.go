package diffcheck

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"specrecon/internal/core"
	"specrecon/internal/ir"
	"specrecon/internal/simt"
)

// maxReproMemWords caps how many nonzero memory words a repro records;
// corpus kernels carry lookup tables, and a repro is meant to be read by
// a human before it is replayed.
const maxReproMemWords = 4096

// directive is one `; repro-<key>: <value>` header line of a repro: the
// field of the kernel's launch configuration or of the replay environment
// (the injected fault, the schedule — a repro of a schedule-dependent
// failure is only a repro under the schedule that exposed it) it records.
// WriteRepro and LoadRepro both walk the directives table, so a new
// replayed field is one more row.
type directive struct {
	key string
	// values is what WriteRepro records under key, one line each: nothing
	// for a field holding the value LoadRepro starts from. An empty value
	// is written as the bare key.
	values func(k *Kernel, o *Options) []string
	// parse applies one recorded value; nil for a line that is only read
	// by people.
	parse func(v string, k *Kernel, o *Options) error
}

// when returns v, formatted, as the one value of a directive that is
// recorded only if cond holds.
func when(cond bool, v any) []string {
	if !cond {
		return nil
	}
	return []string{fmt.Sprint(v)}
}

// count parses a directive's non-negative integer value into dst.
func count(v string, dst *int) (err error) {
	if *dst, err = strconv.Atoi(v); err == nil && *dst < 0 {
		err = fmt.Errorf("negative value %d", *dst)
	}
	return err
}

// set returns a function that stores a parsed value in dst and passes
// the parse error on: set(&dst)(strconv.ParseInt(v, 10, 64)).
func set[T any](dst *T) func(T, error) error {
	return func(v T, err error) error { *dst = v; return err }
}

var directives = []directive{
	{"grid", func(k *Kernel, _ *Options) []string { return when(k.Grid > 0, k.Grid) },
		func(v string, k *Kernel, _ *Options) error { return count(v, &k.Grid) }},
	{"ctasize", func(k *Kernel, _ *Options) []string { return when(k.Grid > 0, k.CTASize) },
		func(v string, k *Kernel, _ *Options) error { return count(v, &k.CTASize) }},
	{"sms", func(k *Kernel, _ *Options) []string { return when(k.Grid > 0, k.SMs) },
		func(v string, k *Kernel, _ *Options) error { return count(v, &k.SMs) }},
	{"threads", func(k *Kernel, _ *Options) []string { return when(k.Grid <= 0, k.Threads) },
		func(v string, k *Kernel, _ *Options) error { return count(v, &k.Threads) }},
	{"seed", func(k *Kernel, _ *Options) []string { return when(true, k.Seed) },
		func(v string, k *Kernel, _ *Options) (err error) { k.Seed, err = strconv.ParseUint(v, 10, 64); return }},
	{"entry", func(k *Kernel, _ *Options) []string { return when(k.Entry != "", k.Entry) },
		func(v string, k *Kernel, _ *Options) error { k.Entry = v; return nil }},
	{"fault", func(_ *Kernel, o *Options) []string { spec := faultSpec(*o); return when(spec != "", spec) },
		func(v string, _ *Kernel, o *Options) (err error) {
			o.Faults, o.SkipReleaseN, err = ParseFault(v)
			return
		}},
	// A threshold reads as specrecon's -threshold: 0 is the hard barrier.
	{"threshold", func(_ *Kernel, o *Options) []string {
		return when(o.ThresholdOverride != 0, max(0, o.ThresholdOverride))
	},
		func(v string, _ *Kernel, o *Options) error {
			err := count(v, &o.ThresholdOverride)
			if o.ThresholdOverride == 0 {
				o.ThresholdOverride = -1
			}
			return err
		}},
	// Dynamic, the paper's mode, is the zero mode.
	{"deconflict", func(_ *Kernel, o *Options) []string { return when(o.Deconflict != 0, o.Deconflict) },
		func(v string, _ *Kernel, o *Options) error {
			for _, d := range []core.DeconflictMode{core.DeconflictDynamic, core.DeconflictStatic, core.DeconflictNone} {
				if o.Deconflict = d; d.String() == v {
					return nil
				}
			}
			return fmt.Errorf("unknown deconfliction mode %q", v)
		}},
	// LoadRepro starts from AutoAnnotate on, as every campaign checks.
	{"auto-annotate", func(_ *Kernel, o *Options) []string { return when(!o.AutoAnnotate, false) },
		func(v string, _ *Kernel, o *Options) (err error) { o.AutoAnnotate, err = strconv.ParseBool(v); return }},
	{"verify", func(_ *Kernel, o *Options) []string { return when(o.Verify, true) },
		func(v string, _ *Kernel, o *Options) (err error) { o.Verify, err = strconv.ParseBool(v); return }},
	{"repair", func(_ *Kernel, o *Options) []string { return when(o.Repair, true) },
		func(v string, _ *Kernel, o *Options) (err error) { o.Repair, err = strconv.ParseBool(v); return }},
	{"sched", func(_ *Kernel, o *Options) []string { return when(o.Sched != simt.SchedGreedyConverge, o.Sched) },
		func(v string, _ *Kernel, o *Options) (err error) { o.Sched, err = simt.ParseSchedPolicy(v); return }},
	{"sched-seed", func(_ *Kernel, o *Options) []string { return when(o.Sched == simt.SchedRandom, o.SchedSeed) },
		func(v string, _ *Kernel, o *Options) error { return set(&o.SchedSeed)(strconv.ParseUint(v, 10, 64)) }},
	{"policy", func(_ *Kernel, o *Options) []string { return when(o.Policy != simt.PolicyMaxGroup, o.Policy) },
		func(v string, _ *Kernel, o *Options) (err error) { o.Policy, err = simt.ParsePolicy(v); return }},
	{"starve-limit", func(_ *Kernel, o *Options) []string { return when(o.StarveLimit > 0, o.StarveLimit) },
		func(v string, _ *Kernel, o *Options) error { return set(&o.StarveLimit)(strconv.ParseInt(v, 10, 64)) }},
	{"max-issues", func(_ *Kernel, o *Options) []string { return when(o.MaxIssues > 0, o.MaxIssues) },
		func(v string, _ *Kernel, o *Options) error { return set(&o.MaxIssues)(strconv.ParseInt(v, 10, 64)) }},
	{"wall-budget", func(_ *Kernel, o *Options) []string { return when(o.WallBudget > 0, o.WallBudget) },
		func(v string, _ *Kernel, o *Options) (err error) { o.WallBudget, err = time.ParseDuration(v); return }},
	// The memory image: its length, then its nonzero words.
	{"memwords", func(k *Kernel, _ *Options) []string { return when(k.Memory != nil, len(k.Memory)) },
		func(v string, k *Kernel, _ *Options) error {
			var n int
			if err := count(v, &n); err != nil || n == 0 {
				return err
			}
			k.Memory = make([]uint64, n)
			return nil
		}},
	{"mem", func(k *Kernel, _ *Options) []string { words, _ := reproMem(k.Memory); return words },
		func(v string, k *Kernel, _ *Options) error {
			is, vs, _ := strings.Cut(v, "=")
			i, err := strconv.Atoi(is)
			if err != nil {
				return err
			}
			w, err := strconv.ParseUint(vs, 0, 64)
			if err == nil && i >= 0 && i < len(k.Memory) {
				k.Memory[i] = w
			}
			return err
		}},
	{"mem-truncated", func(k *Kernel, _ *Options) []string { _, more := reproMem(k.Memory); return when(more, "") }, nil},
}

// reproMem renders the nonzero words of mem as index=value pairs, the
// first maxReproMemWords of them, and reports whether there were more.
func reproMem(mem []uint64) (words []string, more bool) {
	for i, w := range mem {
		if w == 0 {
			continue
		}
		if len(words) == maxReproMemWords {
			return words, true
		}
		words = append(words, fmt.Sprintf("%d=%#x", i, w))
	}
	return words, false
}

// WriteRepro writes a standalone .sasm reproducer for a failed check to
// dir and returns its path. The file is the kernel's assembly prefixed
// with the observed failure and the `; repro-*` directives, so LoadRepro
// — and `specrecon -diffcheck <file>` — can replay it without the
// generating campaign.
//
// The filename is deterministic (name, stage, and a hash of the module
// text), so re-running a campaign over the same corpus overwrites
// rather than accumulates.
func WriteRepro(dir string, k Kernel, opts Options, res Result) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; repro: kernel=%s stage=%s\n", k.Name, res.Stage)
	if res.Err != nil {
		msg, _, _ := strings.Cut(res.Err.Error(), "\n")
		fmt.Fprintf(&sb, "; repro-err: %s\n", msg)
	}
	for _, d := range directives {
		for _, v := range d.values(&k, &opts) {
			sb.WriteString("; repro-" + d.key)
			if v != "" {
				sb.WriteString(": " + v)
			}
			sb.WriteByte('\n')
		}
	}
	sb.WriteString(ir.Print(k.Module))

	h := fnv.New32a()
	h.Write([]byte(sb.String()))
	name := fmt.Sprintf("%s-%s-%08x.sasm", sanitize(k.Name), res.Stage, h.Sum32())

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// faultSpec renders the injected faults of opts as a ParseFault spec,
// or "" when the check ran unfaulted.
func faultSpec(opts Options) string {
	var terms []string
	if s := opts.Faults.String(); s != "none" {
		terms = append(terms, s)
	}
	if opts.SkipReleaseN > 0 {
		terms = append(terms, fmt.Sprintf("skip-release@%d", opts.SkipReleaseN))
	}
	return strings.Join(terms, "+")
}

func sanitize(name string) string {
	if name == "" {
		return "kernel"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, name)
}

// LoadRepro reads a .sasm file written by WriteRepro (or any plain
// module listing) and reconstructs the kernel plus the options it was
// checked under, as far as the directives record them. Plain listings
// get one warp, seed 0, no fault, the reference schedulers, the default
// budgets and compile options, and the auto-annotation every campaign
// checks under. A
// directive whose value does not parse is an error naming its line; a
// `repro-*` key the table does not have is skipped, so a repro written
// by a newer tree loads.
func LoadRepro(path string) (Kernel, Options, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Kernel{}, Options{}, err
	}
	src := string(data)

	k := Kernel{
		Name:    strings.TrimSuffix(filepath.Base(path), ".sasm"),
		Threads: ir.WarpWidth,
	}
	opts := Options{AutoAnnotate: true}
	for n, line := range strings.Split(src, "\n") {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), "; repro-")
		if !ok {
			continue
		}
		key, val, _ := strings.Cut(rest, ":")
		for _, d := range directives {
			if d.key != key || d.parse == nil {
				continue
			}
			if err := d.parse(strings.TrimSpace(val), &k, &opts); err != nil {
				return Kernel{}, Options{}, fmt.Errorf("%s:%d: repro-%s: %w", path, n+1, key, err)
			}
		}
	}
	if k.Module, err = ir.Parse(src); err != nil {
		return Kernel{}, Options{}, fmt.Errorf("%s: %w", path, err)
	}
	return k, opts, nil
}
