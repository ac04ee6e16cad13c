package diffcheck

import (
	"fmt"
	"strconv"
	"strings"

	"specrecon/internal/core"
	"specrecon/internal/ir"
)

// MatrixKernel builds the canonical fault-injection target: the paper's
// Listing 1 loop (a divergent expensive path predicted to reconverge at
// the loop tail) with 16 iterations. Its speculative build exercises
// every barrier kind — the speculative barrier, the orthogonal exit
// barrier, the PDOM barrier the deconfliction cancel protects — so each
// perturbation in the matrix has a target and a consequence.
func MatrixKernel() Kernel {
	const iters = 16
	m := ir.NewModule("listing1")
	m.MemWords = 4096
	f := m.NewFunction("kernel")
	b := ir.NewBuilder(f)

	entry := f.NewBlock("entry")
	header := f.NewBlock("header")
	prolog := f.NewBlock("prolog")
	expensive := f.NewBlock("expensive")
	epilog := f.NewBlock("epilog")
	done := f.NewBlock("done")

	b.SetBlock(entry)
	tid := b.Tid()
	i := b.Reg()
	b.ConstTo(i, 0)
	acc := b.FReg()
	b.FConstTo(acc, 0)
	nReg := b.Const(iters)
	b.Predict(expensive)
	b.Br(header)

	b.SetBlock(header)
	cond := b.SetLT(i, nReg)
	b.CBr(cond, prolog, done)

	b.SetBlock(prolog)
	p := b.ItoF(i)
	p = b.FAddI(p, 1.25)
	b.FMovTo(acc, b.FAdd(acc, p))
	r := b.FRand()
	take := b.FSetLTI(r, 0.2)
	b.CBr(take, expensive, epilog)

	b.SetBlock(expensive)
	x := b.FAddI(acc, 0.5)
	for k := 0; k < 2; k++ {
		x = b.FMA(x, x, p)
		x = b.FSqrt(b.FAbs(x))
	}
	b.FMovTo(acc, b.FAdd(acc, x))
	b.Br(epilog)

	b.SetBlock(epilog)
	b.MovTo(i, b.AddI(i, 1))
	b.Br(header)

	b.SetBlock(done)
	b.FStore(tid, 0, acc)
	b.Exit()

	return Kernel{Name: "listing1-matrix", Module: m, Threads: 64, Seed: 1}
}

// Fault is one entry of the injection matrix: a named perturbation plus
// the layers expected to catch it. Every entry must be caught somewhere;
// the Want flags pin down exactly where, so a regression that silently
// narrows the detection surface fails the enumerating test.
type Fault struct {
	// Name is the parseable spec (ParseFault round-trips it).
	Name        string
	Description string
	Plan        core.FaultPlan
	// SkipReleaseN is the simulator-layer fault (lost barrier release).
	SkipReleaseN int64
	// WantStatic: the barrier-safety verifier must reject the faulted
	// build before it ever runs.
	WantStatic bool
	// WantDynamic: the differential checker (verifier off) must catch it
	// at runtime — deadlock, leaked participation, budget, or wrong
	// results.
	WantDynamic bool
	// WantRepaired: the automated-repair pipeline must fix the faulted
	// build (re-verification clean). Statically-caught faults without it
	// are unrepairable by design and must fall back to PDOM — the repair
	// campaign checks both directions.
	WantRepaired bool
}

// FaultMatrix enumerates the perturbations the robustness layer is
// tested against. drop-wait, drop-join and drop-rejoin are semantically
// quiet at runtime on this kernel (the region's exit cancels clean up
// behind them), which is precisely why the static verifier exists; the
// deadlock-shaped faults are caught by both layers; skip-release lives
// below the compiler and only the differential checker can see it.
func FaultMatrix() []Fault {
	return []Fault{
		{
			Name:        "drop-cancel@1",
			Description: "lose the deconfliction cancel: the PDOM and speculative live ranges conflict again (§4.3)",
			Plan:        core.FaultPlan{DropCancel: 1},
			WantStatic:  true, WantDynamic: true, WantRepaired: true,
		},
		{
			Name:        "drop-cancel@2",
			Description: "lose a region-exit cancel: lanes exit the kernel still participating in the speculative barrier",
			Plan:        core.FaultPlan{DropCancel: 2},
			WantStatic:  true, WantDynamic: true, WantRepaired: true,
		},
		{
			// The matrix's designated unrepairable fault: SR1003 carries no
			// machine edit (the lost wait's sound position is the region's
			// reconvergence point, which the diagnostic cannot
			// reconstruct), so repair gives up and the build falls back.
			Name:        "drop-wait@1",
			Description: "lose a WaitBarrier: its joins are cleaned up by the exit cancels, so only pairing analysis sees it",
			Plan:        core.FaultPlan{DropWait: 1},
			WantStatic:  true,
		},
		{
			Name:        "drop-join@1",
			Description: "lose a JoinBarrier: the matching wait releases an empty cohort — quiet at runtime",
			Plan:        core.FaultPlan{DropJoin: 1},
			WantStatic:  true, WantRepaired: true,
		},
		{
			Name:        "drop-rejoin@1",
			Description: "lose the RejoinBarrier after a loop-carried wait (§4.2 rejoin discipline)",
			Plan:        core.FaultPlan{DropRejoin: 1},
			WantStatic:  true, WantRepaired: true,
		},
		{
			Name:        "swap-waits",
			Description: "swap the barrier registers of the first two waits, crossing the release pairing",
			Plan:        core.FaultPlan{SwapWaits: true},
			WantStatic:  true, WantDynamic: true, WantRepaired: true,
		},
		{
			Name:        "skip-conflict@1",
			Description: "deconfliction skips the first conflict it finds: the overlap of Figure 5 deadlocks",
			Plan:        core.FaultPlan{SkipConflict: 1},
			WantStatic:  true, WantDynamic: true, WantRepaired: true,
		},
		{
			Name:         "skip-release@1",
			Description:  "the simulator loses the first barrier-cohort release: invisible to the compiler, fatal at runtime",
			SkipReleaseN: 1,
			WantDynamic:  true,
		},
	}
}

// ParseFault parses a fault spec covering both layers: the compile-layer
// terms of core.ParseFaultPlan plus "skip-release@N" for the simulator
// fault, combined with "+".
func ParseFault(spec string) (core.FaultPlan, int64, error) {
	var skipRelease int64
	var compileTerms []string
	for _, term := range strings.Split(spec, "+") {
		term = strings.TrimSpace(term)
		name, n := term, 1
		if at := strings.IndexByte(term, '@'); at >= 0 {
			name = term[:at]
			v, err := strconv.Atoi(term[at+1:])
			if err != nil || v < 1 {
				return core.FaultPlan{}, 0, fmt.Errorf("fault %q: ordinal must be a positive integer", term)
			}
			n = v
		}
		if name == "skip-release" {
			if skipRelease != 0 {
				return core.FaultPlan{}, 0, fmt.Errorf("fault %q: skip-release given twice", spec)
			}
			skipRelease = int64(n)
			continue
		}
		compileTerms = append(compileTerms, term)
	}
	plan, err := core.ParseFaultPlan(strings.Join(compileTerms, "+"))
	if err != nil {
		return core.FaultPlan{}, 0, err
	}
	return plan, skipRelease, nil
}

// MatrixOutcome records how one fault of the matrix fared against both
// detection layers.
type MatrixOutcome struct {
	Fault Fault
	// StaticErr is the static verifier's rejection (nil: accepted).
	StaticErr error
	// Dynamic is the differential checker's result with the verifier off.
	Dynamic Result
}

// Detected reports whether any layer caught the fault.
func (o MatrixOutcome) Detected() bool {
	return o.StaticErr != nil || !o.Dynamic.OK
}

// ExpectationMet reports whether detection matches the fault's Want
// flags exactly — both missed detections and surprise detections fail,
// so the matrix stays an accurate map of the detection surface.
func (o MatrixOutcome) ExpectationMet() bool {
	return (o.StaticErr != nil) == o.Fault.WantStatic &&
		!o.Dynamic.OK == o.Fault.WantDynamic
}

// RunMatrix evaluates every fault in the matrix against MatrixKernel:
// once through the fail-safe pipeline (static layer) and once through
// the differential checker with the verifier off (dynamic layer).
func RunMatrix() []MatrixOutcome {
	k := MatrixKernel()
	out := make([]MatrixOutcome, 0, len(FaultMatrix()))
	for _, f := range FaultMatrix() {
		var staticErr error
		if f.SkipReleaseN == 0 {
			// Simulator-layer faults are invisible to the compiler by
			// construction; running the verifier would only prove the
			// unfaulted build clean.
			opts := core.SpecReconOptions()
			opts.Faults = f.Plan
			_, staticErr = core.CompilePipeline(k.Module, opts, core.SafePipelineFor(opts))
		}
		dyn := Check(k, Options{Faults: f.Plan, SkipReleaseN: f.SkipReleaseN})
		out = append(out, MatrixOutcome{Fault: f, StaticErr: staticErr, Dynamic: dyn})
	}
	return out
}
