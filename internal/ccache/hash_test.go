package ccache

import (
	"encoding/binary"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"specrecon/internal/core"
	"specrecon/internal/corpus"
	"specrecon/internal/ir"
	"specrecon/internal/workloads"
)

// decoder reads appendModule's encoding back. It exists to show the
// encoding is injective the direct way: what can be decoded to the
// module it came from cannot have come from any other.
type decoder struct {
	t   *testing.T
	buf []byte
}

func (d *decoder) uint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.t.Fatalf("bad uvarint at %d bytes from the end", len(d.buf))
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) int() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.t.Fatalf("bad varint at %d bytes from the end", len(d.buf))
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) byte() byte {
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) str() string {
	n := d.uint()
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) instr() ir.Instr {
	in := ir.Instr{Op: ir.Opcode(d.byte()), Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}
	has := d.byte()
	if has&hasDst != 0 {
		in.Dst = ir.Reg(d.int())
	}
	if has&hasA != 0 {
		in.A = ir.Reg(d.int())
	}
	if has&hasB != 0 {
		in.B = ir.Reg(d.int())
	}
	if has&hasC != 0 {
		in.C = ir.Reg(d.int())
	}
	in.BImm = has&hasBImm != 0
	if has&hasImm != 0 {
		in.Imm = d.int()
	}
	if has&hasBar != 0 {
		in.Bar = int(d.int())
	}
	if has&hasFImmCallee != 0 {
		in.FImm = math.Float64frombits(bits.ReverseBytes64(d.uint()))
		in.Callee = d.str()
	}
	return in
}

func (d *decoder) module() *ir.Module {
	m := &ir.Module{Name: d.str(), MemWords: int(d.int()), SharedWords: int(d.int())}
	for nf := d.uint(); nf > 0; nf-- {
		f := m.NewFunction(d.str())
		f.NRegs, f.NFRegs = int(d.int()), int(d.int())
		nblocks, npreds := int(d.uint()), int(d.uint())
		for i := 0; i < nblocks; i++ {
			f.NewBlock("")
		}
		ref := func() *ir.Block {
			if i := d.int(); i >= 0 {
				return f.Blocks[i]
			}
			return nil
		}
		for _, b := range f.Blocks {
			b.Name = d.str()
			for n := d.uint(); n > 0; n-- {
				b.Succs = append(b.Succs, ref())
			}
			for n := d.uint(); n > 0; n-- {
				b.Instrs = append(b.Instrs, d.instr())
			}
		}
		for ; npreds > 0; npreds-- {
			f.Predictions = append(f.Predictions, ir.Prediction{At: ref(), Label: ref(), Callee: d.str(), Threshold: int(d.int())})
		}
	}
	if len(d.buf) != 0 {
		d.t.Fatalf("%d bytes left over", len(d.buf))
	}
	return m
}

// TestKeyEncodingDecodes: every module of the corpus, the bundled
// workloads and their compiled forms decodes from its key encoding to a
// module deeply equal to itself — field for field, edge for edge.
func TestKeyEncodingDecodes(t *testing.T) {
	var mods []*ir.Module
	for _, a := range corpus.Generate(300, 42) {
		mods = append(mods, a.Module)
	}
	for _, w := range workloads.All() {
		mods = append(mods, w.Build(workloads.BuildConfig{Seed: 42}).Module)
	}
	for _, m := range mods { // the inputs only: range fixed its bounds first
		c, err := core.Compile(m, core.SpecReconOptions())
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, c.Module)
	}
	for _, m := range mods {
		// Parse and Clone build their slices differently (nil or empty,
		// spare capacity); a clone of each side puts both in one form.
		want := m.Clone()
		got := (&decoder{t: t, buf: appendModule(nil, m)}).module().Clone()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded module differs:\n%s\nvs\n%s", m.Name, ir.Print(got), ir.Print(want))
		}
	}
}

// TestKeyFieldsAreSelfDelimiting: moving a byte from one string field to
// the next, or starting a string with a byte that reads as a length,
// changes the key.
func TestKeyFieldsAreSelfDelimiting(t *testing.T) {
	m := corpus.Generate(1, 42)[0].Module
	opts := core.BaselineOptions()
	named := func(name string) *ir.Module {
		c := m.Clone()
		c.Name = name
		return c
	}
	keys := map[[32]byte]string{}
	add := func(what string, k [32]byte) {
		if prev, dup := keys[k]; dup {
			t.Errorf("%s and %s share a key", prev, what)
		}
		keys[k] = what
	}
	add(`("ab","c")`, key("ab", "c", opts, m))
	add(`("a","bc")`, key("a", "bc", opts, m))
	add(`("abc","")`, key("abc", "", opts, m))
	add(`("","abc")`, key("", "abc", opts, m))
	add(`("\x02ab","c")`, key("\x02ab", "c", opts, m))
	add(`name "k"`, key("v", "p", opts, named("k")))
	add(`name "\x01k"`, key("v", "p", opts, named("\x01k")))
	add(`spec "p\x01", name "k"`, key("v", "p\x01", opts, named("k")))
}

// TestCompSizeIsThePrintedLength: an entry is charged what ir.Print
// would return, measured without building it.
func TestCompSizeIsThePrintedLength(t *testing.T) {
	c, err := core.Diagnose(workloads.All()[0].Build(workloads.BuildConfig{Seed: 42}).Module, core.SpecReconOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := printedLen(c.Module), len(ir.Print(c.Module)); got != want {
		t.Errorf("printedLen = %d, len(ir.Print) = %d", got, want)
	}
	if RaceEnabled {
		return
	}
	compSize(c) // warm the pooled buffer
	if allocs := testing.AllocsPerRun(50, func() { compSize(c) }); allocs != 0 {
		t.Errorf("compSize: %v allocs per call, want 0", allocs)
	}
}
