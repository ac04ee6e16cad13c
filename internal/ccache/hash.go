package ccache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sync"

	"specrecon/internal/core"
	"specrecon/internal/ir"
)

// The cache key must hash the module's full semantic content on every
// lookup — that is what content addressing means — and a lookup that
// hits does nothing else, so the key is the whole cost of a hit. key
// encodes (variant, pipeline spec, options fingerprint, module) into one
// pooled buffer and hashes it with a single sha256.Sum256.
//
// The encoding is a fixed grammar of self-delimiting fields: an integer
// is a varint (zigzag when signed), which no other varint prefixes; a
// string is its length as a varint, then its bytes; a sequence is its
// count, then its elements; an instruction is its opcode, a byte saying
// which fields are not at their default, then those fields. A decoder
// can therefore read the fields back one by one without ambiguity
// (hash_test.go has one), so two inputs that differ in any field — or in
// where one string ends and the next begins — differ in their bytes: the
// encoding is injective over (name, geometry, every instruction field,
// successor edges, predictions), which covers what ir.Print writes and
// ir.Parse reads back. Small values dominate IR (register numbers,
// NoReg, zero immediates, empty callees), so an instruction is about
// five bytes.

// encoder is the pooled scratch of key and printedLen.
type encoder struct {
	buf []byte
}

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

func appendStr(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// Presence bits of an encoded instruction: a field whose bit is clear
// holds its default (NoReg for a register, zero otherwise) and takes no
// bytes. hasBImm is the BImm flag itself. Float immediates and callees
// are rare and share one bit.
const (
	hasDst = 1 << iota
	hasA
	hasB
	hasC
	hasBImm
	hasImm
	hasBar
	hasFImmCallee
)

// appendInstr encodes one instruction: opcode byte, presence byte, then
// the present fields in the order of the bits.
func appendInstr(buf []byte, in *ir.Instr) []byte {
	at := len(buf) + 1
	buf = append(buf, byte(in.Op), 0)
	var has byte
	if in.Dst != ir.NoReg {
		has |= hasDst
		buf = binary.AppendVarint(buf, int64(in.Dst))
	}
	if in.A != ir.NoReg {
		has |= hasA
		buf = binary.AppendVarint(buf, int64(in.A))
	}
	if in.B != ir.NoReg {
		has |= hasB
		buf = binary.AppendVarint(buf, int64(in.B))
	}
	if in.C != ir.NoReg {
		has |= hasC
		buf = binary.AppendVarint(buf, int64(in.C))
	}
	if in.BImm {
		has |= hasBImm
	}
	if in.Imm != 0 {
		has |= hasImm
		buf = binary.AppendVarint(buf, in.Imm)
	}
	if in.Bar != 0 {
		has |= hasBar
		buf = binary.AppendVarint(buf, int64(in.Bar))
	}
	if fimm := math.Float64bits(in.FImm); fimm != 0 || in.Callee != "" {
		has |= hasFImmCallee
		// A float's set bits sit at the top (sign, exponent, leading
		// mantissa); byte-reversed they make a short varint.
		buf = binary.AppendUvarint(buf, bits.ReverseBytes64(fimm))
		buf = appendStr(buf, in.Callee)
	}
	buf[at] = has
	return buf
}

// appendModule appends the canonical encoding of m. A block reference
// is the block's position in its function (ir.Function.IndexOf: read off
// Block.Index where that is current, searched for where it is stale), -1
// for nil and foreign blocks, which the verifier rejects anyway.
func appendModule(buf []byte, m *ir.Module) []byte {
	buf = appendStr(buf, m.Name)
	buf = binary.AppendVarint(buf, int64(m.MemWords))
	buf = binary.AppendVarint(buf, int64(m.SharedWords))
	buf = binary.AppendUvarint(buf, uint64(len(m.Funcs)))
	for _, f := range m.Funcs {
		buf = appendStr(buf, f.Name)
		buf = binary.AppendVarint(buf, int64(f.NRegs))
		buf = binary.AppendVarint(buf, int64(f.NFRegs))
		buf = binary.AppendUvarint(buf, uint64(len(f.Blocks)))
		buf = binary.AppendUvarint(buf, uint64(len(f.Predictions)))
		for _, b := range f.Blocks {
			buf = appendStr(buf, b.Name)
			buf = binary.AppendUvarint(buf, uint64(len(b.Succs)))
			for _, s := range b.Succs {
				buf = binary.AppendVarint(buf, int64(f.IndexOf(s)))
			}
			buf = binary.AppendUvarint(buf, uint64(len(b.Instrs)))
			for i := range b.Instrs {
				buf = appendInstr(buf, &b.Instrs[i])
			}
		}
		for _, p := range f.Predictions {
			buf = binary.AppendVarint(buf, int64(f.IndexOf(p.At)))
			buf = binary.AppendVarint(buf, int64(f.IndexOf(p.Label)))
			buf = appendStr(buf, p.Callee)
			buf = binary.AppendVarint(buf, int64(p.Threshold))
		}
	}
	return buf
}

// key hashes everything that determines a compilation's output: a
// variant tag separating the entry points, the pass pipeline spec, the
// memoized options fingerprint, and the module. It allocates nothing
// once the pool is warm.
func key(variant, pipeSpec string, opts core.Options, m *ir.Module) [sha256.Size]byte {
	e := encoderPool.Get().(*encoder)
	buf := appendStr(e.buf[:0], variant)
	buf = appendStr(buf, pipeSpec)
	buf = appendStr(buf, optionsFingerprint(opts))
	buf = appendModule(buf, m)
	k := sha256.Sum256(buf)
	e.buf = buf
	encoderPool.Put(e)
	return k
}

// printedLen returns len(ir.Print(m)) without building the string: the
// module is printed into the pooled buffer and measured there.
func printedLen(m *ir.Module) int {
	e := encoderPool.Get().(*encoder)
	e.buf = ir.AppendModule(e.buf[:0], m)
	n := len(e.buf)
	encoderPool.Put(e)
	return n
}

// optionsFingerprint canonicalizes opts: every field, nested structs
// included, in declaration order and in the key's own self-delimiting
// encoding, so a field added to Options is keyed without a change here.
// It reflects over every field, so the rendering is memoized per
// distinct value (sweeps use a handful: one per threshold point). Every
// key takes this path, hits included, from every harness worker at
// once, so a memoized value costs one shared read lock. The map is
// capped as a precaution; past the cap, unseen values render directly.
func optionsFingerprint(opts core.Options) string {
	optsFPMu.RLock()
	s, ok := optsFP[opts]
	optsFPMu.RUnlock()
	if ok {
		return s
	}
	s = string(appendValue(nil, reflect.ValueOf(opts)))
	optsFPMu.Lock()
	if len(optsFP) < 4096 {
		optsFP[opts] = s
	}
	optsFPMu.Unlock()
	return s
}

var (
	optsFPMu sync.RWMutex
	optsFP   = map[core.Options]string{}
)

func appendValue(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(buf, 1)
		}
		return append(buf, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(buf, v.Int())
	case reflect.String:
		return appendStr(buf, v.String())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			buf = appendValue(buf, v.Field(i))
		}
		return buf
	}
	panic(fmt.Sprintf("ccache: core.Options holds a %s, which the cache key cannot encode", v.Kind()))
}
