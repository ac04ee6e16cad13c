package ir

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode"
)

// Parse reads a module in the textual format produced by Print. It is the
// inverse of Print up to formatting: Parse(Print(m)) yields a module that
// prints identically (a property verified by the round-trip tests).
//
// Every name and operand token is a slice of src, never a copy, so the
// returned module keeps src reachable.
func Parse(src string) (*Module, error) {
	p, _ := parsers.Get().(*parser)
	if p == nil {
		p = new(parser)
	}
	defer p.retire()
	p.src, p.off, p.pos = src, 0, 0
	m, err := p.module()
	if err != nil {
		return nil, fmt.Errorf("line %d: %w", p.pos, err)
	}
	if err := VerifyModule(m); err != nil {
		return nil, fmt.Errorf("parsed module fails verification: %w", err)
	}
	return m, nil
}

// parsers holds retired parsers, whose scratch the next Parse reads into.
var parsers sync.Pool

type parser struct {
	src string
	off int // offset in src of the first line not yet consumed
	pos int // 1-based line number of the line most recently consumed

	// The function being read collects here: its instructions in
	// order, its blocks and its successor names. At the closing brace
	// the function gets its slabs, and the scratch, cleared, serves the
	// next function and the next Parse.
	instrs []Instr
	blocks []pendingBlock
	succs  []pendingSuccs
	nedges int
	words  []string // what fields returned last
}

// clear empties the scratch, keeping its storage but no slice of src.
func (p *parser) clear() {
	clear(p.instrs)
	clear(p.blocks)
	clear(p.succs)
	clear(p.words)
	p.instrs, p.blocks, p.succs, p.words, p.nedges = p.instrs[:0], p.blocks[:0], p.succs[:0], p.words[:0], 0
}

// retire clears the parser and pools it for the next Parse.
func (p *parser) retire() {
	p.clear()
	p.src = ""
	parsers.Put(p)
}

// fields is strings.Fields(ln) in the parser's scratch, valid until the
// next call.
func (p *parser) fields(ln string) []string {
	p.words = p.words[:0]
	for {
		if ln = strings.TrimLeftFunc(ln, unicode.IsSpace); ln == "" {
			return p.words
		}
		i := strings.IndexFunc(ln, unicode.IsSpace)
		if i < 0 {
			i = len(ln)
		}
		p.words, ln = append(p.words, ln[:i]), ln[i:]
	}
}

// next returns the next non-empty, non-comment line, trimmed, or ok=false
// at end of input.
func (p *parser) next() (string, bool) {
	for p.off <= len(p.src) {
		ln := p.src[p.off:]
		if i := strings.IndexByte(ln, '\n'); i >= 0 {
			ln = ln[:i]
		}
		p.off += len(ln) + 1
		p.pos++
		if i := strings.IndexByte(ln, ';'); i >= 0 {
			ln = ln[:i]
		}
		ln = strings.TrimSpace(ln)
		if ln != "" {
			return ln, true
		}
	}
	return "", false
}

func (p *parser) module() (*Module, error) {
	ln, ok := p.next()
	if !ok {
		return nil, fmt.Errorf("empty input")
	}
	fields := p.fields(ln)
	if len(fields) < 2 || fields[0] != "module" {
		return nil, fmt.Errorf("expected 'module <name> ...', got %q", ln)
	}
	m := NewModule(fields[1])
	for _, kv := range fields[2:] {
		k, v, found := strings.Cut(kv, "=")
		if !found {
			return nil, fmt.Errorf("malformed module attribute %q", kv)
		}
		switch k {
		case "memwords":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("memwords: %v", err)
			}
			m.MemWords = n
		case "sharedwords":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("sharedwords: %v", err)
			}
			m.SharedWords = n
		default:
			return nil, fmt.Errorf("unknown module attribute %q", k)
		}
	}
	for {
		ln, ok := p.next()
		if !ok {
			break
		}
		if !strings.HasPrefix(ln, "func ") {
			return nil, fmt.Errorf("expected 'func', got %q", ln)
		}
		if err := p.function(m, ln); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// pendingPred is a prediction directive seen during the first pass, with
// block references still by name.
type pendingPred struct {
	at        string
	label     string
	callee    string
	threshold int
}

// pendingBlock is a block read so far: its label and the end of its
// instructions in parser.instrs, which start at the previous block's
// end.
type pendingBlock struct {
	name string
	end  int
}

// pendingSuccs records a block's successor names for the second pass.
type pendingSuccs struct {
	block int       // index in parser.blocks
	names [2]string // names[1] is empty for a one-way branch
}

// function reads one function into one []Block slab, one exact-size
// []Instr slab and one edge slab, the layout Function.Clone makes. Each
// block's instructions and successors are capped at its own end, so an
// append or InsertAt on one block moves that block alone to new storage.
func (p *parser) function(m *Module, header string) error {
	defer p.clear()
	fields := p.fields(strings.TrimSuffix(strings.TrimSpace(header), "{"))
	if len(fields) < 2 || !strings.HasPrefix(fields[1], "@") {
		return fmt.Errorf("malformed func header %q", header)
	}
	f := m.NewFunction(strings.TrimPrefix(fields[1], "@"))
	for _, kv := range fields[2:] {
		k, v, found := strings.Cut(kv, "=")
		if !found {
			return fmt.Errorf("malformed func attribute %q", kv)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("func attribute %s: %v", k, err)
		}
		switch k {
		case "nregs":
			f.NRegs = n
		case "nfregs":
			f.NFRegs = n
		default:
			return fmt.Errorf("unknown func attribute %q", k)
		}
	}

	var preds []pendingPred
	for {
		ln, ok := p.next()
		if !ok {
			return fmt.Errorf("unterminated function %q", f.Name)
		}
		if ln == "}" {
			break
		}
		if strings.HasSuffix(ln, ":") && !strings.Contains(ln, " ") {
			p.blocks = append(p.blocks, pendingBlock{name: strings.TrimSuffix(ln, ":"), end: len(p.instrs)})
			continue
		}
		cur := len(p.blocks) - 1
		if cur < 0 {
			return fmt.Errorf("instruction %q before any block label", ln)
		}
		if strings.HasPrefix(ln, ".predict") {
			pp, err := parsePredict(ln, p.blocks[cur].name)
			if err != nil {
				return err
			}
			preds = append(preds, pp)
			continue
		}
		in, succNames, err := parseInstr(ln)
		if err != nil {
			return fmt.Errorf("%q: %w", ln, err)
		}
		p.instrs = append(p.instrs, in)
		p.blocks[cur].end = len(p.instrs)
		if succNames[0] != "" {
			p.succs = append(p.succs, pendingSuccs{block: cur, names: succNames})
			p.nedges += 1 + min(len(succNames[1]), 1)
		}
	}

	blocks := make([]Block, len(p.blocks))
	f.Blocks = make([]*Block, len(p.blocks))
	instrs := make([]Instr, len(p.instrs))
	copy(instrs, p.instrs)
	lo := 0
	for i, pb := range p.blocks {
		blocks[i] = Block{Name: pb.name, Index: i}
		if pb.end > lo {
			blocks[i].Instrs = instrs[lo:pb.end:pb.end]
		}
		f.Blocks[i], lo = &blocks[i], pb.end
	}

	// Second pass: resolve successor and prediction block names. A
	// block's pending successors are consecutive, and so are its edges.
	edges := make([]*Block, 0, p.nedges)
	for i, ps := range p.succs {
		if i == 0 || p.succs[i-1].block != ps.block {
			lo = len(edges)
		}
		for _, name := range ps.names {
			if name == "" {
				break
			}
			t := f.BlockByName(name)
			if t == nil {
				return fmt.Errorf("func %q: undefined block %q", f.Name, name)
			}
			edges = append(edges, t)
		}
		blocks[ps.block].Succs = edges[lo:len(edges):len(edges)]
	}
	for _, pp := range preds {
		pred := Prediction{Threshold: pp.threshold, Callee: pp.callee}
		pred.At = f.BlockByName(pp.at)
		if pp.label != "" {
			pred.Label = f.BlockByName(pp.label)
			if pred.Label == nil {
				return fmt.Errorf("func %q: prediction label %q undefined", f.Name, pp.label)
			}
		}
		f.Predictions = append(f.Predictions, pred)
	}
	return nil
}

func parsePredict(ln, atBlock string) (pendingPred, error) {
	fields := strings.Fields(ln)
	pp := pendingPred{at: atBlock}
	if len(fields) < 2 {
		return pp, fmt.Errorf("malformed directive %q", ln)
	}
	switch fields[0] {
	case ".predict":
		pp.label = fields[1]
	case ".predictcall":
		pp.callee = strings.TrimPrefix(fields[1], "@")
	default:
		return pp, fmt.Errorf("unknown directive %q", fields[0])
	}
	for _, kv := range fields[2:] {
		k, v, found := strings.Cut(kv, "=")
		if !found || k != "threshold" {
			return pp, fmt.Errorf("malformed directive attribute %q", kv)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return pp, fmt.Errorf("threshold: %v", err)
		}
		pp.threshold = n
	}
	return pp, nil
}

// operands walks an instruction's comma-separated operand list. Operands
// are trimmed and empty ones skipped; each is a slice of the line.
type operands struct {
	mnemonic string
	rest     string // the operands not yet popped
}

// pop returns the next operand, ok=false when none is left.
func (o *operands) pop() (string, bool) {
	for o.rest != "" {
		t, rest, _ := strings.Cut(o.rest, ",")
		o.rest = rest
		if t = strings.TrimSpace(t); t != "" {
			return t, true
		}
	}
	return "", false
}

// need is pop for a required operand.
func (o *operands) need() (string, error) {
	t, ok := o.pop()
	if !ok {
		return "", fmt.Errorf("missing operand for %s", o.mnemonic)
	}
	return t, nil
}

// remaining lists the operands not yet popped, without popping them.
func (o operands) remaining() []string {
	var toks []string
	for t, ok := o.pop(); ok; t, ok = o.pop() {
		toks = append(toks, t)
	}
	return toks
}

// reg parses a register operand of the given file.
func (o *operands) reg(file regFile) (Reg, error) {
	t, err := o.need()
	if err != nil {
		return NoReg, err
	}
	want := byte('r')
	if file == fileFloat {
		want = 'f'
	}
	if len(t) < 2 || t[0] != want {
		return NoReg, fmt.Errorf("expected %c-register, got %q", want, t)
	}
	n, err := strconv.Atoi(t[1:])
	if err != nil {
		return NoReg, fmt.Errorf("bad register %q", t)
	}
	return Reg(n), nil
}

// mem parses a memory operand [rA], [rA+imm] or [rA-imm] into in.A and
// in.Imm.
func (o *operands) mem(in *Instr) error {
	t, err := o.need()
	if err != nil {
		return err
	}
	if !strings.HasPrefix(t, "[") || !strings.HasSuffix(t, "]") {
		return fmt.Errorf("expected memory operand, got %q", t)
	}
	body := t[1 : len(t)-1]
	if body == "" {
		return fmt.Errorf("empty memory operand %q", t)
	}
	regPart := body
	var off int64
	if i := strings.IndexAny(body[1:], "+-"); i >= 0 {
		regPart = body[:i+1]
		off, err = strconv.ParseInt(body[i+1:], 10, 64)
		if err != nil {
			return fmt.Errorf("bad offset in %q", t)
		}
	}
	if len(regPart) < 2 || regPart[0] != 'r' {
		return fmt.Errorf("bad address register in %q", t)
	}
	n, err := strconv.Atoi(regPart[1:])
	if err != nil {
		return fmt.Errorf("bad address register in %q", t)
	}
	in.A = Reg(n)
	in.Imm = off
	return nil
}

// value parses the B operand: an immediate of the given file when the
// next operand starts with '#', a register of that file otherwise.
func (o *operands) value(in *Instr, file regFile) error {
	peek := *o
	if t, ok := peek.pop(); ok && strings.HasPrefix(t, "#") {
		*o = peek
		in.BImm = true
		return parseImm(in, t[1:], file)
	}
	r, err := o.reg(file)
	in.B = r
	return err
}

// imm parses a required immediate of the given file; the '#' is optional.
func (o *operands) imm(in *Instr, file regFile) error {
	t, err := o.need()
	if err != nil {
		return err
	}
	return parseImm(in, strings.TrimPrefix(t, "#"), file)
}

// parseInstr parses one instruction line; terminator successor names are
// returned separately for the caller's second pass (names[0] is empty
// when there are none).
func parseInstr(ln string) (in Instr, names [2]string, err error) {
	in = Instr{Dst: NoReg, A: NoReg, B: NoReg, C: NoReg}
	mnemonic, rest, _ := strings.Cut(ln, " ")
	op, ok := OpcodeByName(mnemonic)
	if !ok {
		return in, names, fmt.Errorf("unknown opcode %q", mnemonic)
	}
	in.Op = op
	info := &opTable[op]
	o := operands{mnemonic: mnemonic, rest: rest}

	switch op {
	case OpLoad, OpFLoad, OpSharedLoad, OpFSharedLoad:
		if in.Dst, err = o.reg(info.dst); err == nil {
			err = o.mem(&in)
		}
	case OpStore, OpFStore, OpSharedStore, OpFSharedStore:
		if err = o.mem(&in); err == nil {
			err = o.value(&in, info.b)
		}
	case OpAtomAdd, OpFAtomAdd:
		if in.Dst, err = o.reg(info.dst); err == nil {
			err = o.mem(&in)
		}
		if err == nil {
			err = o.value(&in, info.b)
		}
	default:
		err = o.generic(&in, info)
		if err == nil && info.term && info.nsucc > 0 {
			n := 0
			for t, ok := o.pop(); ok; t, ok = o.pop() {
				if n < len(names) {
					names[n] = t
				}
				n++
			}
			if n != info.nsucc {
				return in, names, fmt.Errorf("%s wants %d successors, got %d", mnemonic, info.nsucc, n)
			}
			return in, names, nil
		}
	}
	if err != nil {
		return in, names, err
	}
	if toks := o.remaining(); len(toks) != 0 {
		return in, names, fmt.Errorf("trailing operands %v", toks)
	}
	return in, names, nil
}

// generic parses the operands of every opcode whose syntax is its
// opTable signature read left to right: dst, a, b, c, barrier,
// immediate, callee.
func (o *operands) generic(in *Instr, info *opInfo) (err error) {
	if info.dst != fileNone {
		if in.Dst, err = o.reg(info.dst); err != nil {
			return err
		}
	}
	if info.a != fileNone {
		if in.A, err = o.reg(info.a); err != nil {
			return err
		}
	}
	if info.b != fileNone {
		if err = o.value(in, info.b); err != nil {
			return err
		}
	}
	if info.c != fileNone {
		if in.C, err = o.reg(info.c); err != nil {
			return err
		}
	}
	if info.bar || info.wgbar {
		t, err := o.need()
		if err != nil {
			return err
		}
		if len(t) < 2 || t[0] != 'b' {
			return fmt.Errorf("expected barrier, got %q", t)
		}
		if in.Bar, err = strconv.Atoi(t[1:]); err != nil {
			return fmt.Errorf("bad barrier %q", t)
		}
	}
	switch info.imm {
	case immInt:
		if err = o.imm(in, fileInt); err != nil {
			return err
		}
	case immFloat:
		if err = o.imm(in, fileFloat); err != nil {
			return err
		}
	case immThreshold:
		t, err := o.need()
		if err != nil {
			return err
		}
		if in.Imm, err = strconv.ParseInt(t, 10, 64); err != nil {
			return fmt.Errorf("bad threshold %q", t)
		}
	}
	if info.call {
		t, err := o.need()
		if err != nil {
			return err
		}
		in.Callee = strings.TrimPrefix(t, "@")
	}
	return nil
}

func parseImm(in *Instr, lit string, file regFile) error {
	if file == fileFloat {
		v, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			return fmt.Errorf("bad float immediate %q", lit)
		}
		in.FImm = v
		return nil
	}
	v, err := strconv.ParseInt(lit, 10, 64)
	if err != nil {
		return fmt.Errorf("bad integer immediate %q", lit)
	}
	in.Imm = v
	return nil
}
