package ir

import "fmt"

// Opcode identifies one instruction of the SIMT virtual ISA.
//
// The ISA is a register machine with two per-thread register files (int64
// and float64), a flat global memory of 64-bit words shared by all threads,
// and Volta-style convergence-barrier operations. Opcodes are grouped into
// integer ALU, float ALU, divergence sources, memory, barrier, and control
// classes. The operand signature and issue latency of every opcode live in
// the opInfo table below; the printer, parser, verifier and simulator are
// all driven by that single table.
type Opcode uint8

const (
	OpInvalid Opcode = iota

	// Integer ALU. Dst and A are integer registers; B is an integer
	// register or, when Instr.BImm is set, the immediate Instr.Imm.
	OpConst // dst = imm
	OpMov   // dst = a
	OpAdd
	OpSub
	OpMul
	OpDiv // dst = a / b; division by zero yields 0 (GPU-style)
	OpMod // dst = a % b; mod by zero yields 0
	OpMin
	OpMax
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNot // dst = ^a
	OpNeg // dst = -a
	OpSetEQ
	OpSetNE
	OpSetLT
	OpSetLE
	OpSetGT
	OpSetGE
	OpSelect // dst = a != 0 ? b : c

	// Float ALU. Dst and operands are float registers; B may be the
	// float immediate Instr.FImm when Instr.BImm is set.
	OpFConst // dst = fimm
	OpFMov
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFMin
	OpFMax
	OpFNeg
	OpFAbs
	OpFSqrt
	OpFExp
	OpFLog
	OpFSin
	OpFCos
	OpFMA // dst = a*b + c
	OpFSetEQ
	OpFSetNE
	OpFSetLT
	OpFSetLE
	OpFSetGT
	OpFSetGE
	OpItoF // fdst = float64(a)
	OpFtoI // dst = int64(fa), truncated

	// Divergence sources and thread identity.
	OpTid        // dst = global thread id
	OpLane       // dst = lane id within the warp
	OpNumThreads // dst = total launched threads (uniform)
	OpRand       // dst = next 63-bit value of the per-thread RNG
	OpFRand      // fdst = per-thread uniform float in [0,1)

	// Memory. Addresses are word indices into global memory; the
	// effective address is reg(A) + Imm.
	OpLoad     // dst = mem[a+imm]
	OpStore    // mem[a+imm] = b (int)
	OpFLoad    // fdst = mem[a+imm] as float
	OpFStore   // mem[a+imm] = fb
	OpAtomAdd  // dst = old mem[a+imm]; mem[a+imm] += b
	OpFAtomAdd // fdst = old; mem[a+imm] += fb

	// Convergence barriers. Bar names a virtual barrier register; the
	// barrier allocator later maps virtual barriers onto the warp's
	// physical barrier registers.
	OpJoin     // BSSY: add executing lanes to the barrier's participation mask
	OpWait     // BSYNC: block until all participating lanes arrive, then clear
	OpWaitN    // soft barrier: release the waiting cohort once >= Imm lanes wait
	OpCancel   // BREAK: remove executing lanes from the participation mask
	OpArrived  // dst = number of lanes currently blocked waiting on the barrier
	OpWarpSync // full-warp barrier over all live lanes (CUDA 9 warpsync)

	// Warp-synchronous communication. These read across the lanes of
	// the ISSUING GROUP, so their results depend on convergence — the
	// reason CUDA 9 requires warpsync before them and the automatic
	// detector refuses regions containing them (paper section 6).
	OpVoteAny // dst = 1 if any active lane's a != 0
	OpVoteAll // dst = 1 if every active lane's a != 0
	OpBallot  // dst = bitmask of active lanes with a != 0

	// CTA (workgroup) hierarchy. These only behave non-trivially on a
	// grid launch (simt.Config.Grid > 0); on a flat launch the whole
	// launch acts as one CTA.
	OpCTAId   // dst = CTA index within the grid
	OpCTATid  // dst = thread id within the CTA
	OpCTASize // dst = threads per CTA (uniform)
	// OpCTABar is the workgroup barrier (PTX bar.sync / __syncthreads):
	// a lane blocks until every live lane of its CTA — across all of the
	// CTA's warps — is blocked on the same named CTA barrier. The Bar
	// field names one of the CTA's MaxBarriersPerCTA barriers; it is a
	// different namespace from the warp's convergence-barrier registers
	// (IsBarrierOp is false for this opcode).
	OpCTABar

	// Shared memory: the CTA-scoped address space (ld.shared/st.shared).
	// Addresses are word indices into the CTA's shared segment, sized by
	// the module's sharedwords attribute; the effective address is
	// reg(A) + Imm. Shared accesses bypass the global-memory cache and
	// coalescer and complete at a fixed latency.
	OpSharedLoad   // dst = shared[a+imm]
	OpSharedStore  // shared[a+imm] = b (int)
	OpFSharedLoad  // fdst = shared[a+imm] as float
	OpFSharedStore // shared[a+imm] = fb

	// Control.
	OpCall // call Instr.Callee; not a terminator, returns to the next instr
	OpBr   // unconditional; Block.Succs[0]
	OpCBr  // a != 0 -> Succs[0], else Succs[1]
	OpRet  // return from call; terminates the thread if the stack is empty
	OpExit // terminate the thread
	OpNop

	numOpcodes
)

// regFile says which register file an operand belongs to.
type regFile uint8

const (
	fileNone regFile = iota
	fileInt
	fileFloat
)

// immKind says how an opcode uses the immediate fields; the zero value
// is an opcode without one.
type immKind uint8

const (
	immInt       immKind = iota + 1 // Imm is a required integer literal (const)
	immFloat                        // FImm is a required float literal (fconst)
	immOffset                       // Imm is a memory offset, printed as [rA+imm]
	immThreshold                    // Imm is a soft-barrier threshold
)

// opInfo describes the operand signature, assembly name and issue latency
// of one opcode. Latencies are in simulator cycles for a fully converged
// issue; the memory system adds transaction costs on top for memory ops.
type opInfo struct {
	name    string
	dst     regFile
	a, b, c regFile
	bMayImm bool // B may be an immediate (Instr.BImm)
	imm     immKind
	bar     bool // uses Instr.Bar (warp convergence-barrier register)
	wgbar   bool // uses Instr.Bar as a CTA workgroup-barrier name
	call    bool // uses Instr.Callee
	term    bool // block terminator
	nsucc   int  // required successor count when term
	latency int
}

var opTable = [numOpcodes]opInfo{
	OpInvalid: {name: "invalid"},

	OpConst:  {name: "const", dst: fileInt, imm: immInt, latency: 1},
	OpMov:    {name: "mov", dst: fileInt, a: fileInt, latency: 1},
	OpAdd:    {name: "add", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 1},
	OpSub:    {name: "sub", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 1},
	OpMul:    {name: "mul", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 2},
	OpDiv:    {name: "div", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 8},
	OpMod:    {name: "mod", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 8},
	OpMin:    {name: "min", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 1},
	OpMax:    {name: "max", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 1},
	OpAnd:    {name: "and", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 1},
	OpOr:     {name: "or", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 1},
	OpXor:    {name: "xor", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 1},
	OpShl:    {name: "shl", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 1},
	OpShr:    {name: "shr", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 1},
	OpNot:    {name: "not", dst: fileInt, a: fileInt, latency: 1},
	OpNeg:    {name: "neg", dst: fileInt, a: fileInt, latency: 1},
	OpSetEQ:  {name: "seteq", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 1},
	OpSetNE:  {name: "setne", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 1},
	OpSetLT:  {name: "setlt", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 1},
	OpSetLE:  {name: "setle", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 1},
	OpSetGT:  {name: "setgt", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 1},
	OpSetGE:  {name: "setge", dst: fileInt, a: fileInt, b: fileInt, bMayImm: true, latency: 1},
	OpSelect: {name: "select", dst: fileInt, a: fileInt, b: fileInt, c: fileInt, latency: 1},

	OpFConst: {name: "fconst", dst: fileFloat, imm: immFloat, latency: 1},
	OpFMov:   {name: "fmov", dst: fileFloat, a: fileFloat, latency: 1},
	OpFAdd:   {name: "fadd", dst: fileFloat, a: fileFloat, b: fileFloat, bMayImm: true, latency: 2},
	OpFSub:   {name: "fsub", dst: fileFloat, a: fileFloat, b: fileFloat, bMayImm: true, latency: 2},
	OpFMul:   {name: "fmul", dst: fileFloat, a: fileFloat, b: fileFloat, bMayImm: true, latency: 2},
	OpFDiv:   {name: "fdiv", dst: fileFloat, a: fileFloat, b: fileFloat, bMayImm: true, latency: 10},
	OpFMin:   {name: "fmin", dst: fileFloat, a: fileFloat, b: fileFloat, bMayImm: true, latency: 2},
	OpFMax:   {name: "fmax", dst: fileFloat, a: fileFloat, b: fileFloat, bMayImm: true, latency: 2},
	OpFNeg:   {name: "fneg", dst: fileFloat, a: fileFloat, latency: 1},
	OpFAbs:   {name: "fabs", dst: fileFloat, a: fileFloat, latency: 1},
	OpFSqrt:  {name: "fsqrt", dst: fileFloat, a: fileFloat, latency: 12},
	OpFExp:   {name: "fexp", dst: fileFloat, a: fileFloat, latency: 16},
	OpFLog:   {name: "flog", dst: fileFloat, a: fileFloat, latency: 16},
	OpFSin:   {name: "fsin", dst: fileFloat, a: fileFloat, latency: 16},
	OpFCos:   {name: "fcos", dst: fileFloat, a: fileFloat, latency: 16},
	OpFMA:    {name: "fma", dst: fileFloat, a: fileFloat, b: fileFloat, c: fileFloat, latency: 2},
	OpFSetEQ: {name: "fseteq", dst: fileInt, a: fileFloat, b: fileFloat, bMayImm: true, latency: 2},
	OpFSetNE: {name: "fsetne", dst: fileInt, a: fileFloat, b: fileFloat, bMayImm: true, latency: 2},
	OpFSetLT: {name: "fsetlt", dst: fileInt, a: fileFloat, b: fileFloat, bMayImm: true, latency: 2},
	OpFSetLE: {name: "fsetle", dst: fileInt, a: fileFloat, b: fileFloat, bMayImm: true, latency: 2},
	OpFSetGT: {name: "fsetgt", dst: fileInt, a: fileFloat, b: fileFloat, bMayImm: true, latency: 2},
	OpFSetGE: {name: "fsetge", dst: fileInt, a: fileFloat, b: fileFloat, bMayImm: true, latency: 2},
	OpItoF:   {name: "itof", dst: fileFloat, a: fileInt, latency: 2},
	OpFtoI:   {name: "ftoi", dst: fileInt, a: fileFloat, latency: 2},

	OpTid:        {name: "tid", dst: fileInt, latency: 1},
	OpLane:       {name: "lane", dst: fileInt, latency: 1},
	OpNumThreads: {name: "nthreads", dst: fileInt, latency: 1},
	OpRand:       {name: "rand", dst: fileInt, latency: 4},
	OpFRand:      {name: "frand", dst: fileFloat, latency: 4},

	OpLoad:     {name: "ld", dst: fileInt, a: fileInt, imm: immOffset, latency: 2},
	OpStore:    {name: "st", a: fileInt, b: fileInt, imm: immOffset, latency: 2},
	OpFLoad:    {name: "fld", dst: fileFloat, a: fileInt, imm: immOffset, latency: 2},
	OpFStore:   {name: "fst", a: fileInt, b: fileFloat, imm: immOffset, latency: 2},
	OpAtomAdd:  {name: "atomadd", dst: fileInt, a: fileInt, b: fileInt, imm: immOffset, latency: 4},
	OpFAtomAdd: {name: "fatomadd", dst: fileFloat, a: fileInt, b: fileFloat, imm: immOffset, latency: 4},

	OpJoin:     {name: "join", bar: true, latency: 1},
	OpWait:     {name: "wait", bar: true, latency: 1},
	OpWaitN:    {name: "waitn", bar: true, imm: immThreshold, latency: 1},
	OpCancel:   {name: "cancel", bar: true, latency: 1},
	OpArrived:  {name: "arrived", dst: fileInt, bar: true, latency: 1},
	OpWarpSync: {name: "warpsync", latency: 1},
	OpVoteAny:  {name: "voteany", dst: fileInt, a: fileInt, latency: 2},
	OpVoteAll:  {name: "voteall", dst: fileInt, a: fileInt, latency: 2},
	OpBallot:   {name: "ballot", dst: fileInt, a: fileInt, latency: 2},

	OpCTAId:   {name: "ctaid", dst: fileInt, latency: 1},
	OpCTATid:  {name: "ctatid", dst: fileInt, latency: 1},
	OpCTASize: {name: "ctasize", dst: fileInt, latency: 1},
	OpCTABar:  {name: "ctabar", wgbar: true, latency: 1},

	OpSharedLoad:   {name: "lds", dst: fileInt, a: fileInt, imm: immOffset, latency: 2},
	OpSharedStore:  {name: "sts", a: fileInt, b: fileInt, imm: immOffset, latency: 2},
	OpFSharedLoad:  {name: "flds", dst: fileFloat, a: fileInt, imm: immOffset, latency: 2},
	OpFSharedStore: {name: "fsts", a: fileInt, b: fileFloat, imm: immOffset, latency: 2},

	OpCall: {name: "call", call: true, latency: 2},
	OpBr:   {name: "br", term: true, nsucc: 1, latency: 1},
	OpCBr:  {name: "cbr", a: fileInt, term: true, nsucc: 2, latency: 1},
	OpRet:  {name: "ret", term: true, latency: 1},
	OpExit: {name: "exit", term: true, latency: 1},
	OpNop:  {name: "nop", latency: 1},
}

var opByName = func() map[string]Opcode {
	m := make(map[string]Opcode, numOpcodes)
	for op := Opcode(1); op < numOpcodes; op++ {
		m[opTable[op].name] = op
	}
	return m
}()

// String returns the assembly mnemonic of the opcode.
func (op Opcode) String() string {
	if op >= numOpcodes {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opTable[op].name
}

// OpcodeByName returns the opcode with the given assembly mnemonic.
func OpcodeByName(name string) (Opcode, bool) {
	op, ok := opByName[name]
	return op, ok
}

// Info accessors used across packages.

// IsTerminator reports whether the opcode ends a basic block.
func (op Opcode) IsTerminator() bool { return opTable[op].term }

// Latency returns the base issue latency in simulator cycles.
func (op Opcode) Latency() int { return opTable[op].latency }

// IsBarrierOp reports whether the opcode references a warp
// convergence-barrier register. CTA workgroup barriers (OpCTABar) live
// in a separate namespace and are excluded, so the barrier allocator and
// the barrier-state analyses never confuse the two.
func (op Opcode) IsBarrierOp() bool { return opTable[op].bar }

// IsCTABarrier reports whether the opcode is the CTA workgroup barrier.
func (op Opcode) IsCTABarrier() bool { return opTable[op].wgbar }

// IsMemory reports whether the opcode accesses global memory.
func (op Opcode) IsMemory() bool {
	switch op {
	case OpLoad, OpStore, OpFLoad, OpFStore, OpAtomAdd, OpFAtomAdd:
		return true
	}
	return false
}

// IsSharedMemory reports whether the opcode accesses the CTA's shared
// memory segment. Shared accesses are not subject to the global-memory
// coalescer or cache.
func (op Opcode) IsSharedMemory() bool {
	switch op {
	case OpSharedLoad, OpSharedStore, OpFSharedLoad, OpFSharedStore:
		return true
	}
	return false
}

// IsDivergenceSource reports whether the opcode produces a value that
// differs across lanes regardless of its inputs.
func (op Opcode) IsDivergenceSource() bool {
	switch op {
	case OpTid, OpLane, OpRand, OpFRand, OpCTATid:
		return true
	}
	return false
}

// IsWarpSynchronous reports whether the opcode communicates across the
// lanes of its issuing group, making its result convergence-dependent.
func (op Opcode) IsWarpSynchronous() bool {
	switch op {
	case OpWarpSync, OpVoteAny, OpVoteAll, OpBallot:
		return true
	}
	return false
}

// HasDst reports whether the opcode writes a destination register, and
// which file it writes.
func (op Opcode) HasDst() (regFile, bool) {
	f := opTable[op].dst
	return f, f != fileNone
}

// OperandFile identifies which register file an operand slot uses, for
// consumers outside this package (liveness, divergence analysis, the
// simulator's decoder).
type OperandFile uint8

const (
	FileNone OperandFile = iota
	FileInt
	FileFloat
)

// OperandSig is the externally visible operand signature of an opcode.
type OperandSig struct {
	Dst, A, B, C OperandFile
	BMayImm      bool
}

// OperandFiles returns the operand signature of op.
func OperandFiles(op Opcode) OperandSig {
	info := &opTable[op]
	conv := func(f regFile) OperandFile {
		switch f {
		case fileInt:
			return FileInt
		case fileFloat:
			return FileFloat
		}
		return FileNone
	}
	return OperandSig{
		Dst:     conv(info.dst),
		A:       conv(info.a),
		B:       conv(info.b),
		C:       conv(info.c),
		BMayImm: info.bMayImm,
	}
}
