package evm

import (
	"fmt"
	"strings"
)

// Instruction is one decoded EVM instruction.
type Instruction struct {
	// PC is the byte offset of the opcode within the code.
	PC uint64
	// Op is the opcode byte.
	Op Op
	// Arg is the immediate value for PUSH instructions (zero otherwise).
	Arg Word
	// ArgBytes is the raw immediate (nil for non-PUSH). Truncated PUSH
	// immediates at the end of the code are zero-padded, matching EVM
	// execution semantics.
	ArgBytes []byte
	// Truncated marks a PUSH whose immediate ran past the end of the code.
	Truncated bool
}

// String formats the instruction as "PC: OP [0xarg]".
func (ins Instruction) String() string {
	if len(ins.ArgBytes) > 0 {
		return fmt.Sprintf("%05x: %s 0x%x", ins.PC, ins.Op, ins.ArgBytes)
	}
	return fmt.Sprintf("%05x: %s", ins.PC, ins.Op)
}

// Program is a disassembled contract: the instruction stream plus indexes
// used by the analyses.
type Program struct {
	Code         []byte
	Instructions []Instruction

	// byPC maps a program counter to its instruction-slice index, dense
	// form: byPC[pc] is -1 for PCs inside PUSH immediates. A slice beats
	// a map here — it is allocated in one shot, indexed without hashing,
	// and answers IsJumpDest too (a JUMPDEST byte is a jump target exactly
	// when an instruction starts there).
	byPC []int32
	// arena backs every instruction's ArgBytes (kept for DisassembleInto).
	arena []byte
}

// Disassemble decodes runtime bytecode with a linear sweep, the same way the
// Geth disassembler does. It never fails: undefined bytes decode as INVALID
// one-byte instructions and truncated PUSH immediates are zero-padded.
// A counting pre-pass sizes the instruction slice exactly, and all PUSH
// immediates share one arena allocation.
func Disassemble(code []byte) *Program {
	return DisassembleInto(new(Program), code)
}

// DisassembleInto is Disassemble decoding into p, reusing p's instruction,
// index and immediate arrays when their capacity suffices; it returns p.
// Every slice a previous decode handed out (Instructions, ArgBytes) is
// overwritten, so a caller recycles p only once nothing reads the old
// decode.
func DisassembleInto(p *Program, code []byte) *Program {
	nIns, nImm := 0, 0
	for pc := 0; pc < len(code); {
		size := 1 + Op(code[pc]).ImmediateSize()
		nImm += size - 1
		nIns++
		pc += size
	}
	p.Code = code
	p.Instructions = reuse(p.Instructions, nIns)[:0]
	p.byPC = reuse(p.byPC, len(code))
	p.arena = reuse(p.arena, nImm)
	for i := range p.byPC {
		p.byPC[i] = -1
	}
	arena := p.arena
	for pc := 0; pc < len(code); {
		op := Op(code[pc])
		ins := Instruction{PC: uint64(pc), Op: op}
		size := 1
		if imm := op.ImmediateSize(); imm > 0 {
			end := pc + 1 + imm
			raw := arena[:imm:imm]
			arena = arena[imm:]
			if end > len(code) {
				copy(raw, code[pc+1:])
				clear(raw[len(code)-pc-1:])
				ins.Truncated = true
			} else {
				copy(raw, code[pc+1:end])
			}
			ins.ArgBytes = raw
			ins.Arg = WordFromBytes(raw)
			size += imm
		}
		p.byPC[pc] = int32(len(p.Instructions))
		p.Instructions = append(p.Instructions, ins)
		pc += size
	}
	return p
}

// reuse returns s resized to n, keeping its backing array when it holds n.
func reuse[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// At returns the instruction at the given program counter, if one starts
// there (PCs inside PUSH immediates have no instruction).
func (p *Program) At(pc uint64) (Instruction, bool) {
	idx, ok := p.IndexOf(pc)
	if !ok {
		return Instruction{}, false
	}
	return p.Instructions[idx], true
}

// IndexOf returns the instruction-slice index for a PC.
func (p *Program) IndexOf(pc uint64) (int, bool) {
	if pc >= uint64(len(p.byPC)) || p.byPC[pc] < 0 {
		return 0, false
	}
	return int(p.byPC[pc]), true
}

// IsJumpDest reports whether pc holds a JUMPDEST (the only legal jump target).
func (p *Program) IsJumpDest(pc uint64) bool {
	if pc >= uint64(len(p.byPC)) || p.byPC[pc] < 0 {
		return false
	}
	return Op(p.Code[pc]) == JUMPDEST
}

// String renders the full disassembly listing.
func (p *Program) String() string {
	var b strings.Builder
	for _, ins := range p.Instructions {
		b.WriteString(ins.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// BasicBlock is a maximal straight-line instruction sequence: it starts at a
// leader (entry, JUMPDEST, or fall-through of a branch) and ends at a
// terminator, a JUMPI, or immediately before the next leader.
type BasicBlock struct {
	// Start and End are PCs: [Start, End] covers the block's instructions.
	Start, End uint64
	// Instructions indexes into Program.Instructions.
	First, Last int
}

// BasicBlocks partitions the program into basic blocks in PC order.
func (p *Program) BasicBlocks() []BasicBlock {
	if len(p.Instructions) == 0 {
		return nil
	}
	leaders := map[int]bool{0: true}
	for i, ins := range p.Instructions {
		switch {
		case ins.Op == JUMPDEST:
			leaders[i] = true
		case ins.Op == JUMPI || ins.Op.IsTerminator():
			if i+1 < len(p.Instructions) {
				leaders[i+1] = true
			}
		}
	}
	var blocks []BasicBlock
	start := 0
	flush := func(end int) {
		blocks = append(blocks, BasicBlock{
			Start: p.Instructions[start].PC,
			End:   p.Instructions[end].PC,
			First: start,
			Last:  end,
		})
	}
	for i := 1; i < len(p.Instructions); i++ {
		if leaders[i] {
			flush(i - 1)
			start = i
		}
	}
	flush(len(p.Instructions) - 1)
	return blocks
}
