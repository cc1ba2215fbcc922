package core

import (
	"sync"

	"sigrec/internal/evm"
)

// region owns the short-lived memory of one TASE exploration: the
// interner's tables and node slabs, the event list and the event dedup
// set. All of it dies together once the exploration's trace has been
// inferred, so a cold recovery returns the whole region to regionPool and
// the next exploration carves its nodes from the same chunks instead of
// handing thousands of small objects to the GC.
//
// Only recoverUncached and the dispatcher walk release regions, at points
// where nothing reads the trace any more. Public entry points whose
// results the caller keeps (TraceFunction, and Infer over such a trace)
// build their engine on newRegion and never release it.
type region struct {
	it     interner
	events []Event
	seen   map[eventID]bool
	// poisoned marks a region released under poisonRegions: it holds
	// scribbles instead of zeros until getRegion scrubs it.
	poisoned bool
}

// Pool bounds. A region or program that grew past them goes to the GC
// instead of back to its pool, so one pathological contract cannot pin
// its high-water memory in every pool slot.
const (
	// maxPooledChunks caps each slab's chunk chain (Expr, Word, args).
	maxPooledChunks = 32
	// maxPooledEntries caps every lookup table and the event list.
	maxPooledEntries = 512
	// maxPooledInstructions caps a pooled disassembly.
	maxPooledInstructions = 4096
)

var (
	regionPool  = sync.Pool{New: func() any { return newRegion() }}
	programPool = sync.Pool{New: func() any { return new(Program) }}
)

// poisonRegions makes release scribble recycled memory instead of clearing
// it, so a reader that outlives its region sees garbage rather than stale
// but plausible nodes. Tests set it; production never does.
var poisonRegions bool

// newRegion returns an empty region that belongs to the caller alone.
func newRegion() *region {
	r := &region{seen: make(map[eventID]bool)}
	r.it.init()
	return r
}

// getRegion takes a recycled (or new) region from the pool.
func getRegion() *region {
	r := regionPool.Get().(*region)
	if r.poisoned {
		r.it.scrub()
		r.poisoned = false
	}
	return r
}

// release returns r to the pool. Every node, event and table entry of the
// exploration that used it is dead from here on.
func (r *region) release() {
	it := &r.it
	if len(it.apps) > maxPooledEntries || len(it.consts) > maxPooledEntries ||
		len(it.envs) > maxPooledEntries || len(r.seen) > maxPooledEntries ||
		len(r.events) > maxPooledEntries || len(it.exprs.chunks) > maxPooledChunks ||
		len(it.words.chunks) > maxPooledChunks || len(it.args.chunks) > maxPooledChunks {
		return
	}
	r.poisoned = poisonRegions
	it.reset(r.poisoned)
	if r.poisoned {
		for i := range r.events {
			r.events[i] = poisonEvent
		}
	} else {
		clear(r.events)
	}
	r.events = r.events[:0]
	clear(r.seen)
	regionPool.Put(r)
}

// getProgram disassembles code into a recycled Program.
func getProgram(code []byte) *Program {
	return evm.DisassembleInto(programPool.Get().(*Program), code)
}

// releaseProgram returns p to the pool once nothing reads its instructions.
func releaseProgram(p *Program) {
	if cap(p.Instructions) > maxPooledInstructions {
		return
	}
	if poisonRegions {
		for i := range p.Instructions {
			p.Instructions[i] = evm.Instruction{PC: ^uint64(0), Op: evm.INVALID}
		}
	}
	p.Code = nil // the caller's bytes: do not pin them
	programPool.Put(p)
}

// Poison patterns: recognizable garbage that no exploration builds.
var (
	poisonWord = evm.WordFromUint64(0xdeadbeefdeadbeef).Not()
	poisonExpr = Expr{Kind: ExprKind(0x5a), Op: evm.INVALID, Conc: &poisonWord,
		Env: "poisoned", Seq: -1, id: ^uint32(0), str: "poisoned"}
	poisonEvent = Event{Kind: EventKind(0x5a), PC: ^uint64(0), Off: &poisonExpr,
		Val: &poisonExpr, Src: &poisonExpr, Len: &poisonExpr}
)

// slab is a chain of fixed-size chunks that interned storage is carved
// from, front to back. reset rewinds the chain without freeing it, so a
// recycled region carves its next exploration from the same chunks.
type slab[T any] struct {
	chunks [][]T
	next   int // chunks handed out since the last reset
	free   []T // uncarved tail of the current chunk
}

// take carves n consecutive zeroed elements; n is at most internSlabLen.
func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		if s.next == len(s.chunks) {
			s.chunks = append(s.chunks, make([]T, internSlabLen))
		}
		s.free = s.chunks[s.next]
		s.next++
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// reset clears every carved element and rewinds to the first chunk. With
// poison non-nil it overwrites the elements with *poison instead.
func (s *slab[T]) reset(poison *T) {
	for i, c := range s.chunks[:s.next] {
		if i == s.next-1 {
			c = c[:len(c)-len(s.free)]
		}
		if poison == nil {
			clear(c)
			continue
		}
		for j := range c {
			c[j] = *poison
		}
	}
	s.next, s.free = 0, nil
}

// scrub zeroes every chunk, carved or not.
func (s *slab[T]) scrub() {
	for _, c := range s.chunks {
		clear(c)
	}
}
